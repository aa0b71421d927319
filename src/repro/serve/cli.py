"""The ``repro-serve`` command line: daemon lifecycle + client verbs.

``start`` runs the daemon in the foreground (backgrounding is the
caller's job — ``&`` in a shell, a supervisor, or the CI smoke script).
``submit`` accepts exactly the grid grammar of ``repro-experiments
sweep`` (the flags are shared via
:func:`repro.sweep.cli.add_spec_arguments`), so any sweep that runs
in-process can be pointed at a daemon unchanged.  ``status`` / ``fetch``
/ ``stop`` are thin :class:`~repro.serve.client.ServeClient` wrappers;
``fetch`` renders the same aggregated tables the sweep verb prints.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.errors import ServeError, SweepError
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.sweep.aggregate import sweep_result, write_json
from repro.sweep.cli import add_spec_arguments, resolve_spec
from repro.sweep.jobs import JobOutcome
from repro.sweep.spec import SweepSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Sweep-as-a-service: daemon, submissions, results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the daemon (foreground)")
    start.add_argument("--store", required=True, metavar="DIR",
                       help="content store root (objects + manifests)")
    start.add_argument("--workers", type=int, default=2,
                       help="worker processes (default: 2)")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=0,
                       help="listen port (default: ephemeral)")

    submit = sub.add_parser(
        "submit", help="submit a grid (same flags as the sweep verb)"
    )
    submit.add_argument("--store", required=True, metavar="DIR")
    add_spec_arguments(submit)
    submit.add_argument("--name", help="override the sweep's name")
    submit.add_argument("--wait", action="store_true",
                        help="block until the sweep settles")
    submit.add_argument("--wait-timeout", type=float, default=600.0,
                        help="--wait budget in seconds (default: 600)")

    status = sub.add_parser("status", help="one sweep, or all of them")
    status.add_argument("--store", required=True, metavar="DIR")
    status.add_argument("sweep", nargs="?", help="sweep id (default: list)")

    fetch = sub.add_parser("fetch", help="render a completed sweep's tables")
    fetch.add_argument("--store", required=True, metavar="DIR")
    fetch.add_argument("sweep", help="sweep id")
    fetch.add_argument("--per-job", action="store_true",
                       help="also print the per-job grid")
    fetch.add_argument("--json-out", metavar="FILE",
                       help="write the raw metrics list as JSON")

    stop = sub.add_parser("stop", help="ask the daemon to shut down")
    stop.add_argument("--store", required=True, metavar="DIR")
    return parser


def _counts_line(sweep: str, name: str, counts: dict) -> str:
    line = (
        f"sweep {sweep} '{name}': {counts['done']}/{counts['total']} done, "
        f"{counts['running']} running, {counts['queued']} queued, "
        f"{counts['failed']} failed"
    )
    return line


def _cmd_start(args: argparse.Namespace) -> int:
    daemon = ServeDaemon(
        args.store, workers=args.workers, host=args.host, port=args.port
    )
    daemon.start()

    def request_stop(signum, frame):  # pragma: no cover - signal path
        daemon.stop()

    signal.signal(signal.SIGTERM, request_stop)
    signal.signal(signal.SIGINT, request_stop)
    print(
        f"repro-serve listening on {daemon.host}:{daemon.port} "
        f"(store {daemon.store.root}, {daemon.n_workers} workers, "
        f"{daemon.resumed} cells resumed)",
        flush=True,
    )
    daemon.run()
    print("repro-serve stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    spec = resolve_spec(args)
    if args.name:
        payload = spec.payload()
        payload["name"] = args.name
        spec = SweepSpec.from_dict(payload)
    with ServeClient(store=args.store) as client:
        receipt = client.submit(spec)
        print(
            f"sweep {receipt['sweep']}: {receipt['total']} jobs "
            f"({receipt['hits']} hit(s), {receipt['deduped']} deduped, "
            f"{receipt['queued']} queued)"
        )
        if args.wait:
            final = client.wait(
                receipt["sweep"], timeout=args.wait_timeout
            )
            counts = final["counts"]
            print(_counts_line(final["sweep"], final["name"], counts))
            if counts["failed"]:
                return 2
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    with ServeClient(store=args.store) as client:
        if args.sweep:
            reply = client.status(args.sweep)
            print(_counts_line(reply["sweep"], reply["name"], reply["counts"]))
        else:
            reply = client.status()
            if not reply["sweeps"]:
                print("no sweeps submitted")
            for entry in reply["sweeps"]:
                print(
                    _counts_line(entry["sweep"], entry["name"], entry["counts"])
                )
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    with ServeClient(store=args.store) as client:
        reply = client.fetch_reply(args.sweep)
    spec = SweepSpec.from_dict(reply["spec"])
    # The daemon returns metrics in job order, so re-expanding the spec
    # lines outcomes up one-to-one for the standard tables.
    outcomes = [
        JobOutcome(job=job, metrics=metrics, elapsed=0.0, cached=True)
        for job, metrics in zip(spec.jobs(), reply["results"])
    ]
    result = sweep_result(
        spec,
        outcomes,
        include_seed_rows=args.per_job,
        notes=[f"served sweep {reply['sweep']} ({len(outcomes)} jobs)"],
    )
    print(result.render())
    if args.json_out:
        path = write_json(args.json_out, {
            "sweep": reply["sweep"],
            "spec": reply["spec"],
            "results": reply["results"],
        })
        print(f"wrote {path}")
    return 0


def _cmd_stop(args: argparse.Namespace) -> int:
    with ServeClient(store=args.store) as client:
        client.shutdown()
    print("shutdown requested")
    return 0


_COMMANDS = {
    "start": _cmd_start,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "fetch": _cmd_fetch,
    "stop": _cmd_stop,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ServeError, SweepError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
