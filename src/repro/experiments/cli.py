"""Entry point: ``python -m repro.experiments [ids|sweep|live|viz|check|serve]``.

Six verbs share the entry point: bare experiment ids (``E01``..``E16``)
run individual reproductions, ``sweep`` dispatches to the parallel
scenario-sweep engine (:mod:`repro.sweep.cli`), ``live`` runs an
algorithm on a real transport through the live runtime
(:mod:`repro.rt.cli`), ``viz`` renders SVG figures from scenarios,
sweep artifacts, and experiments (:mod:`repro.viz.cli`), ``check``
runs the static invariant linter (:mod:`repro.check.cli`), and
``serve`` drives the sweep-as-a-service daemon
(:mod:`repro.serve.cli`)::

    python -m repro.experiments E03 E05 --workers 4
    python -m repro.experiments E02 --report figures/
    python -m repro.experiments sweep --quick --workers 4
    python -m repro.experiments live --alg gradient --topology line \\
        --nodes 8 --transport virtual
    python -m repro.experiments viz dashboard --topology grid:4,4
    python -m repro.experiments check src/
    python -m repro.experiments serve start --store /tmp/store
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import sys
import time

from repro.errors import ReproError
from repro.experiments import REGISTRY, run_experiment

__all__ = ["main", "list_experiments", "VERBS"]

#: verb -> module whose ``main(argv)`` serves it.  Imported only when
#: the verb is used, so ``--list`` and plain experiment runs never load
#: the live runtime, the linter or the daemon.
VERBS = {
    "sweep": "repro.sweep.cli",
    "live": "repro.rt.cli",
    "viz": "repro.viz.cli",
    "check": "repro.check.cli",
    "serve": "repro.serve.cli",
}


def list_experiments() -> str:
    """The registry, one line per experiment: id, title, scale knobs."""
    lines = []
    for key in sorted(REGISTRY):
        runner = REGISTRY[key]
        doc = (runner.__doc__ or "").strip().splitlines()
        title = doc[0] if doc else ""
        knobs = [
            name
            for name, param in inspect.signature(runner).parameters.items()
            if param.kind is param.KEYWORD_ONLY
        ]
        lines.append(f"{key}: {title}")
        lines.append(f"     scales: quick, full; knobs: {', '.join(knobs) or '-'}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in VERBS:
        verb_main = importlib.import_module(VERBS[argv[0]]).main
        return verb_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Run reproduction experiments for 'Gradient Clock "
            "Synchronization' (Fan & Lynch, PODC 2004).  Use the 'sweep' "
            "verb for parallel scenario grids and the 'live' verb to run "
            "algorithms on real transports."
        ),
    )
    parser.add_argument(
        "ids",
        nargs="*",
        metavar="ID",
        help=(
            "experiment ids (E01..E16), or "
            f"{' / '.join(repr(verb) for verb in VERBS)}; default: all"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=["quick", "full"],
        default="quick",
        help="parameter scale (full matches EXPERIMENTS.md)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for sweep-engine experiments (e.g. E05)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiments and exit"
    )
    parser.add_argument(
        "--report", metavar="DIR", default=None,
        help="also chart each experiment's tables as <id>.svg under DIR",
    )
    args = parser.parse_args(argv)

    if args.list:
        print(list_experiments())
        return 0

    ids = [i.upper() for i in args.ids] or sorted(REGISTRY)
    for verb in VERBS:
        if verb.upper() in ids:
            print(
                f"error: the '{verb}' verb must come first: "
                f"python -m repro.experiments {verb} [options]",
                file=sys.stderr,
            )
            return 2
    for experiment_id in ids:
        start = time.time()
        try:
            result = run_experiment(
                experiment_id, args.scale, seed=args.seed, workers=args.workers
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.render())
        if args.report:
            from repro.viz.report import write_experiment_report

            path = write_experiment_report(args.report, result)
            if path is not None:
                print(f"wrote {path}")
        print(f"[{experiment_id} took {time.time() - start:.1f}s]")
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
