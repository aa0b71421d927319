"""The ``sweep`` verb of the experiments CLI.

``python -m repro.experiments sweep --quick --workers 4`` expands a
preset (or user-supplied) grid, fans it across a worker pool, prints the
aggregated tables, and optionally writes a JSON artifact and keeps the
results in a content store (``--cache-dir``; the same directory a
``repro-serve`` daemon takes as ``--store``).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

from repro.errors import ReproError, SweepError
from repro.sweep.aggregate import sweep_result, to_json_payload, write_json
from repro.sweep.runner import run_jobs
from repro.sweep.scenario import Scenario
from repro.sweep.spec import SweepSpec, full_spec, quick_spec
from repro.sweep.store import ContentStore

__all__ = [
    "main",
    "build_parser",
    "add_spec_arguments",
    "resolve_spec",
    "add_scenario_arguments",
    "scenario_from_args",
]


def add_scenario_arguments(parser: argparse.ArgumentParser) -> None:
    """The ten flags that name one scenario cell.

    Shared by every CLI that runs a single cell (``repro-live``,
    ``repro-viz dashboard``); :func:`scenario_from_args` turns the
    parsed flags into the :class:`~repro.sweep.scenario.Scenario`.
    """
    parser.add_argument(
        "--topology", default="line",
        help="topology kind (line/ring/star/complete/...) or full spec "
             "like grid:3,4 (--nodes is ignored when a ':' is present)",
    )
    parser.add_argument(
        "--nodes", type=int, default=8, help="node count for 1-argument kinds"
    )
    parser.add_argument(
        "--alg", "--algorithm", dest="algorithm", default="gradient",
        help="algorithm spec (e.g. gradient, max-based:0.5, averaging)",
    )
    parser.add_argument("--rates", default="drifted", help="rate family")
    parser.add_argument("--delays", default="uniform", help="delay policy spec")
    parser.add_argument(
        "--faults", default="none",
        help="fault-family spec, e.g. crash-recover:0.25,5",
    )
    parser.add_argument(
        "--mobility", default="static",
        help="mobility-family spec, e.g. waypoint:0.5 or blink:0.2,2",
    )
    parser.add_argument("--duration", type=float, default=20.0,
                        help="run length in simulation time units")
    parser.add_argument("--rho", type=float, default=0.2, help="drift bound")
    parser.add_argument("--seed", type=int, default=0)


def scenario_from_args(args: argparse.Namespace) -> Scenario:
    """The cell named by parsed :func:`add_scenario_arguments` flags."""
    return Scenario(
        topology=(
            args.topology if ":" in args.topology
            else f"{args.topology}:{args.nodes}"
        ),
        algorithm=args.algorithm,
        rates=args.rates,
        delays=args.delays,
        faults=args.faults,
        mobility=args.mobility,
        duration=args.duration,
        rho=args.rho,
        seed=args.seed,
    )


def add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """The spec-shaping flags, shared with ``repro-serve submit``.

    Adds the preset group (``--quick``/``--full``/``--spec``) plus every
    axis/scalar override :func:`resolve_spec` understands, so any CLI
    that accepts a grid accepts exactly the same grammar.
    """
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="small CI grid (default)")
    scale.add_argument("--full", action="store_true", help="writeup-scale grid")
    scale.add_argument(
        "--spec", metavar="FILE", help="JSON file with SweepSpec fields"
    )
    parser.add_argument(
        "--topologies", help="comma-separated topology specs (override preset)"
    )
    parser.add_argument(
        "--algorithms", help="comma-separated algorithm specs (override preset)"
    )
    parser.add_argument(
        "--rates", help="comma-separated rate families (override preset)"
    )
    parser.add_argument(
        "--delays", help="comma-separated delay policies (override preset)"
    )
    parser.add_argument(
        "--faults",
        help=(
            "comma-separated fault families (override preset), e.g. "
            "'none,loss:0.2,crash-recover:0.25,5' (a comma starts a new "
            "family only before a name, so numeric arguments stay intact)"
        ),
    )
    parser.add_argument(
        "--mobility",
        help=(
            "comma-separated mobility families (override preset), e.g. "
            "'static,waypoint:0.5,blink:0.3,8' (a comma starts a new "
            "family only before a name, so numeric arguments stay intact)"
        ),
    )
    parser.add_argument(
        "--transports",
        help=(
            "comma-separated execution backends per cell: 'sim' "
            "(simulator) and/or live transports 'virtual', 'asyncio', "
            "'udp', 'router' (override preset; udp/router cells fork "
            "node processes, so they run one at a time after the pool)"
        ),
    )
    parser.add_argument(
        "--time-scale", type=float,
        help="wall seconds per sim unit for wall-clock live transports",
    )
    parser.add_argument("--seeds", type=int, help="number of seeds per cell")
    parser.add_argument("--duration", type=float, help="run length (real time)")
    parser.add_argument("--rho", type=float, help="drift bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep",
        description="Run a parallel grid of benign scenarios.",
    )
    add_spec_arguments(parser)
    parser.add_argument(
        "--workers",
        type=int,
        default=max(os.cpu_count() or 1, 1),
        help="worker processes (default: CPU count; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="reuse results stored under DIR (also a repro-serve --store)"
    )
    parser.add_argument(
        "--json-out", metavar="FILE", help="write the full artifact as JSON"
    )
    parser.add_argument(
        "--report", metavar="DIR",
        help="render report.svg + report.json (repro.viz) under DIR",
    )
    parser.add_argument(
        "--per-job", action="store_true", help="also print the per-job grid"
    )
    return parser


def resolve_spec(args: argparse.Namespace) -> SweepSpec:
    """Build the grid from parsed :func:`add_spec_arguments` flags."""
    if args.spec:
        with open(args.spec) as handle:
            spec = SweepSpec.from_dict(json.load(handle))
    elif args.full:
        spec = full_spec()
    else:
        spec = quick_spec()

    overrides: dict = {}
    for flag, axis in (
        ("topologies", "topologies"),
        ("algorithms", "algorithms"),
        ("rates", "rate_families"),
        ("delays", "delay_policies"),
        ("faults", "fault_families"),
        ("mobility", "mobilities"),
        ("transports", "transports"),
    ):
        value = getattr(args, flag)
        if value:
            # Split on commas that start a new family name, so numeric
            # arguments inside a spec ("uniform:0.25,0.75",
            # "crash-recover:0.25,5") survive intact.
            parts = re.split(r",(?=[A-Za-z])", value)
            overrides[axis] = tuple(s.strip() for s in parts if s.strip())
    if args.seeds is not None:
        overrides["seeds"] = tuple(range(args.seeds))
    if args.duration is not None:
        overrides["duration"] = args.duration
    if args.rho is not None:
        overrides["rho"] = args.rho
    if args.time_scale is not None:
        overrides["time_scale"] = args.time_scale
    if overrides:
        payload = json.loads(spec.to_json())
        payload.update(overrides)
        spec = SweepSpec.from_dict(payload)
    return spec


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = resolve_spec(args)
        jobs = spec.jobs()
    except (OSError, json.JSONDecodeError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    cache = ContentStore(args.cache_dir) if args.cache_dir else None
    print(
        f"sweep '{spec.name}': {len(jobs)} jobs "
        f"({len(spec.topologies)} topologies x {len(spec.algorithms)} algorithms "
        f"x {len(spec.rate_families)} rate families x "
        f"{len(spec.delay_policies)} delay policies x "
        f"{len(spec.fault_families)} fault families x "
        f"{len(spec.mobilities)} mobility families x "
        f"{len(spec.transports)} transports x {len(spec.seeds)} seeds), "
        f"{args.workers} worker(s)"
    )
    # Wall-clock stopwatch for the progress summary line only — the
    # grid's metrics stay a pure function of (spec, seed).
    start = time.perf_counter()  # repro: allow[DET001] progress display
    try:
        outcomes = run_jobs(jobs, workers=args.workers, cache=cache)
    except ReproError as exc:
        # SweepError from the engine, or an RtError a live-run cell hit.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start  # repro: allow[DET001] progress display

    cache_stats = (
        {"hits": cache.hits, "misses": cache.misses, "dir": str(cache.root)}
        if cache
        else {}
    )
    notes = [f"{len(outcomes)} jobs in {elapsed:.2f}s at {args.workers} worker(s)"]
    if cache:
        notes.append(
            f"cache: {cache.hits} hit(s), {cache.misses} miss(es) "
            f"under {cache.root}"
        )
    result = sweep_result(
        spec, outcomes, include_seed_rows=args.per_job, notes=notes
    )
    print(result.render())

    if args.json_out:
        payload = to_json_payload(
            spec, outcomes, workers=args.workers, elapsed=elapsed,
            cache_stats=cache_stats,
        )
        path = write_json(args.json_out, payload)
        print(f"wrote {path}")
    if args.report:
        from repro.viz.report import write_report

        svg_path, json_path = write_report(
            args.report,
            [outcome.metrics for outcome in outcomes],
            title=f"sweep '{spec.name}' report",
        )
        print(f"wrote {svg_path}")
        print(f"wrote {json_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
