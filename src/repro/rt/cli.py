"""The ``live`` verb: run an algorithm on a real transport from the shell.

Reached as ``python -m repro.experiments live …`` or via the
``repro-live`` console script::

    repro-live --alg gradient --topology line --nodes 8 --transport virtual
    repro-live --alg averaging --topology ring --nodes 6 \\
        --transport udp --duration 10 --time-scale 0.2

Prints the same skew summary an experiment table would, so eyeballing a
live run against its simulator twin needs no extra tooling.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.errors import ReproError
from repro.rt.run import LiveRunConfig, run_live
from repro.sweep.cli import add_scenario_arguments, scenario_from_args
from repro.sweep.families import TRANSPORT_FAMILIES

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-live",
        description=(
            "Run a clock synchronization algorithm live: unchanged "
            "simulator processes on a virtual-time scheduler, an "
            "in-process wall clock, one UDP process per node, or hundreds "
            "of nodes multiplexed onto router worker processes."
        ),
    )
    add_scenario_arguments(parser)
    parser.add_argument(
        "--transport", choices=list(TRANSPORT_FAMILIES), default="virtual",
        help="live backend (every one runs --faults / --mobility cells)",
    )
    parser.add_argument(
        "--time-scale", type=float, default=0.1,
        help="wall seconds per simulation unit (wall-clock transports)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="router worker processes (0 = auto, ~1 per 16 nodes)",
    )
    parser.add_argument(
        "--tail", metavar="DIR", default=None,
        help="stream rolling-panel SVG frames (tail_NNNN.svg) into DIR "
             "while the run executes",
    )
    parser.add_argument(
        "--tail-interval", type=float, default=0.5,
        help="sim-time units between streamed tail frames",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = LiveRunConfig(
            **scenario_from_args(args).params(),
            transport=args.transport,
            time_scale=args.time_scale,
            workers=args.workers,
        )
        tail = None
        if args.tail is not None:
            from repro.viz.tail import StreamingTail

            tail = StreamingTail(
                interval=args.tail_interval, out_dir=args.tail
            )
        execution = run_live(config, tail=tail)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    skew = SkewField(execution).summary()
    table = Table(
        title=f"live run [{execution.source}]: {config.algorithm} on "
              f"{config.topology}",
        headers=["metric", "value"],
        caption=(
            f"duration {config.duration} sim units, seed {config.seed}, "
            f"rho {config.rho}; measured with the same SkewField "
            f"the simulator's runs use"
        ),
    )
    table.add_row("max skew", round(skew.max_skew, 4))
    table.add_row("max adjacent skew", round(skew.max_adjacent_skew, 4))
    table.add_row("final skew", round(skew.final_skew, 4))
    table.add_row("final adjacent skew", round(skew.final_adjacent_skew, 4))
    table.add_row("mean |skew|", round(skew.mean_abs_skew, 4))
    table.add_row("messages sent", len(execution.messages))
    table.add_row("trace events", len(execution.trace))
    live = execution.live_stats
    table.add_row("frames dropped", live["frames_dropped"])
    table.add_row("worker processes", live["workers"])
    if execution.fault_stats:
        injected = {k: v for k, v in execution.fault_stats.items() if v}
        table.add_row("fault events", injected or "none fired")
    if execution.is_dynamic:
        table.add_row("rewirings", len(execution.topology_timeline) - 1)
    table.add_row("wall-clock seconds", round(live["wall_elapsed"], 3))
    if tail is not None:
        table.add_row("tail frames streamed", tail.frames_rendered)
    print(table.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
