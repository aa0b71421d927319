"""The ``viz`` verb: render figures from the shell.

Reached as ``python -m repro.experiments viz …`` or via the
``repro-viz`` console script.  Three subcommands::

    repro-viz dashboard --topology line --nodes 16 --alg gradient \\
        --faults crash-recover:0.25,5 --out figures/
    repro-viz report sweep.json --out figures/
    repro-viz experiment E02 --scale quick --out figures/

``dashboard`` simulates one :class:`~repro.sweep.scenario.Scenario`
cell (named by the same ten flags ``repro-live`` takes, with tracing on
so event markers appear) and writes
the skew-field dashboard plus the mobility animation; ``report``
renders a saved sweep JSON artifact into ``report.svg``/``report.json``;
``experiment`` runs a registered experiment and charts its tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.sweep.cli import add_scenario_arguments, scenario_from_args
from repro.sweep.scenario import Scenario

__all__ = ["main", "build_parser", "run_scenario"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-viz",
        description=(
            "Render SVG figures from executions, sweep artifacts, and "
            "experiments — stdlib-only, no display needed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dash = sub.add_parser(
        "dashboard", help="simulate one scenario and render its skew field"
    )
    add_scenario_arguments(dash)
    dash.add_argument("--out", default="viz-out", metavar="DIR")
    dash.add_argument("--frames", action="store_true",
                      help="also write numbered mobility stills")

    rep = sub.add_parser(
        "report", help="render a sweep JSON artifact as report.svg/.json"
    )
    rep.add_argument("artifact", help="sweep artifact (from sweep --json-out)")
    rep.add_argument("--out", default="viz-out", metavar="DIR")
    rep.add_argument("--group-key", default="algorithm",
                     help="metric key the bars are grouped by")
    rep.add_argument("--title", default=None)

    exp = sub.add_parser(
        "experiment", help="run one experiment and chart its tables"
    )
    exp.add_argument("id", help="experiment id (E01..E16)")
    exp.add_argument("--scale", choices=["quick", "full"], default="quick")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--workers", type=int, default=1)
    exp.add_argument("--out", default="viz-out", metavar="DIR")
    return parser


def run_scenario(
    *,
    topology: str,
    algorithm: str,
    rates: str = "drifted",
    delays: str = "uniform",
    faults: str = "none",
    mobility: str = "static",
    duration: float = 20.0,
    rho: float = 0.2,
    seed: int = 0,
):
    """Simulate one scenario cell with tracing on, so dashboards get
    their CRASH / RECOVER / TopologyChange markers."""
    return Scenario(
        topology=topology, algorithm=algorithm, rates=rates, delays=delays,
        faults=faults, mobility=mobility, duration=duration, rho=rho, seed=seed,
    ).simulate(record_trace=True)


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from repro.viz.dashboard import skew_dashboard
    from repro.viz.mobility import mobility_animation, mobility_frames

    execution = scenario_from_args(args).simulate(record_trace=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    dash_path = out / "dashboard.svg"
    dash_path.write_text(skew_dashboard(execution), encoding="utf-8")
    written.append(dash_path)
    anim_path = out / "mobility.svg"
    anim_path.write_text(mobility_animation(execution), encoding="utf-8")
    written.append(anim_path)
    if args.frames:
        for k, frame in enumerate(mobility_frames(execution)):
            frame_path = out / f"mobility_{k:03d}.svg"
            frame_path.write_text(frame, encoding="utf-8")
            written.append(frame_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.viz.report import rows_from_artifact, write_report

    with open(args.artifact) as handle:
        payload = json.load(handle)
    rows = rows_from_artifact(payload)
    title = args.title or (
        f"sweep '{payload.get('spec', {}).get('name', 'sweep')}' report"
    )
    svg_path, json_path = write_report(
        args.out, rows, title=title, group_key=args.group_key
    )
    print(f"wrote {svg_path}")
    print(f"wrote {json_path}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import run_experiment
    from repro.viz.report import write_experiment_report

    result = run_experiment(
        args.id.upper(), args.scale, seed=args.seed, workers=args.workers
    )
    path = write_experiment_report(args.out, result)
    if path is None:
        print(f"error: {args.id} produced no chartable tables",
              file=sys.stderr)
        return 2
    print(f"wrote {path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "dashboard":
            return _cmd_dashboard(args)
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_experiment(args)
    except (ReproError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
