#!/usr/bin/env python
"""Watch the adversary work: adjacent skew over time, as sparklines.

Runs the Theorem 8.1 construction, then renders (a) the watched pair's
skew trajectory and (b) the network-wide max adjacent skew across the
final execution — including every Add Skew window — as terminal
sparklines, and exports the series to CSV for offline plotting.

Run:  python examples/skew_timeline.py
"""

from pathlib import Path

from repro import MaxBasedAlgorithm
from repro.analysis import SkewField, sparkline, write_csv
from repro.gcs import LowerBoundAdversary

D = 32


def main() -> None:
    result = LowerBoundAdversary(diameter=D, rho=0.5, shrink=4).run(
        MaxBasedAlgorithm()
    )
    execution = result.final_execution
    i, j = result.final_pair

    field = SkewField(execution, step=1.0)
    times = field.times.tolist()
    adjacent = field.max_adjacent_series().tolist()
    pair = field.pair_series(i, j).tolist()

    print(f"Theorem 8.1 against max-based, D = {D}, "
          f"{result.rounds_applied} rounds, duration {execution.duration:.1f}\n")
    print(f"max adjacent skew over time   (peak {max(adjacent):.3f})")
    print("  " + sparkline(adjacent))
    print(f"final pair ({i},{j}) |skew| over time   (end {pair[-1]:.3f})")
    print("  " + sparkline(pair))
    print()
    for r in result.rounds:
        print(
            f"  round {r.round_index}: Add Skew on ({r.i},{r.j}) "
            f"ends at t={r.duration_after:.1f}"
        )

    out = Path("skew_timeline.csv")
    write_csv(out, times, {"max_adjacent": adjacent, "final_pair": pair})
    print(f"\nseries written to {out} (plot offline if desired)")


if __name__ == "__main__":
    main()
