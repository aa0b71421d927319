#!/usr/bin/env python
"""Quickstart: simulate clock sync, measure the gradient, force the bound.

Covers the three things the library does:

1. run a clock synchronization algorithm on a network with drifting
   clocks and adversarial-capable delays;
2. measure the *gradient*: max skew as a function of node distance;
3. unleash the paper's Theorem 8.1 adversary and watch it force skew
   between adjacent nodes.

Run:  python examples/quickstart.py
"""

from repro import LowerBoundAdversary, MaxBasedAlgorithm, lower_bound_curve
from repro.analysis import Table
from repro.sweep import Scenario


def benign_run() -> None:
    print("=== 1. a benign run: 13 drifting nodes on a line ===")
    execution = Scenario(
        topology="line:13", algorithm="max-based:0.5", rates="drifted",
        delays="uniform", duration=60.0, rho=0.2, seed=7,
    ).simulate()
    execution.check_validity()   # Requirement 1 holds
    execution.check_delay_bounds()  # the model's [0, d] band holds

    table = Table(
        title="gradient profile (empirical f)",
        headers=["distance d", "max |L_i - L_j| observed"],
    )
    for d, skew in execution.gradient_profile().items():
        table.add_row(d, skew)
    print(table.render())
    print()


def forced_skew() -> None:
    print("=== 2. the Theorem 8.1 adversary, diameter 32 ===")
    adversary = LowerBoundAdversary(diameter=32, rho=0.5, shrink=4)
    result = adversary.run(MaxBasedAlgorithm())
    table = Table(
        title="per-round transcript",
        headers=["round", "pair", "span", "skew before", "skew after"],
    )
    for r in result.rounds:
        table.add_row(
            r.round_index, f"({r.i},{r.j})", r.span, r.skew_before, r.skew_after_round
        )
    print(table.render())
    print(
        f"\nforced distance-1 skew: {result.final_adjacent_skew:.3f} "
        f"(envelope log D/log log D = {lower_bound_curve(32):.3f})"
    )
    print("No algorithm can avoid this: clock sync is not a local property.")


if __name__ == "__main__":
    benign_run()
    forced_skew()
