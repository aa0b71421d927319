#!/usr/bin/env python
"""Target tracking (the paper's second motivating app).

An object moves along a line of sensors at constant velocity; each
sensor timestamps the moment it passes using its *logical* clock, and
pairs of sensors estimate the velocity as separation / timestamp-delta.
The experiment shows the introduction's gradient argument: for a fixed
accuracy target the *acceptable clock skew grows linearly with the
distance* between the cooperating sensors.

Run:  python examples/target_tracking.py
"""

from repro.analysis import Table
from repro.apps.tracking import required_skew_for_accuracy, track_velocity
from repro.sweep import Scenario

RHO = 0.05
VELOCITY = 0.5
DURATION = 160.0


def main() -> None:
    execution = Scenario(
        topology="line:33", algorithm="max-based:0.5", rates="drifted",
        delays="uniform", duration=DURATION, rho=RHO, seed=21,
    ).simulate()
    table = Table(
        title=f"velocity estimation, true v = {VELOCITY}",
        headers=[
            "separation",
            "estimate",
            "rel. error",
            "skew budget for 1%",
        ],
        caption="budget = skew that still allows 1% accuracy; it grows "
        "linearly with separation — the acceptable skew is a gradient.",
    )
    for separation in (1, 2, 4, 8, 16, 32):
        estimate = track_velocity(
            execution,
            0,
            separation,
            velocity=VELOCITY,
            start_time=DURATION * 0.4,
        )
        table.add_row(
            separation,
            estimate.estimated_velocity,
            estimate.relative_error,
            required_skew_for_accuracy(separation, VELOCITY),
        )
    print(table.render())
    print(
        "\nSame clocks, same skew — but the farther apart the sensors, "
        "the longer the traversal and the smaller the relative error. "
        "Tight synchronization is only needed *nearby*: gradient clock "
        "synchronization is exactly the right abstraction."
    )


if __name__ == "__main__":
    main()
