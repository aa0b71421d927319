#!/usr/bin/env python
"""A random sensor field: the gradient in its natural habitat.

Footnote 2 of the paper motivates treating Euclidean distance as delay
uncertainty: multi-hop paths between far-apart sensors accumulate
uncertainty proportional to their separation.  This example builds a
random geometric sensor field, runs the algorithm suite, and prints
each algorithm's empirical gradient profile binned by distance — the
skew-vs-distance picture the whole paper is about, on the kind of
network (a sensor deployment) the introduction targets.

Run:  python examples/sensor_field.py
"""

from collections import defaultdict

from repro.analysis import Table
from repro.sweep import Scenario, topology_from_spec

RHO = 0.15
DURATION = 90.0
BINS = (2.0, 4.0, 8.0, 16.0, 1e9)


def binned_profile(execution) -> dict[float, float]:
    """Max skew per distance bin (upper edges in BINS)."""
    worst: dict[float, float] = defaultdict(float)
    snapshots = [
        execution.logical_snapshot(t) for t in execution.sample_times(5.0)
    ]
    for i, j in execution.topology.pairs():
        d = execution.topology.distance(i, j)
        edge = next(b for b in BINS if d <= b)
        for snap in snapshots:
            worst[edge] = max(worst[edge], abs(snap[i] - snap[j]))
    return dict(worst)


def main() -> None:
    field = topology_from_spec("geometric:40,5")
    print(
        f"sensor field: {field.n} nodes, diameter {field.diameter:.1f} "
        f"(delay-uncertainty units), max degree {field.max_degree}\n"
    )
    headers = ["algorithm"] + [
        f"d<={b:g}" if b < 1e9 else f"d>{BINS[-2]:g}" for b in BINS
    ]
    table = Table(
        title="max skew per distance bin (the empirical gradient)",
        headers=headers,
        caption="nearby pairs stay tight, faraway pairs drift — the "
        "gradient property in a realistic deployment",
    )
    for algorithm in (
        "null",
        "max-based:0.5",
        "slewing-max:0.5",
        "bounded-catch-up:0.5,0.5,0.5",
    ):
        execution = Scenario(
            topology="geometric:40,5", algorithm=algorithm, rates="drifted",
            delays="uniform", duration=DURATION, rho=RHO, seed=5,
        ).simulate()
        execution.check_validity()
        profile = binned_profile(execution)
        table.add_row(
            algorithm.partition(":")[0], *(profile.get(b, 0.0) for b in BINS)
        )
    print(table.render())


if __name__ == "__main__":
    main()
