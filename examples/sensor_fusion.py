#!/usr/bin/env python
"""Data fusion over a sensor tree (the paper's first motivating app).

A three-level sensor tree timestamps physical events with logical
clocks; parents fuse children's reports only when their timestamps agree
within a tolerance.  The example compares an unsynchronized network, the
max-based algorithm, and the gradient candidate, showing how sibling
(nearby-node) synchronization decides fusion quality — the paper's
locality argument in action.

Run:  python examples/sensor_fusion.py
"""

from repro.analysis import Table
from repro.apps.fusion import evaluate_fusion, fusion_groups
from repro.sweep import Scenario, topology_from_spec

RHO = 0.1
DURATION = 90.0


def main() -> None:
    tree = "tree:3,2"  # 13 sensors: root, 3 relays, 9 leaves
    topology = topology_from_spec(tree)
    groups = fusion_groups(topology, root=0)
    print(
        f"sensor tree: {topology.n} nodes, {len(groups)} fusion groups "
        f"(parents with >= 2 children)\n"
    )

    table = Table(
        title="mis-fusion rate by algorithm and tolerance",
        headers=["algorithm", "tol 0.25", "tol 0.5", "tol 1.0", "worst spread"],
        caption="fraction of (event, group) pairs whose sibling timestamps "
        "disagreed by more than the tolerance",
    )
    for algorithm in ("null", "max-based:0.5", "bounded-catch-up:0.5,0.5,0.5"):
        execution = Scenario(
            topology=tree, algorithm=algorithm, rates="drifted",
            delays="uniform", duration=DURATION, rho=RHO, seed=11,
        ).simulate()
        execution.check_validity()
        rates = []
        worst = 0.0
        for tolerance in (0.25, 0.5, 1.0):
            report = evaluate_fusion(
                execution,
                tolerance=tolerance,
                n_events=60,
                warmup=DURATION * 0.2,
                seed=11,
            )
            rates.append(report.misfusion_rate)
            worst = max(worst, report.worst_spread)
        table.add_row(algorithm.partition(":")[0], *rates, worst)
    print(table.render())
    print(
        "\nTakeaway: siblings are *nearby* nodes — an algorithm with a "
        "good gradient at small distances fuses correctly even while "
        "far-apart subtrees disagree."
    )


if __name__ == "__main__":
    main()
