"""E13 — robustness: skew degradation under faults and churn.

The paper's model (Section 3) assumes a reliable network and
non-crashing nodes; this experiment measures what its algorithms do
when that assumption is dropped.  A fault-intensity ladder — message
loss, duplication, reordering, crash-stop, crash-recovery, link churn —
is swept against algorithm x topology through the sweep engine's
``benign-run`` jobs (the fault axis of :class:`~repro.sweep.SweepSpec`),
and every faulted cell is reported next to its fault-free baseline as a
degradation factor.  Gradient-style algorithms and global-skew ones
separate exactly here: dead-reckoned neighbor estimates go stale under
loss and churn, while max-propagation only needs *some* path to stay up.

Beyond the paper; determinism contract: identical tables at any worker
count (the sweep engine guarantees it, and a test enforces it).
"""

from __future__ import annotations

from repro.analysis.reporting import Table
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    pick,
    seed_mean_ladder,
)
from repro.sweep import SweepSpec, run_jobs

__all__ = ["run", "FAULT_LADDER"]

#: The fault-intensity ladder, mildest to harshest.  ``none`` anchors
#: the degradation baseline for every (topology, algorithm) pair.
FAULT_LADDER = (
    "none",
    "loss:0.1",
    "loss:0.3",
    "duplicate:0.2",
    "reorder:0.5",
    "crash:0.25",
    "crash-recover:0.25,6",
    "churn:0.25,5",
)


def run(
    scale: Scale = "quick", *, rho: float = 0.2, seed: int = 0, workers: int = 1
) -> ExperimentResult:
    """Sweep the fault-intensity ladder against algorithm x topology and
    report skew degradation relative to each fault-free baseline."""
    topologies = pick(
        scale, ["line:7", "ring:8"], ["line:13", "ring:12", "grid:4,4"]
    )
    algorithms = ["max-based", "bounded-catch-up", "averaging", "slewing-max"]
    ladder = pick(
        scale,
        ["none", "loss:0.1", "loss:0.3", "crash-recover:0.25,6", "churn:0.25,5"],
        list(FAULT_LADDER),
    )
    seeds = pick(scale, [seed], [seed, seed + 1, seed + 2])
    spec = SweepSpec(
        name=f"e13-{scale}",
        topologies=tuple(topologies),
        algorithms=tuple(algorithms),
        rate_families=("drifted",),
        delay_policies=("uniform",),
        fault_families=tuple(ladder),
        seeds=tuple(int(s) for s in seeds),
        duration=pick(scale, 25.0, 60.0),
        rho=rho,
    )
    outcomes = run_jobs(spec.jobs(), workers=workers)

    table = Table(
        title="E13: skew degradation under fault intensity",
        headers=[
            "topology",
            "algorithm",
            "fault",
            "max_skew",
            "final_skew",
            "final_adj",
            "x baseline",
            "msgs",
        ],
        caption=(
            "Mean over seeds; 'x baseline' is final_skew relative to the "
            "same cell's fault-free ('none') run.  Crash-stop cells keep "
            "dead nodes in the skew metrics, so their degradation "
            "measures how far a dead clock drifts."
        ),
    )
    curves = seed_mean_ladder(
        table, outcomes, topologies=topologies, algorithms=algorithms,
        axis="faults", rungs=ladder, baseline="none", count="messages",
    )
    return ExperimentResult(
        experiment_id="E13",
        title="robustness under faults & churn (beyond the paper's model)",
        paper_artifact="none — drops the Section 3 reliability assumptions",
        tables=[table],
        notes=[
            f"{len(outcomes)} sweep jobs over the fault axis "
            f"({len(ladder)} fault families), workers={workers}"
        ],
        data={"spec": spec.name, "ladder": list(ladder), "curves": curves},
        figures=[
            {
                "table": 0,
                "x": "fault",
                "y": ["max_skew", "final_skew", "final_adj"],
                "kind": "bar",
                "title": "E13: skew degradation up the fault ladder",
            }
        ],
    )
