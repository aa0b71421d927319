"""E16 — mobility: the gradient property under a changing network.

The paper bounds skew between two nodes by a function of their
*current* distance — a claim whose content shows only when distances
change.  This experiment opens the mobility axis in two parts:

1. **Speed ladder** (through the sweep engine's ``mobility`` axis):
   random-waypoint mobility at several speeds against a folklore-style
   global-sync algorithm (max-based), the gradient candidate
   (bounded-catch-up), and averaging, each next to its static baseline.
   Faster rewiring hurts dead-reckoned neighbor state more than
   max-propagation, and the ladder shows by how much.
2. **Re-convergence after rewiring**: the ``interleave`` mobility family
   on a line (its node order is interleaved mid-run, so every
   neighborhood re-forms at once).  For each algorithm the table reports
   the pre-change adjacent skew, the spike when new neighbors meet, and
   the time the adjacent series takes to re-tighten below its pre-change
   band — while :func:`repro.gcs.properties.check_gradient` evaluates
   Requirement 2 against the *time-varying* pairwise distances.

Beyond the paper; determinism contract: identical tables at any worker
count (the sweep engine guarantees part 1, part 2 is a fixed set of
single runs; a test enforces both).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    pick,
    seed_mean_ladder,
)
from repro.gcs.properties import GradientBound, check_gradient
from repro.sweep import Scenario, SweepSpec, run_jobs

__all__ = ["run", "SPEED_LADDER"]

#: The mobility-intensity ladder, stillness to fast drift (speeds in
#: distance units per real-time unit; snapshots every 4 time units).
#: ``waypoint:0,4`` is the ladder's anchor: the *same* random placement
#: as the moving rungs, sampled at the same instants, but frozen — so
#: the 'x still' degradation column compares motion against stillness on
#: identical geometry.  ``static`` keeps the frozen cell topology for
#: reference.
SPEED_LADDER = (
    "static",
    "waypoint:0,4",
    "waypoint:0.25,4",
    "waypoint:0.5,4",
    "waypoint:1,4",
    "waypoint:2,4",
)


def run(
    scale: Scale = "quick", *, rho: float = 0.2, seed: int = 0, workers: int = 1
) -> ExperimentResult:
    """Sweep mobility speeds against algorithms, then measure
    re-convergence after one all-at-once rewiring."""
    # ------------------------------------------------------------------
    # part 1: the speed ladder, through the sweep engine
    topologies = pick(scale, ["geometric:12,3"], ["geometric:16,3", "geometric:24,5"])
    algorithms = ["max-based", "bounded-catch-up", "averaging"]
    ladder = pick(
        scale,
        ["static", "waypoint:0,4", "waypoint:0.5,4", "waypoint:1,4"],
        list(SPEED_LADDER),
    )
    seeds = pick(scale, [seed], [seed, seed + 1, seed + 2])
    duration = pick(scale, 24.0, 60.0)
    spec = SweepSpec(
        name=f"e16-{scale}",
        topologies=tuple(topologies),
        algorithms=tuple(algorithms),
        rate_families=("drifted",),
        delay_policies=("uniform",),
        mobilities=tuple(ladder),
        seeds=tuple(int(s) for s in seeds),
        duration=duration,
        rho=rho,
    )
    outcomes = run_jobs(spec.jobs(), workers=workers)

    ladder_table = Table(
        title="E16: skew vs mobility speed (random waypoint)",
        headers=[
            "topology",
            "algorithm",
            "mobility",
            "max_skew",
            "final_skew",
            "final_adj",
            "x still",
            "rewirings",
        ],
        caption=(
            "Mean over seeds; 'x still' is final_skew relative to the "
            "same cell's waypoint:0 run (identical geometry, no "
            "motion).  'waypoint:v,i' drifts nodes at speed v with a "
            "snapshot every i time units; each snapshot swaps the "
            "distance/adjacency tables atomically.  'static' keeps the "
            "frozen cell topology for reference."
        ),
    )
    still = "waypoint:0,4" if "waypoint:0,4" in ladder else "static"
    curves = seed_mean_ladder(
        ladder_table, outcomes, topologies=topologies, algorithms=algorithms,
        axis="mobility", rungs=ladder, baseline=still, count="rewirings",
    )

    # ------------------------------------------------------------------
    # part 2: re-convergence after one all-at-once rewiring
    n = pick(scale, 9, 13)
    total = pick(scale, 40.0, 80.0)
    change_at = total / 2.0
    bound = GradientBound.linear(2.0 * rho, 1.0)

    reconv_table = Table(
        title="E16: re-convergence after rewiring (two-phase line)",
        headers=[
            "algorithm",
            "pre adj",
            "peak adj",
            "peak at",
            "re-tight at",
            "re-tightened",
            "f-violations",
        ],
        caption=(
            f"At t={change_at:g} the line's node order is interleaved: "
            "every neighborhood re-forms at once.  'pre adj' is the "
            "worst adjacent skew in the window before the change, "
            "'re-tight at' the first sample after which the adjacent "
            "series stays back inside 1.25x that band.  'f-violations' "
            "counts check_gradient hits against f(d)="
            f"{bound.label} with d read from the topology live at each "
            "sample."
        ),
    )
    reconvergence: dict[str, dict] = {}
    for name in algorithms:
        execution = Scenario(
            topology=f"line:{n}", algorithm=name, rates="drifted",
            delays="uniform", mobility="interleave:0.5", duration=total,
            rho=rho, seed=seed,
        ).simulate()
        field = SkewField(execution, execution.sample_times(0.25))
        series = field.max_adjacent_series()
        times = field.times
        pre_mask = (times >= change_at - 8.0) & (times < change_at)
        pre = float(series[pre_mask].max())
        post = np.nonzero(times >= change_at)[0]
        peak_idx = post[int(series[post].argmax())]
        threshold = max(1.25 * pre, pre + 0.05)
        exceeding = post[series[post] > threshold + 1e-9]
        if exceeding.size == 0:
            resettle: float | None = float(times[post[0]])
        elif int(exceeding[-1]) + 1 < times.size:
            resettle = float(times[int(exceeding[-1]) + 1])
        else:
            resettle = None
        # Same 0.25-step grid as every other column in this row (and
        # check_gradient reuses its sample times instead of rebuilding
        # a coarser SkewField).
        violations = check_gradient(execution, bound, times=field.times)
        reconv_table.add_row(
            name,
            round(pre, 3),
            round(float(series[peak_idx]), 3),
            round(float(times[peak_idx]), 2),
            "-" if resettle is None else round(resettle, 2),
            "yes" if resettle is not None else "NO",
            len(violations),
        )
        reconvergence[name] = {
            "pre": pre,
            "peak": float(series[peak_idx]),
            "peak_at": float(times[peak_idx]),
            "resettle": resettle,
            "violations": len(violations),
        }

    return ExperimentResult(
        experiment_id="E16",
        title="mobility & dynamic topologies (beyond the paper's model)",
        paper_artifact=(
            "none — animates Section 3's distances, which the paper "
            "holds frozen"
        ),
        tables=[ladder_table, reconv_table],
        notes=[
            f"{len(outcomes)} sweep jobs over the mobility axis "
            f"({len(ladder)} mobility families), workers={workers}",
            "part 2 evaluates Requirement 2 against time-varying "
            "distances (see repro.gcs.properties.check_gradient)",
        ],
        data={
            "spec": spec.name,
            "ladder": list(ladder),
            "curves": curves,
            "reconvergence": reconvergence,
        },
        figures=[
            {
                "table": 0,
                "x": "mobility",
                "y": ["max_skew", "final_skew", "final_adj"],
                "kind": "bar",
                "title": "E16: skew vs mobility speed",
            }
        ],
    )
