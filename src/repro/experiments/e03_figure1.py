"""E03 — Figure 1: the staggered rate-gamma windows of execution beta.

Applies one Add Skew plan to the quiet schedule, runs the resulting
:class:`~repro.gcs.schedule.AdversarySchedule`, and reads the windows
back from it.
"""

from __future__ import annotations

from repro._constants import tau as tau_of
from repro.algorithms import MaxBasedAlgorithm
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew
from repro.gcs.schedule import AdversarySchedule
from repro.topology.generators import line

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.5, seed: int = 0) -> ExperimentResult:
    """Regenerate Figure 1's data: per-node knee times ``T_k``.

    The figure shows nodes ``1..D`` with thick bars marking when each
    runs at rate gamma: node ``k`` runs gamma for ``tau/gamma`` longer
    than node ``k+1`` along the ramp ``i < k < j``.  We build an actual
    plan, apply it, and read the windows back from the *resulting
    schedule* (not the formulas), so the table is measured output.
    """
    n = pick(scale, 10, 14)
    tau = tau_of(rho)
    i, j = 1, n - 2
    schedule = AdversarySchedule.quiet(range(n), tau * (j - i))
    plan = AddSkewPlan(
        i=i, j=j, n=n, alpha_duration=schedule.duration, rho=rho, lead="lo"
    )
    beta_schedule = apply_add_skew(schedule, plan)
    # Run it so the schedule is exercised, not just printed.
    beta = beta_schedule.run(line(n), MaxBasedAlgorithm(), rho=rho, seed=seed)
    beta.check_drift_bounds()
    windows = plan.gamma_windows()
    measured_rates = []
    for node in range(n):
        knee, end = windows[node]
        measured_rates.append(
            float(beta_schedule.rates[node].rate_at((knee + end) / 2.0))
            if end - knee > 1e-9
            else 1.0
        )

    table = Table(
        title="E03: Figure 1 — rate-gamma window per node",
        headers=["node k", "T_k (knee)", "window end T'", "gamma span", "measured rate"],
        caption=(
            f"i={plan.i}, j={plan.j}, S={plan.window_start:g}, "
            f"T={plan.window_end:g}, T'={plan.beta_end:g}, "
            f"gamma={plan.gamma:.4f}; successive ramp knees differ by "
            f"tau/gamma = {tau / plan.gamma:.4f}."
        ),
    )
    ascii_rows = []
    for node in range(n):
        knee, end = windows[node]
        span = max(end - knee, 0.0)
        table.add_row(node, knee, end, span, measured_rates[node])
        # ASCII rendition of the figure itself.
        scale_len = 40
        t0 = plan.window_start
        total = plan.window_end - t0
        a = int((knee - t0) / total * scale_len)
        b = int((end - t0) / total * scale_len)
        ascii_rows.append(f"  node {node:2d} |" + "." * a + "#" * (b - a) + "." * (scale_len - b))

    figure = Table(
        title="E03: Figure 1 (ASCII; '#' = running at rate gamma)",
        headers=["bar"],
        caption="Compare with the paper's Figure 1: a staircase of windows.",
    )
    for row in ascii_rows:
        figure.add_row(row)
    return ExperimentResult(
        experiment_id="E03",
        title="Figure 1: hardware rate schedule of beta",
        paper_artifact="Figure 1 (the paper's only figure)",
        tables=[table, figure],
        data={"windows": windows, "gamma": plan.gamma},
    )
