"""E05 — Lemma 6.1 (Add Skew), quantitatively verified.

Each (algorithm, span) cell is an independent construction, so the grid
runs through the sweep engine as ``add-skew-cell`` jobs: serial by
default, fanned across a worker pool with ``workers > 1``, identical
numbers either way.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro._constants import tau as tau_of
from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sweep import Job, algorithm_from_spec, job_kind, run_jobs
from repro.topology.generators import line

__all__ = ["run"]


@job_kind("add-skew-cell")
def add_skew_cell(params: Mapping[str, Any]) -> dict:
    """One Add Skew application: build alpha, warp to beta, verify claims."""
    algorithm = algorithm_from_spec(params["algorithm"])
    span = int(params["span"])
    rho = float(params["rho"])
    seed = int(params["seed"])
    tau = tau_of(rho)
    n = span + 1
    topology = line(n)
    schedule = AdversarySchedule.quiet(topology.nodes, tau * span)
    alpha = schedule.run(topology, algorithm, rho=rho, seed=seed)
    plan = AddSkewPlan(
        i=0, j=span, n=n, alpha_duration=schedule.duration, rho=rho, lead="lo"
    )
    beta_schedule = apply_add_skew(schedule, plan)
    beta = beta_schedule.run(topology, algorithm, rho=rho, seed=seed)
    assert_indistinguishable_prefix(alpha, beta)
    summary = verify_add_skew_claims(alpha, beta, plan)
    delays_ok = beta.delays_within(0.25, 0.75, received_from=plan.window_start)
    # The attacked pair's full skew trajectory in beta, answered from one
    # batched trajectory matrix (the cell's measurement path).
    peak_pair = float(SkewField(beta, step=1.0).pair_series(0, span).max())
    return {  # repro: allow[REG004] add-skew-cell: a declared non-cell job kind
        "algorithm": params["algorithm"],
        "algorithm_name": algorithm.name,
        "span": span,
        "gain": float(summary["gain"]),
        "guaranteed_gain": float(summary["guaranteed_gain"]),
        "window_shrink": float(summary["window_shrink"]),
        "peak_pair_skew": peak_pair,
        "indistinguishable": True,  # assert above raises otherwise
        "delays_ok": bool(delays_ok),
    }


def run(
    scale: Scale = "quick", *, rho: float = 0.5, seed: int = 0, workers: int = 1
) -> ExperimentResult:
    spans = pick(scale, [2, 4, 8], [2, 4, 8, 16, 32])
    algorithms = ["max-based", "averaging", "bounded-catch-up"]
    jobs = [
        Job(
            kind="add-skew-cell",
            params={
                "algorithm": algorithm,
                "span": span,
                "rho": rho,
                "seed": seed,
            },
        )
        for algorithm in algorithms
        for span in spans
    ]
    outcomes = run_jobs(jobs, workers=workers)

    table = Table(
        title="E05: one Add Skew application per (algorithm, span)",
        headers=[
            "algorithm",
            "span j-i",
            "gain",
            "guarantee (j-i)/12",
            "T - T'",
            "peak |skew|",
            "indist.",
            "delays in [d/4,3d/4]",
        ],
        caption=(
            "Lemma 6.1: gain >= (j-i)/12, window shrink >= (j-i)/6, "
            "beta indistinguishable from alpha, delays within bounds."
        ),
    )
    for outcome in outcomes:
        m = outcome.metrics
        table.add_row(
            m["algorithm_name"],
            m["span"],
            m["gain"],
            m["guaranteed_gain"],
            m["window_shrink"],
            m["peak_pair_skew"],
            "yes" if m["indistinguishable"] else "NO",
            "yes" if m["delays_ok"] else "NO",
        )
    return ExperimentResult(
        experiment_id="E05",
        title="Add Skew lemma, claims 6.2-6.5 verified numerically",
        paper_artifact="Lemma 6.1 and Claims 6.2-6.5",
        tables=[table],
        data={"spans": spans},
    )
