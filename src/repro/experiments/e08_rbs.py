"""E08 — RBS: near-zero uncertainty makes the bound small (Section 2)."""

from __future__ import annotations

from repro._constants import lower_bound_curve
from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.sweep import Scenario

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.1, seed: int = 0) -> ExperimentResult:
    """RBS in a broadcast cluster vs gossip sync over multi-hop.

    The broadcast cluster has pairwise uncertainty ``eps << 1``; RBS
    receivers synchronize to ~eps.  The same number of nodes on a
    multi-hop line has diameter ``n - 1`` and skews orders of magnitude
    larger.  The paper's remark: our bound applies to RBS too, but with
    a tiny diameter it is tiny — growing again as the network expands.
    """
    n = pick(scale, 8, 16)
    duration = pick(scale, 40.0, 80.0)

    cluster_exec = Scenario(
        topology=f"cluster:{n}", algorithm="rbs:2", rates="drifted",
        delays="jitter", duration=duration, rho=rho, seed=seed,
    ).simulate()
    cluster = cluster_exec.topology
    # Worst pairwise skew among the receivers (node 0 is the beacon).
    receivers = SkewField(cluster_exec, step=0.5).values[1:]
    cluster_skew = float((receivers.max(axis=0) - receivers.min(axis=0)).max())

    line_exec = Scenario(
        topology=f"line:{n}", algorithm="max-based", rates="drifted",
        delays="half", duration=duration, rho=rho, seed=seed,
    ).simulate()
    multihop = line_exec.topology
    line_skew = SkewField(line_exec).max_skew()

    table = Table(
        title="E08: RBS broadcast cluster vs multi-hop gossip",
        headers=[
            "setting",
            "nodes",
            "diameter (uncertainty)",
            "peak receiver skew",
            "lower-bound envelope",
        ],
        caption=(
            "RBS turns uncertainty, hence the achievable skew, down to the "
            "jitter scale; the same nodes multi-hop pay the full diameter."
        ),
    )
    table.add_row(
        "RBS cluster",
        n,
        cluster.diameter,
        cluster_skew,
        lower_bound_curve(cluster.diameter),
    )
    table.add_row(
        "line + max gossip",
        n,
        multihop.diameter,
        line_skew,
        lower_bound_curve(multihop.diameter),
    )
    return ExperimentResult(
        experiment_id="E08",
        title="RBS: tiny uncertainty, tiny bound (but not zero)",
        paper_artifact="Section 2, discussion of Elson et al. [2]",
        tables=[table],
        notes=[
            "The RBS cluster deliberately relaxes the min-distance "
            "normalization (DESIGN.md, substitutions).",
        ],
        data={
            "cluster_skew": cluster_skew,
            "line_skew": line_skew,
            "eps": cluster.diameter,
        },
    )
