"""E09 — data fusion: sibling skew decides fusion correctness."""

from __future__ import annotations

from repro.analysis.reporting import Table
from repro.apps.fusion import evaluate_fusion
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.sweep import Scenario

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.1, seed: int = 0) -> ExperimentResult:
    """Fusion over a sensor tree with drifting clocks.

    Siblings are nearby nodes; algorithms with small near-distance skew
    fuse almost everything, the unsynchronized baseline almost nothing
    once drift exceeds the tolerance.
    """
    branching, height = pick(scale, (3, 2), (3, 3))
    duration = pick(scale, 60.0, 120.0)
    tolerances = pick(scale, [0.5, 1.0, 2.0], [0.25, 0.5, 1.0, 2.0, 4.0])
    algorithms = ["null", "max-based:0.5", "bounded-catch-up:0.5,0.5,0.5"]
    table = Table(
        title="E09: mis-fusion rate vs tolerance (sensor tree)",
        headers=[
            "algorithm",
            "tolerance",
            "misfusion rate",
            "worst sibling spread",
            "mean spread",
        ],
        caption=(
            f"balanced tree b={branching} h={height}, rho={rho}; one event "
            "is fused correctly iff sibling timestamps agree within the "
            "tolerance."
        ),
    )
    series: dict[str, dict[float, float]] = {}
    for spec in algorithms:
        execution = Scenario(
            topology=f"tree:{branching},{height}", algorithm=spec,
            rates="drifted", delays="uniform", duration=duration, rho=rho,
            seed=seed,
        ).simulate()
        name = spec.partition(":")[0]
        series[name] = {}
        for tolerance in tolerances:
            report = evaluate_fusion(
                execution,
                tolerance=tolerance,
                n_events=40,
                warmup=duration * 0.25,
                seed=seed,
            )
            table.add_row(
                name,
                tolerance,
                report.misfusion_rate,
                report.worst_spread,
                report.mean_spread,
            )
            series[name][tolerance] = report.misfusion_rate
    return ExperimentResult(
        experiment_id="E09",
        title="data fusion needs nearby-node synchronization",
        paper_artifact="Section 1, data fusion motivation",
        tables=[table],
        data={"series": series},
    )
