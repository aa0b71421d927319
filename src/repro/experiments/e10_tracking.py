"""E10 — target tracking: acceptable skew grows with distance."""

from __future__ import annotations

from repro.analysis.reporting import Table
from repro.apps.tracking import required_skew_for_accuracy, track_velocity
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.sweep import Scenario

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.05, seed: int = 0) -> ExperimentResult:
    """Velocity estimation error vs node separation.

    With skew roughly flat in distance (a synced network), relative
    error falls as ``1/separation`` — equivalently the skew *budget* for
    1% accuracy grows linearly: the introduction's gradient argument.
    """
    n = pick(scale, 17, 33)
    separations = [s for s in (1, 2, 4, 8, 16, 32) if s < n]
    velocity = 0.5
    duration = pick(scale, 80.0, 160.0)
    algorithms = ["max-based:0.5", "bounded-catch-up:0.5,0.5,0.5"]
    table = Table(
        title="E10: velocity estimate error vs separation",
        headers=[
            "algorithm",
            "separation",
            "pair skew",
            "rel. error",
            "meets 1%",
            "skew budget for 1%",
        ],
        caption=(
            "v = d/t with logical timestamps; the last column is the "
            "paper's acceptable-skew gradient (linear in d)."
        ),
    )
    series: dict[str, dict[int, float]] = {}
    for spec in algorithms:
        execution = Scenario(
            topology=f"line:{n}", algorithm=spec, rates="drifted",
            delays="uniform", duration=duration, rho=rho, seed=seed,
        ).simulate()
        name = spec.partition(":")[0]
        series[name] = {}
        for sep in separations:
            # Average several passes at different times to denoise.
            starts = [duration * frac for frac in (0.3, 0.4, 0.5)]
            estimates = [
                track_velocity(
                    execution, 0, sep, velocity=velocity, start_time=s
                )
                for s in starts
            ]
            mean_error = sum(e.relative_error for e in estimates) / len(estimates)
            mean_skew = sum(abs(e.pair_skew) for e in estimates) / len(estimates)
            meets = mean_error <= 0.01
            budget = required_skew_for_accuracy(sep, velocity)
            table.add_row(
                name,
                sep,
                mean_skew,
                mean_error,
                "yes" if meets else "no",
                budget,
            )
            series[name][sep] = mean_error
    return ExperimentResult(
        experiment_id="E10",
        title="target tracking: error tolerance forms a gradient",
        paper_artifact="Section 1, target tracking motivation",
        tables=[table],
        data={"series": series, "velocity": velocity},
    )
