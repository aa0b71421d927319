"""E11 — model requirements audit: validity, drift, gradient profiles."""

from __future__ import annotations

from repro.algorithms import standard_suite
from repro.analysis.gradient_profile import fit_linear
from repro.analysis.reporting import Table
from repro.errors import ValidityError
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.gcs.properties import GradientBound, check_gradient, empirical_f
from repro.sweep import Scenario

__all__ = ["run"]


def run(scale: Scale = "quick", *, rho: float = 0.3, seed: int = 0) -> ExperimentResult:
    """Audit every algorithm: Requirement 1, Assumption 1, and the
    empirical gradient profile with a linear fit."""
    n = pick(scale, 13, 25)
    duration = pick(scale, 60.0, 120.0)
    diameter = n - 1
    table = Table(
        title="E11: requirements audit under benign drifted executions",
        headers=[
            "algorithm",
            "validity",
            "f(1)",
            "f(D/2)",
            "f(D)",
            "linear fit a*d+b",
            "const-f(1) bound holds",
        ],
        caption=(
            "f columns are the empirical gradient profile; the last column "
            "checks Requirement 2 against f = const f_hat(1) — algorithms "
            "that fail it are not gradient algorithms for any constant f."
        ),
    )
    profiles: dict[str, dict[float, float]] = {}
    # Every suite algorithm's name is its default-parameter spec string.
    for name in (algorithm.name for algorithm in standard_suite()):
        execution = Scenario(
            topology=f"line:{n}", algorithm=name, rates="drifted",
            delays="uniform", duration=duration, rho=rho, seed=seed,
        ).simulate()
        try:
            execution.check_validity()
            validity = "ok"
        except ValidityError:
            validity = "VIOLATED"
        profile = empirical_f([execution])
        profiles[name] = profile
        fit = fit_linear(profile)
        f1 = profile.get(1.0, 0.0)
        fmid = profile.get(float(diameter // 2), 0.0)
        fend = profile.get(float(diameter), 0.0)
        constant_bound = GradientBound.constant(max(f1, 1e-9))
        violations = check_gradient(execution, constant_bound)
        table.add_row(
            name,
            validity,
            f1,
            fmid,
            fend,
            f"{fit.slope:.3f}*d+{fit.intercept:.3f}",
            "yes" if not violations else f"no ({len(violations)} viol.)",
        )
    return ExperimentResult(
        experiment_id="E11",
        title="validity + gradient profile audit of every algorithm",
        paper_artifact="Section 3 (Assumption 1), Section 4 (Requirements 1-2)",
        tables=[table],
        data={"profiles": profiles, "diameter": diameter},
    )
