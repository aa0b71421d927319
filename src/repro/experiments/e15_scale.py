"""E15 — gradient profiles at scale (beyond the paper's evaluation).

The paper's gradient property is about the *shape* of skew as a
function of distance, but profiles at production diameters were out of
reach while every measurement cost ``O(T n^2)`` scalar clock lookups:
the experiments stopped near ``D = 128``.  With the vectorized
:class:`~repro.analysis.field.SkewField` the full ``f(d)`` of a
multi-hundred-diameter network is one trajectory-matrix build plus array
arithmetic — which moved the bottleneck to the simulation itself.  The
simulator's batched event loop (held byte-identical to the naive
reference loop by ``tests/test_engine_equivalence.py``) moves it back:
this experiment runs each cell — a :class:`~repro.sweep.Scenario` of
the ``bounded-catch-up`` candidate, simulated untraced (the at-scale
configuration) — over line / grid / random-geometric topologies past
``D = 512``, reporting both the profiles and the cost split (seconds in
``Scenario.simulate`` vs. field build + query seconds per cell).
"""

from __future__ import annotations

import time

from repro.analysis.field import SkewField
from repro.analysis.gradient_profile import fit_linear
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.sweep import Scenario

__all__ = ["run"]


def run(
    scale: Scale = "quick",
    *,
    rho: float = 0.2,
    seed: int = 0,
) -> ExperimentResult:
    """Profile the gradient candidate across diameters in the hundreds.

    Expected shape: per cell, the empirical ``f(d)`` rises with distance
    and both measurement and simulation cost stay tractable out to
    ``D = 768``.
    """
    diameters = pick(scale, [32, 64, 128], [32, 64, 128, 256, 512, 768])
    duration = pick(scale, 20.0, 30.0)
    # Each family is built to hit a target diameter ``D``: the line has
    # ``D + 1`` nodes, the 4-row grid ``4 (D - 2)``, and the geometric
    # field uses ``D`` nodes (its realized diameter is measured).
    cells = (
        [("line", d, f"line:{d + 1}") for d in diameters]
        + [("grid", d, f"grid:4,{d - 2}") for d in diameters]
        + [("geometric", d, f"geometric:{d},{seed}") for d in diameters]
    )
    table = Table(
        title="E15: gradient profiles at scale (batched analysis path)",
        headers=[
            "topology",
            "D target",
            "D actual",
            "n",
            "samples",
            "sim s",
            "field s",
            "query s",
            "f(d_min)",
            "f(d_med)",
            "f(d_max)",
            "fit a*d+b",
        ],
        caption=(
            "One drifted benign run per cell; 'field s' builds the n x T "
            "trajectory matrix, 'query s' answers the profile, summary, "
            "and adjacent-skew series from it.  f is reported at the "
            "smallest, median, and largest distinct pair distances (for "
            "the geometric family d_min is 1 by normalization but "
            "d_max is the realized diameter, not the target)."
        ),
    )
    profiles: dict[str, dict[float, float]] = {}
    timings: dict[str, dict[str, float]] = {}
    for family, diameter, spec in cells:
        sim_start = time.perf_counter()
        # Untraced, like every ``simulate()``: each measurement below
        # reads clocks, not the trace.
        execution = Scenario(
            topology=spec, algorithm="bounded-catch-up", rates="drifted",
            delays="uniform", duration=duration, rho=rho, seed=seed,
        ).simulate()
        sim_s = time.perf_counter() - sim_start
        topology = execution.topology

        build_start = time.perf_counter()
        field = SkewField(execution, step=0.5)
        field_s = time.perf_counter() - build_start

        query_start = time.perf_counter()
        profile = field.gradient_profile()
        field.summary()
        field.max_adjacent_series()
        query_s = time.perf_counter() - query_start

        actual = topology.diameter
        fit = fit_linear(profile)
        distances = sorted(profile)
        mid = distances[len(distances) // 2]
        cell = f"{family}:{diameter}"
        profiles[cell] = profile
        timings[cell] = {
            "sim_s": sim_s,
            "field_s": field_s,
            "query_s": query_s,
            "n": topology.n,
            "samples": field.n_samples,
        }
        table.add_row(
            topology.name,
            diameter,
            actual,
            topology.n,
            field.n_samples,
            round(sim_s, 3),
            round(field_s, 4),
            round(query_s, 4),
            profile[distances[0]],
            profile[mid],
            profile[distances[-1]],
            f"{fit.slope:.3f}*d+{fit.intercept:.3f}",
        )
    return ExperimentResult(
        experiment_id="E15",
        title="gradient profiles at scale (vectorized analysis core)",
        paper_artifact=(
            "none — scales the Section 4 gradient-profile measurement "
            "beyond the paper's diameters"
        ),
        tables=[table],
        notes=[
            "Every profile is answered from one n x T trajectory matrix "
            "(SkewField); the scalar value_at path is O(T n^2) bisects "
            "and capped earlier experiments near D = 128.",
            "Simulation ran with tracing off; the batched event loop is "
            "byte-identical to the reference loop "
            "(tests/test_engine_equivalence.py) and lifted the sim-side "
            "cap near D = 512.",
        ],
        data={
            "profiles": profiles,
            "timings": timings,
            "diameters": diameters,
        },
    )
