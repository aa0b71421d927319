"""The paper's definitions as checkable properties (Sections 3-4).

* Assumption 1 — bounded drift (checked by construction and re-checked
  on executions);
* Requirement 1 — validity: every logical clock gains at least ``r/2``
  over every interval of length ``r`` (checked exactly, on breakpoints);
* Requirement 2 — the f-gradient property: ``|L_i(t) - L_j(t)| <=
  f(d_ij)`` for all pairs at all times.

``f`` is any nondecreasing function; :class:`GradientBound` wraps common
shapes (linear ``a*d + b``, the conjectured ``O(d + log D)``, a constant)
and :func:`check_gradient` evaluates Requirement 2 on an execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.analysis.field import SkewField
from repro.sim.execution import Execution

__all__ = [
    "GradientBound",
    "GradientViolation",
    "check_validity",
    "check_gradient",
    "empirical_f",
]


@dataclass(frozen=True)
class GradientBound:
    """A nondecreasing ``f`` for the f-GCS property, with a label."""

    fn: Callable[[float], float]
    label: str

    def __call__(self, d: float) -> float:
        return self.fn(d)

    @classmethod
    def linear(cls, slope: float, intercept: float = 0.0) -> "GradientBound":
        """``f(d) = slope * d + intercept``."""
        return cls(lambda d: slope * d + intercept, f"{slope}*d+{intercept}")

    @classmethod
    def conjectured(  # repro: allow[DEAD001] frozen e2e workloads_analyze
        cls, diameter: float, slope: float = 1.0
    ) -> "GradientBound":
        """Section 9's conjecture shape: ``f(d) = slope * (d + log D)``."""
        log_d = math.log(max(diameter, 1.0))
        return cls(
            lambda d: slope * (d + log_d), f"{slope}*(d+log {diameter:g})"
        )

    @classmethod
    def constant(cls, value: float) -> "GradientBound":
        """A distance-independent cap (what TDMA-style applications want)."""
        return cls(lambda d: value, f"const {value}")


@dataclass(frozen=True)
class GradientViolation:
    """A witnessed violation of Requirement 2."""

    i: int
    j: int
    time: float
    skew: float
    distance: float
    bound: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"|L_{self.i} - L_{self.j}| = {self.skew:.4f} at t={self.time:.3f} "
            f"exceeds f({self.distance:g}) = {self.bound:.4f}"
        )


#: Pair-sample differences ``check_gradient`` holds in memory at once
#: while it computes exact peaks for the pairs the spread screen keeps.
_PEAK_CHUNK = 1 << 16


def check_validity(execution: Execution, *, rate: float = 0.5) -> None:
    """Requirement 1 over the whole execution, checked exactly on every
    clock's breakpoints; raises :class:`~repro.errors.ValidityError`."""
    execution.check_validity(rate=rate)


def check_gradient(
    execution: Execution,
    bound: GradientBound,
    *,
    times: Iterable[float] | None = None,
) -> list[GradientViolation]:
    """Evaluate Requirement 2; return all violations found (empty = holds).

    Requirement 2 is still *sampled*, at ``times`` (default: unit grid):
    skew is piecewise linear in time, but a peak just before a jump can
    fall between samples, so a pass here is not a certificate — only
    the violations it reports are witnessed exactly.  Requirement 1, by
    contrast, is checked exactly on every clock's breakpoints
    (:func:`check_validity`).

    Evaluated from one batched :class:`~repro.analysis.field.SkewField`,
    one topology segment at a time, with ``bound(d)`` evaluated once per
    distinct distance (:meth:`~repro.topology.base.Topology.distance_classes`).
    A pair is screened by the segment's column spread first: float
    subtraction rounds monotonically, so in every column
    ``|fl(L_i - L_j)| <= fl(max - min)``, and a pair whose threshold
    ``bound(d) + 1e-9`` is not below the largest spread cannot be over
    it.  Only the remaining pairs get an exact peak ``max_t |L_j - L_i|``
    (gathered in chunks; the ``n x n``
    :meth:`~repro.analysis.field.SkewField.peak_pairs` is never built
    here), and only a pair whose peak exceeds its threshold is walked
    sample by sample.  The screen drops no violation and adds
    none, and violations come in the scalar path's time-major order.

    On dynamic-topology executions the bound is evaluated against the
    **time-varying** pairwise distance: each sample time is charged
    ``f(d_ij(t))`` for the network live at ``t``
    (:meth:`SkewField.topology_segments`), so a pair that drifts apart
    is allowed proportionally more skew from the moment it is farther —
    exactly the gradient property's reading of mobility.  Witnessed
    violations carry the distance and limit that were in force at their
    instant.
    """
    times = list(times) if times is not None else execution.sample_times()
    field = SkewField(execution, times)
    # Row-major upper triangle: a pair's position here is its rank in
    # ``topology.pairs()``, the tie-break within one sample time.
    upper_i, upper_j = np.triu_indices(field.n, 1)
    spread = field.max_skew_series()
    hits: list[tuple[int, int, GradientViolation]] = []
    for topology, cols in field.topology_segments():
        distances, group = topology.distance_classes()
        limits = np.array([bound(d) for d in distances.tolist()], dtype=float)
        thresholds = limits[group] + 1e-9
        ranks = np.nonzero(thresholds < spread[cols].max())[0]
        if ranks.size == 0:
            continue
        block = field.columns(cols)
        parts = math.ceil(ranks.size * cols.size / _PEAK_CHUNK)
        peak = np.concatenate([
            np.abs(block[upper_j[part]] - block[upper_i[part]]).max(axis=1)
            for part in np.array_split(ranks, parts)
        ])
        for rank in ranks[peak > thresholds[ranks]].tolist():
            i, j = int(upper_i[rank]), int(upper_j[rank])
            series = field.pair_series(i, j)
            d = topology.distance(i, j)
            limit = bound(d)
            for offset in np.nonzero(series[cols] > limit + 1e-9)[0]:
                k = int(cols[offset])
                hits.append(
                    (
                        k,
                        rank,
                        GradientViolation(
                            i, j, float(times[k]), float(series[k]), d, limit
                        ),
                    )
                )
    hits.sort(key=lambda h: (h[0], h[1]))
    return [violation for _, _, violation in hits]


def empirical_f(
    executions: Iterable[Execution],
    *,
    times_step: float = 1.0,
) -> dict[float, float]:
    """The pointwise-max gradient profile over several executions.

    This is the tightest nondecreasing-in-observation ``f`` the runs
    certify: ``f_hat(d) = max over executions/times/pairs at distance d``.
    """
    profile: dict[float, float] = {}
    for execution in executions:
        for d, skew in SkewField(
            execution, step=times_step
        ).gradient_profile().items():
            if skew > profile.get(d, float("-inf")):
                profile[d] = skew
    # Enforce monotonicity (f must be nondecreasing): cumulative max.
    out: dict[float, float] = {}
    running = 0.0
    for d in sorted(profile):
        running = max(running, profile[d])
        out[d] = running
    return out
