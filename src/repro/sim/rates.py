"""Piecewise-constant hardware clock rate schedules.

The paper defines a hardware clock by its rate: ``H_i(t) = integral_0^t
h_i(r) dr`` (Section 3).  All adversarial constructions in the paper use
piecewise-constant rates (rate 1 baseline, rate ``gamma`` inside a window),
so a piecewise-constant schedule with *exact* integration and inversion is
the right substrate: no numerical integration error can leak into an
indistinguishability argument.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro._constants import TIME_EPS
from repro.errors import ScheduleError

__all__ = [
    "RateSegment",
    "PiecewiseConstantRate",
    "random_walk_schedule",
]


@dataclass(frozen=True)
class RateSegment:
    """One constant-rate piece: ``rate`` on ``[start, end)``.

    ``end`` is ``math.inf`` for the final piece.
    """

    start: float
    end: float
    rate: float


@dataclass(frozen=True)
class PiecewiseConstantRate:
    """A piecewise-constant, strictly positive rate function of real time.

    The schedule is defined for all ``t >= 0``; the last rate extends to
    infinity.  Instances are immutable; editing operations return new
    schedules.

    Parameters
    ----------
    starts:
        Segment start times; must begin at ``0.0`` and be strictly
        increasing.
    rates:
        Rate on ``[starts[k], starts[k + 1])``; must be strictly positive
        (the model's clocks never stop, Assumption 1 with ``rho < 1``).
    """

    starts: tuple[float, ...] = (0.0,)
    rates: tuple[float, ...] = (1.0,)
    _cumulative: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.rates):
            raise ScheduleError("starts and rates must have equal length")
        if not self.starts or abs(self.starts[0]) > TIME_EPS:
            raise ScheduleError("schedule must start at t = 0")
        # A within-tolerance anchor (e.g. an accumulated 1e-12 from
        # upstream float arithmetic) is accepted but normalized to the
        # exact origin: segment lookup bisects over ``starts`` and
        # relies on the first breakpoint being literally 0.0, so a
        # query at t = 0 must never land before the first segment.
        if self.starts[0] != 0.0:  # repro: allow[FLT001] exact-origin invariant
            object.__setattr__(self, "starts", (0.0, *tuple(self.starts)[1:]))
        for a, b in zip(self.starts, self.starts[1:]):
            if b <= a:
                raise ScheduleError(f"breakpoints must increase: {a} !< {b}")
        for r in self.rates:
            if r <= 0.0:
                raise ScheduleError(f"rates must be positive, got {r}")
        cumulative = [0.0]
        for k in range(1, len(self.starts)):
            width = self.starts[k] - self.starts[k - 1]
            cumulative.append(cumulative[-1] + width * self.rates[k - 1])
        object.__setattr__(self, "_cumulative", tuple(cumulative))

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def constant(cls, rate: float = 1.0) -> "PiecewiseConstantRate":
        """A schedule running at ``rate`` forever."""
        return cls(starts=(0.0,), rates=(rate,))

    # ------------------------------------------------------------------
    # queries

    def _index_at(self, t: float) -> int:
        if t < 0.0:
            raise ScheduleError(f"time must be nonnegative, got {t}")
        return bisect_right(self.starts, t) - 1

    def rate_at(self, t: float) -> float:
        """The rate in effect at real time ``t`` (right-continuous)."""
        return self.rates[self._index_at(t)]

    def value_at(self, t: float) -> float:
        """The hardware clock reading ``H(t)`` (exact integral of the rate)."""
        k = self._index_at(t)
        return self._cumulative[k] + (t - self.starts[k]) * self.rates[k]

    def columns(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """``(starts, rates, cumulative)``: on segment ``k``,
        ``H(t) = cumulative[k] + (t - starts[k]) * rates[k]``."""
        return self.starts, self.rates, self._cumulative

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(starts, rates, cumulative)`` as numpy arrays."""
        cached = self.__dict__.get("_np_cache")
        if cached is None:
            cached = (
                np.asarray(self.starts, dtype=float),
                np.asarray(self.rates, dtype=float),
                np.asarray(self._cumulative, dtype=float),
            )
            object.__setattr__(self, "_np_cache", cached)
        return cached

    def values_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """``H(t)`` for a whole array of times at once.

        One ``searchsorted`` over the segment boundaries replaces a
        ``bisect_right`` per sample; element-for-element the arithmetic
        is identical to :meth:`value_at`, so both paths agree bitwise.
        """
        t = np.asarray(times, dtype=float)
        if t.size and float(t.min()) < 0.0:
            raise ScheduleError(f"time must be nonnegative, got {float(t.min())}")
        starts, rates, cumulative = self._arrays()
        k = np.searchsorted(starts, t, side="right") - 1
        return cumulative[k] + (t - starts[k]) * rates[k]

    def invert(self, value: float) -> float:
        """The real time ``t`` at which ``H(t) == value``.

        Well defined because rates are strictly positive, so ``H`` is
        strictly increasing.
        """
        if value < 0.0:
            raise ScheduleError(f"clock values are nonnegative, got {value}")
        k = bisect_right(self._cumulative, value) - 1
        return self.starts[k] + (value - self._cumulative[k]) / self.rates[k]

    def segments(self) -> Iterator[RateSegment]:
        """Iterate the schedule's constant pieces."""
        for k, (start, rate) in enumerate(zip(self.starts, self.rates)):
            end = self.starts[k + 1] if k + 1 < len(self.starts) else float("inf")
            yield RateSegment(start, end, rate)

    def min_rate(self, a: float = 0.0, b: float = float("inf")) -> float:
        """Minimum rate over ``[a, b]``."""
        return min(seg.rate for seg in self.segments() if seg.end > a and seg.start < b)

    def max_rate(self, a: float = 0.0, b: float = float("inf")) -> float:
        """Maximum rate over ``[a, b]``."""
        return max(seg.rate for seg in self.segments() if seg.end > a and seg.start < b)

    def within_bounds(self, lo: float, hi: float) -> bool:
        """Whether every rate lies inside ``[lo, hi]``."""
        return all(lo <= r <= hi for r in self.rates)

    # ------------------------------------------------------------------
    # editing (returns new schedules)

    def with_rate(self, a: float, b: float, rate: float) -> "PiecewiseConstantRate":
        """Replace the rate on ``[a, b)`` with ``rate``.

        The schedule outside ``[a, b)`` is unchanged.  Used by the Add Skew
        construction to install the ``gamma`` windows of Figure 1.
        """
        if b <= a:
            raise ScheduleError(f"empty window [{a}, {b})")
        if a < 0.0:
            raise ScheduleError("window must start at t >= 0")
        starts: list[float] = []
        rates: list[float] = []
        for seg in self.segments():
            # Portion of this segment before the window.
            if seg.start < a:
                starts.append(seg.start)
                rates.append(seg.rate)
        starts.append(a)
        rates.append(rate)
        resume_rate = self.rate_at(b)
        starts.append(b)
        rates.append(resume_rate)
        for seg in self.segments():
            if seg.start > b:
                starts.append(seg.start)
                rates.append(seg.rate)
        return PiecewiseConstantRate(tuple(starts), tuple(rates)).normalized()

    def normalized(self) -> "PiecewiseConstantRate":
        """Merge adjacent equal-rate segments and drop zero-width ones."""
        starts: list[float] = []
        rates: list[float] = []
        for start, rate in zip(self.starts, self.rates):
            if starts and abs(start - starts[-1]) <= TIME_EPS:
                # Zero-width piece: the later definition wins.
                rates[-1] = rate
                continue
            if rates and rates[-1] == rate:
                continue
            starts.append(start)
            rates.append(rate)
        return PiecewiseConstantRate(tuple(starts), tuple(rates))


def random_walk_schedule(
    *,
    rho: float,
    horizon: float,
    interval: float,
    seed: int,
    step: float | None = None,
) -> PiecewiseConstantRate:
    """A time-varying rate: a clipped random walk inside ``[1-rho, 1+rho]``.

    Real oscillators drift with temperature and age; a rate that wanders
    within the band (changing every ``interval`` of real time, moving at
    most ``step`` per change, default ``rho/4``) models that while
    staying inside Assumption 1.  After ``horizon`` the final rate
    extends forever, keeping the schedule total.
    """
    if not 0.0 < rho < 1.0:
        raise ScheduleError(f"rho must be in (0, 1), got {rho}")
    if interval <= 0 or horizon <= 0:
        raise ScheduleError("interval and horizon must be positive")
    import random as _random

    rng = _random.Random(seed)
    step = step if step is not None else rho / 4.0
    lo, hi = 1.0 - rho, 1.0 + rho
    rate = rng.uniform(lo, hi)
    starts = [0.0]
    rates = [rate]
    t = interval
    while t < horizon:
        rate = min(max(rate + rng.uniform(-step, step), lo), hi)
        starts.append(t)
        rates.append(rate)
        t += interval
    return PiecewiseConstantRate(tuple(starts), tuple(rates)).normalized()
