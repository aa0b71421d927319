"""Paper constants and closed-form helpers (Fan & Lynch, PODC 2004).

These are the exact constants used by the proofs:

* Assumption 1 bounds hardware clock rates to ``[1 - rho, 1 + rho]`` with
  ``0 <= rho < 1``.
* The Add Skew lemma (Lemma 6.1) uses ``tau = 1 / rho`` and
  ``gamma = 1 + rho / (4 + rho)``.
* Requirement 1 (validity) demands logical clock rate at least
  ``VALIDITY_RATE = 1/2``.
* One application of Add Skew gains at least ``(j - i) * ADD_SKEW_GAIN``
  skew (Claim 6.5 uses ``1/12``).
* The Bounded Increase lemma (Lemma 7.1) bounds one real-time unit of
  logical-clock increase by ``BOUNDED_INCREASE_FACTOR * f(1) = 16 f(1)``.
* Theorem 8.1 shrinks the working interval by ``B = 384 tau f(1)`` per
  round and guarantees skew ``k / 24`` after ``k`` rounds.
"""

from __future__ import annotations

import math

import numpy as np

#: Logical clocks must advance at least this fast (Requirement 1).
VALIDITY_RATE = 0.5

#: Skew gained per Add Skew application is at least ``ADD_SKEW_GAIN * (j - i)``.
ADD_SKEW_GAIN = 1.0 / 12.0

#: Claim 6.5: the sped-up window shortens real time by at least
#: ``(j - i) * MIN_WINDOW_SHRINK`` (the paper's ``1/6``).
MIN_WINDOW_SHRINK = 1.0 / 6.0

#: Lemma 7.1: ``L(t + 1) - L(t) <= 16 f(1)``.
BOUNDED_INCREASE_FACTOR = 16.0

#: Theorem 8.1: skew after round ``k`` is at least ``k * ROUND_SKEW_RATE``.
ROUND_SKEW_RATE = 1.0 / 24.0

#: Default drift bound used across experiments; chosen <= 1/2 so that the
#: validity requirement holds with margin for hardware-rate logical clocks.
DEFAULT_RHO = 0.5

#: Absolute tolerance for real-time / clock-value comparisons.
TIME_EPS = 1e-9


def window_starts(
    horizon: float, *, window: float, step: float, t_from: float = 0.0
) -> np.ndarray:
    """Start times of every length-``window`` interval on an integer grid.

    Returns ``t_from + k * step`` for every ``k`` with
    ``t_from + k * step + window <= horizon + TIME_EPS`` — the windows a
    Lemma 7.1 sweep must visit.  A ``t += step``
    accumulator drifts by roughly ``count * eps * t`` and, at production
    scales (tens of thousands of windows), silently skips the final
    window near ``horizon``; the integer-index grid cannot.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    span = horizon - t_from - window
    if span < -TIME_EPS:
        return np.empty(0)
    count = max(int(math.floor(span / step + TIME_EPS)) + 1, 0)
    # The division above can land one off for near-integer quotients;
    # re-anchor on the defining inequality exactly.
    while t_from + count * step + window <= horizon + TIME_EPS:
        count += 1
    while count > 0 and t_from + (count - 1) * step + window > horizon + TIME_EPS:
        count -= 1
    return t_from + step * np.arange(count)


def tau(rho: float) -> float:
    """The paper's ``tau = 1 / rho`` (Lemma 6.1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return 1.0 / rho


def gamma(rho: float) -> float:
    """The paper's sped-up rate ``gamma = 1 + rho / (4 + rho)`` (Lemma 6.1).

    Always strictly below ``1 + rho/4``, hence well inside both the drift
    bound ``1 + rho`` and the ``1 + rho/2`` band required by Lemma 7.1.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie in (0, 1), got {rho}")
    return 1.0 + rho / (4.0 + rho)


def window_shrink(rho: float, span: float) -> float:
    """Real-time shortening ``T - T' = tau (1 - 1/gamma) span`` of Add Skew.

    Equal to ``span / (4 + 2 rho)``; the paper lower-bounds it by
    ``span / 6`` using ``rho < 1``.
    """
    return tau(rho) * (1.0 - 1.0 / gamma(rho)) * span


def lower_bound_curve(diameter: float) -> float:
    """The main theorem's asymptotic envelope ``log D / log log D``.

    Defined for ``D > e`` (below that the expression is not meaningful);
    smaller diameters return 0 so plots/series stay total.
    """
    if diameter <= math.e:
        return 0.0
    return math.log(diameter) / math.log(math.log(diameter))
