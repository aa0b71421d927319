"""The Bounded Increase lemma (Lemma 7.1), executable.

    In any execution whose hardware rates stay within ``[1, 1 + rho/2]``
    and whose message delays stay within ``[d/4, 3d/4]``, no node's
    logical clock gains more than ``16 f(1)`` over one real-time unit
    (after the warm-up ``tau``), for any algorithm satisfying f-GCS.

The lemma is what lets Theorem 8.1 bound how quickly an algorithm can
*burn off* the skew that Add Skew injected: over an extension of length
``E`` the laggard closes at most ``16 f(1) E``.

This module measures the quantity on executions and checks the bound
for a claimed ``f(1)``; the experiment E06 sweeps algorithms and shows
the measured increase indeed sits below ``16 * f_hat(1)`` for the
empirical ``f_hat``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._constants import BOUNDED_INCREASE_FACTOR, tau as tau_of
from repro.errors import ConstructionError
from repro.sim.execution import Execution

__all__ = ["BoundedIncreaseReport", "check_preconditions", "measure_bounded_increase"]


@dataclass(frozen=True)
class BoundedIncreaseReport:
    """Measured fastest one-unit logical gain vs. the lemma's bound."""

    max_increase: float
    bound: float
    f_of_one: float
    window: float

    @property
    def satisfied(self) -> bool:
        return self.max_increase <= self.bound + 1e-6


def check_preconditions(execution: Execution, *, rho: float) -> None:
    """Raise unless the execution satisfies the lemma's preconditions.

    1. hardware rates within ``[1, 1 + rho/2]`` at all times;
    2. delays within ``[d/4, 3d/4]`` at all times.
    """
    if not execution.rates_within(1.0, 1.0 + rho / 2.0):
        raise ConstructionError(
            "Bounded Increase precondition: rates must lie in [1, 1 + rho/2]"
        )
    if not execution.delays_within(0.25, 0.75):
        raise ConstructionError(
            "Bounded Increase precondition: delays must lie in [d/4, 3d/4]"
        )


def measure_bounded_increase(
    execution: Execution,
    f_of_one: float,
    *,
    rho: float,
    window: float = 1.0,
    step: float = 0.25,
    enforce_preconditions: bool = True,
) -> BoundedIncreaseReport:
    """Measure ``max_i max_t L_i(t + 1) - L_i(t)`` against ``16 f(1)``.

    ``f_of_one`` is the gradient bound at distance 1 claimed for (or
    measured from) the algorithm; the lemma's bound is ``16 f(1)``.
    Measurement starts at ``t = tau`` as in the lemma.
    """
    if enforce_preconditions:
        check_preconditions(execution, rho=rho)
    start = min(tau_of(rho), max(execution.duration - window, 0.0))
    measured = execution.max_logical_increase(
        window=window, step=step, t_from=start
    )
    return BoundedIncreaseReport(
        max_increase=measured,
        bound=BOUNDED_INCREASE_FACTOR * f_of_one,
        f_of_one=f_of_one,
        window=window,
    )
