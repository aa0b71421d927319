"""A gradient clock synchronization candidate (Section 9's conjecture).

The paper conjectures that algorithms with ``f(d) = O(d + log D)`` exist
and says the authors are "currently analyzing one such candidate".  The
follow-on literature (Locher & Wattenhofer 2006; Lenzen, Locher &
Wattenhofer 2008-10) settled the question with *rate-modulation*
("blocking") algorithms: a node chases the global maximum by running its
logical clock in a **fast mode** (rate ``(1 + mu) * h``) only while that
cannot tear it away from slower neighbors; otherwise it runs at the
plain hardware rate.  No jumps ever happen, so corrections diffuse
smoothly instead of producing the distance-1 spikes of the max
algorithm.

:class:`BoundedCatchUpAlgorithm` implements the simplified mode rule:

* every adjustment point, dead-reckon each neighbor ``u``'s clock;
* ``ahead  = max_u (est_u - own - kappa * d_u)`` — how urgently some
  neighbor is pulling us up;
* ``behind = max_u (own - est_u - kappa * d_u)`` — how hard some
  neighbor is holding us back;
* run fast iff ``ahead > max(behind, 0)``.

With ``kappa`` above the per-link estimate error (delay uncertainty plus
drift over a period) the local skew stays ``O(kappa * d)`` in benign
executions, while the adversarial construction of Theorem 8.1 still
forces the unavoidable ``Omega(log D / log log D)`` distance-1 skew —
which is exactly the paper's point: *no* algorithm is purely local.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algorithms.base import NeighborEstimates, PeriodicProcess, SyncAlgorithm
from repro.sim.node import NodeAPI, Process
from repro.topology.base import Topology

__all__ = ["BoundedCatchUpAlgorithm", "BoundedCatchUpProcess"]


class BoundedCatchUpProcess(PeriodicProcess):
    """Blocking gradient sync: fast mode while pulled, never torn."""

    def __init__(self, period: float, kappa: float, mu: float, compensation: float):
        super().__init__(period)
        self.kappa = kappa
        self.mu = mu
        self.estimates = NeighborEstimates(delay_compensation=compensation)

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        kind, value = payload
        if kind != "clock":
            return
        self.estimates.update(api, sender, value)
        self._adjust(api)

    def tick(self, api: NodeAPI) -> None:
        self._adjust(api)

    def recover(self, api: NodeAPI) -> None:
        """Restart from local knowledge only: drop stale neighbor
        estimates and leave fast mode (fresh estimates re-engage it)."""
        self.estimates.clear()
        api.set_logical_multiplier(1.0)

    def _adjust(self, api: NodeAPI) -> None:
        readings = self.estimates.readings
        if not readings:
            return
        hw = api.hardware_now()
        own = api.logical_now()
        kappa = self.kappa
        distance = api.distance
        ahead = behind = float("-inf")
        # One pass over the readings: each neighbor's estimate, its
        # slack, and both running maxima (``x > best`` keeps the first
        # maximum, exactly as ``max(best, x)`` does).
        for u, (value, hw_then) in readings.items():
            estimate = value + (hw - hw_then)
            slack = kappa * distance(u)
            lead = estimate - own - slack
            if lead > ahead:
                ahead = lead
            lag = own - estimate - slack
            if lag > behind:
                behind = lag
        if ahead > max(behind, 0.0):
            api.set_logical_multiplier(1.0 + self.mu)
        else:
            api.set_logical_multiplier(1.0)


@dataclass
class BoundedCatchUpAlgorithm(SyncAlgorithm):
    """Factory for :class:`BoundedCatchUpProcess` nodes.

    Parameters
    ----------
    period:
        Hardware-time gossip period.
    kappa:
        Per-unit-distance skew budget; must exceed the per-link estimate
        error (delay uncertainty + drift over a period), i.e. ``> 1`` in
        the paper's normalization.  Default 2.
    mu:
        Fast-mode boost: fast mode runs at ``(1 + mu) * h``.  Must
        outrun the worst-case drift spread ``2 rho / (1 - rho)``;
        default 1.0 (double speed) covers every ``rho <= 1/2``.
    compensation:
        Delay compensation credited per unit distance when estimating
        neighbors (0.5 = expected delay; see
        :class:`~repro.algorithms.base.NeighborEstimates`).
    """

    period: float = 1.0
    kappa: float = 2.0
    mu: float = 1.0
    compensation: float = 0.5
    name: str = "bounded-catch-up"

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.mu <= 0:
            raise ValueError(f"mu must be positive, got {self.mu}")

    def processes(self, topology: Topology) -> dict[int, Process]:
        return {
            node: BoundedCatchUpProcess(
                self.period, self.kappa, self.mu, self.compensation
            )
            for node in topology.nodes
        }
