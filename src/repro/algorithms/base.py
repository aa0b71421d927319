"""Common scaffolding for clock synchronization algorithms.

Every algorithm is a :class:`SyncAlgorithm` — a factory producing one
:class:`~repro.sim.node.Process` per node — so experiments can treat
"the algorithm A" as a value, exactly as the paper's lower bound
quantifies over algorithms.

All algorithms here keep their logical clock as ``hardware + forward
jumps``, which satisfies the validity requirement (Requirement 1) for
``rho <= 1/2`` by construction.  They differ only in *when* and *how far*
they jump.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from repro.sim.node import NodeAPI, Process
from repro.topology.base import Topology

__all__ = ["SyncAlgorithm", "PeriodicProcess", "NeighborEstimates", "NullAlgorithm"]


class SyncAlgorithm(ABC):
    """A clock synchronization algorithm: a recipe for node processes."""

    #: Short name used in experiment tables.
    name: str = "abstract"

    @abstractmethod
    def processes(self, topology: Topology) -> dict[int, Process]:
        """Instantiate one process per node of ``topology``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class PeriodicProcess(Process):
    """A process that broadcasts every ``period`` units of hardware time.

    Subclasses provide the broadcast payload and the receive handler.
    The timer is hardware-driven because hardware time is all a node can
    measure; under adversarial rate schedules the real-time period drifts
    accordingly, exactly as the model intends.
    """

    TICK = "gossip"

    def __init__(self, period: float):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = period

    def on_start(self, api: NodeAPI) -> None:
        self.initialize(api)
        api.broadcast(self.payload(api))
        api.set_timer(self.period, self.TICK)

    def on_timer(self, api: NodeAPI, name: str) -> None:
        if name != self.TICK:
            return
        self.tick(api)
        api.broadcast(self.payload(api))
        api.set_timer(self.period, self.TICK)

    def on_recover(self, api: NodeAPI) -> None:
        """Come back from a crash: re-announce and re-arm the gossip timer.

        The crash cancelled the pending tick, so without this the node
        would stay silent forever.  ``recover`` runs first so subclasses
        can discard state that went stale during the outage.
        """
        self.recover(api)
        api.broadcast(self.payload(api))
        api.set_timer(self.period, self.TICK)

    # hooks ------------------------------------------------------------

    def initialize(self, api: NodeAPI) -> None:
        """Called once before the first broadcast."""

    def tick(self, api: NodeAPI) -> None:
        """Called every period before broadcasting."""

    def recover(self, api: NodeAPI) -> None:
        """Called on crash recovery, before the re-announcement broadcast."""

    def payload(self, api: NodeAPI) -> Any:
        """The broadcast content; default is the node's logical clock value."""
        return ("clock", round(api.logical_now(), 9))


class NeighborEstimates:
    """Dead-reckoned estimates of neighbors' logical clocks.

    On receipt of a neighbor's clock value, remember it together with our
    own hardware reading; later, estimate the neighbor's current value as
    ``value + (hardware_now - hardware_then)`` (neighbor clocks advance at
    roughly our own rate — the estimate is off by at most drift plus the
    message delay uncertainty, which is what the gradient algorithms
    budget for).

    ``delay_compensation`` adds ``compensation * d(sender)`` to each
    received value, crediting the expected in-flight time (delays lie in
    ``[0, d]``, so ``0.5`` matches both the uniform average and the
    quiet ``d/2`` schedules; ``0`` reproduces the uncompensated
    pessimistic estimate).
    """

    def __init__(self, delay_compensation: float = 0.0) -> None:
        if not 0.0 <= delay_compensation <= 1.0:
            raise ValueError("delay compensation must be in [0, 1]")
        self.delay_compensation = delay_compensation
        self._last: dict[int, tuple[float, float]] = {}

    def update(self, api: NodeAPI, sender: int, value: float) -> None:
        credited = value + self.delay_compensation * api.distance(sender)
        self._last[sender] = (credited, api.hardware_now())

    def estimates(self, api: NodeAPI) -> dict[int, float]:
        """Every remembered neighbor's dead-reckoned clock, now."""
        hw = api.hardware_now()
        return {
            sender: value + (hw - hw_then)
            for sender, (value, hw_then) in self._last.items()
        }

    def known(self) -> list[int]:
        return sorted(self._last)

    def clear(self) -> None:
        """Forget everything — estimates dead-reckoned across a crash
        outage are arbitrarily stale and must not be extrapolated."""
        self._last.clear()


@dataclass
class NullAlgorithm(SyncAlgorithm):
    """No synchronization at all: ``L = H``.  Control/baseline.

    Violates no requirement (validity holds) but its gradient profile is
    just the accumulated drift — useful as the floor in comparisons.
    """

    name: str = "null"

    def processes(self, topology: Topology) -> dict[int, Process]:
        return {node: Process() for node in topology.nodes}
