"""Node processes and the node-visible API.

The model grants a node exactly three powers (Section 3): read its own
hardware clock, exchange messages, and compute.  :class:`NodeAPI` is that
interface — note there is deliberately **no way to read real time** from
it.  Timers are set in *hardware* time.  Because nodes can only observe
hardware readings and messages, two executions in which those observations
match are indistinguishable, which is the principle every lower-bound
construction in :mod:`repro.gcs` executes.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.sim.clock import LogicalClock
from repro.sim.trace import JUMP, RATE, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator

__all__ = ["Process", "NodeAPI"]

#: Per-node RNG seed mix: node ``i`` of a run seeded ``s`` draws from
#: ``random.Random((s * NODE_SEED_MIX) ^ i)`` on every loop and transport.
NODE_SEED_MIX = 1_000_003


def node_rng(seed: int, node: int) -> random.Random:
    """The RNG node ``node`` of a run seeded ``seed`` sees as ``api.rng``."""
    return random.Random((seed * NODE_SEED_MIX) ^ node)


class Process:
    """Base class for node behaviors (the algorithm ``A`` of the paper).

    Subclasses override the three callbacks.  All interaction with the
    world goes through the :class:`NodeAPI` argument.
    """

    def on_start(self, api: "NodeAPI") -> None:
        """Called once at real time 0 (all nodes start together, Section 3)."""

    def on_message(self, api: "NodeAPI", sender: int, payload: Any) -> None:
        """Called when a message from ``sender`` arrives."""

    def on_timer(self, api: "NodeAPI", name: str) -> None:
        """Called when a timer set via :meth:`NodeAPI.set_timer` fires."""

    def on_recover(self, api: "NodeAPI") -> None:
        """Called when the node comes back from a crash-recovery fault.

        Only fault plans (:mod:`repro.sim.faults`) trigger this; the
        paper's reliable model never does.  Timers pending at the crash
        were cancelled, so implementations should re-arm their periodic
        machinery here and discard any state that went stale during the
        outage (e.g. dead-reckoned neighbor estimates).
        """


class NodeAPI:
    """What a node is allowed to see and do.

    Created by the simulator, one per node.  Every method either reads the
    hardware clock, manipulates the logical clock (forward jumps only), or
    sends messages / sets hardware-time timers.  ``rng`` is the node's
    RNG, or the run's seed, from which :attr:`rng` makes the node's RNG
    (:func:`node_rng`) on first access.
    """

    def __init__(
        self,
        simulator: "Simulator",
        node: int,
        logical: LogicalClock,
        rng: random.Random | int,
    ):
        self._sim = simulator
        self.node = node
        self._logical = logical
        if isinstance(rng, random.Random):
            self._rng, self._seed = rng, None
        else:
            self._rng, self._seed = None, rng

    @property
    def rng(self) -> random.Random:
        """This node's private RNG, ``random.Random((seed * 1_000_003) ^
        node)`` for the run's ``seed``.

        Made on first access: no algorithm in this package draws from
        it, so a run seeds no Mersenne Twister per node unless one does.
        The stream is the same whenever it is made — it depends only on
        ``(seed, node)``.
        """
        rng = self._rng
        if rng is None:
            rng = self._rng = node_rng(self._seed, self.node)
        return rng

    # ------------------------------------------------------------------
    # clocks

    def hardware_now(self) -> float:
        """The node's current hardware clock reading ``H(t)``."""
        return self._logical.hardware.value_at(self._sim.now)

    def logical_now(self) -> float:
        """The node's current logical clock value ``L(t)``."""
        return self._logical.read(self._sim.now)

    def jump_logical_to(self, target: float) -> float:
        """Jump the logical clock forward to ``target`` (no-op if behind).

        Returns the jump size; jumps are recorded in the trace.
        """
        size = self._logical.jump_to(self._sim.now, target)
        if size > 0.0:
            self._sim.record(
                TraceEvent(
                    real_time=self._sim.now,
                    node=self.node,
                    hardware=self.hardware_now(),
                    logical=self.logical_now(),
                    kind=JUMP,
                    detail=round(size, 9),
                )
            )
        return size

    def jump_logical_by(self, amount: float) -> float:
        """Jump the logical clock forward by ``amount >= 0``."""
        return self.jump_logical_to(self.logical_now() + amount)

    def set_logical_multiplier(self, multiplier: float) -> None:
        """Run the logical clock at ``multiplier * h(t)`` from now on.

        The multiplier must stay at or above the validity-safe floor
        ``1 / (2 (1 - rho))`` (Requirement 1).  Rate changes are recorded
        in the trace like jumps — they are observable control actions.
        """
        if abs(multiplier - self._logical.multiplier) <= 1e-12:
            return
        self._logical.set_multiplier(self._sim.now, multiplier)
        self._sim.record(
            TraceEvent(
                real_time=self._sim.now,
                node=self.node,
                hardware=self.hardware_now(),
                logical=self.logical_now(),
                kind=RATE,
                detail=round(multiplier, 9),
            )
        )

    @property
    def min_logical_multiplier(self) -> float:
        """The validity-safe multiplier floor ``1 / (2 (1 - rho))``."""
        return self._logical.min_multiplier()

    # ------------------------------------------------------------------
    # communication

    def send(self, dest: int, payload: Any) -> None:
        """Send ``payload`` to ``dest``; the adversary picks the delay."""
        self._sim.send_message(self.node, dest, payload)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every communication neighbor."""
        for dest in self.neighbors():
            self.send(dest, payload)

    def neighbors(self) -> list[int]:
        """This node's communication partners (sorted, deterministic)."""
        return self._sim.topology.neighbors(self.node)

    def distance(self, other: int) -> float:
        """The delay uncertainty ``d`` between this node and ``other``.

        Distances are part of the network description, which algorithms are
        allowed to know (the paper's algorithms are parameterized by the
        network).
        """
        return self._sim.topology.distance(self.node, other)

    # ------------------------------------------------------------------
    # timers

    def set_timer(self, delta_hardware: float, name: str = "tick") -> None:
        """Arrange ``on_timer(name)`` after ``delta_hardware`` units of
        *hardware* clock time.

        Hardware time is the only time a node can measure, so this is the
        only timer the model permits.
        """
        self._sim.set_timer(self.node, delta_hardware, name)
