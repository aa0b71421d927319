"""The adapter that hosts an unchanged simulator ``Process`` on a transport.

:class:`~repro.sim.node.NodeAPI` — the only interface algorithm code
ever touches — talks to five members of its host: ``now``, ``topology``,
``record``, ``send_message``, and ``set_timer``.  Inside the simulator
that host is the :class:`~repro.sim.simulator.Simulator`; here it is a
:class:`LiveNode`, which implements the same five members on top of a
:class:`~repro.rt.shard.ShardTransport`.  Algorithm code therefore needs
**zero changes** to run live: the very same ``Process`` subclass objects
execute in both worlds, which is what makes sim-vs-live comparisons
(experiment E14) an apples-to-apples measurement.

Clocks: the node carries the exact :class:`HardwareClock` /
:class:`LogicalClock` pair the simulator would give it, evaluated at the
transport's notion of "now" (virtual time, or measured wall time mapped
to simulation units).  After the run those clock objects go straight
into the reconstructed :class:`~repro.sim.execution.Execution`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import RtError
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.node import NodeAPI, Process
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.trace import (
    CRASH,
    RECEIVE,
    RECOVER,
    SEND,
    START,
    TIMER,
    TraceEvent,
)
from repro.topology.base import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rt.recorder import LiveRecorder
    from repro.rt.shard import ShardTransport
    from repro.sweep.scenario import Cell, Scenario

__all__ = ["LiveNode", "host_nodes"]

class LiveNode:
    """One node of a live run: process + clocks + the NodeAPI host shim."""

    def __init__(
        self,
        node: int,
        process: Process,
        *,
        topology: Topology,
        schedule: PiecewiseConstantRate,
        rho: float,
        seed: int,
        transport: "ShardTransport",
        recorder: "LiveRecorder",
    ):
        self.node = node
        self.process = process
        self.topology = topology
        self.hardware = HardwareClock(schedule, rho)
        self.logical = LogicalClock(self.hardware)
        self._transport = transport
        self._recorder = recorder
        #: Whether anything keeps the events this node would build: a
        #: recorded trace or a tap.  Otherwise a send, delivery or timer
        #: skips its event (three clock reads) altogether.
        self._tracing = recorder.record_trace or recorder.tap is not None
        self.api = NodeAPI(self, node, self.logical, seed)

    # ------------------------------------------------------------------
    # the five members NodeAPI expects of its host ("the simulator")

    @property
    def now(self) -> float:
        """Current simulation-time instant, as the transport defines it.

        Transports freeze this for the duration of one callback, so a
        callback observes a single consistent instant — the simulator's
        semantics of instantaneous computation.
        """
        return self._transport.now()

    def record(self, event: TraceEvent) -> None:
        self._recorder.record(event)

    def send_message(self, sender: int, receiver: int, payload) -> None:
        if sender == receiver:
            raise RtError(f"node {sender} tried to message itself")
        faults = self._transport.faults
        if faults is not None and faults.node_down(sender):
            return  # crashed nodes emit nothing (the simulator's guard)
        self._trace(SEND, (receiver, payload))
        self._transport.transmit(self, receiver, payload)

    def set_timer(self, node: int, delta_hardware: float, name: str) -> None:
        if delta_hardware <= 0:
            raise RtError(f"timer delta must be positive, got {delta_hardware}")
        hw = self.hardware
        fire_at = hw.time_at(hw.value_at(self.now) + delta_hardware)
        self._transport.schedule_timer(self, fire_at, name)

    # ------------------------------------------------------------------
    # callback entry points, invoked by transports

    def detach(self) -> None:
        """Cut the node's API and this node from the loop that ran them.

        The API's host is this node, and the loop holds the nodes: once
        the run is over, dropping those edges leaves no reference cycle,
        so the run is freed by reference counting.  The clocks, the
        process and the topology stay readable.
        """
        self.api._sim = None
        self._transport = None

    def record_start(self) -> None:
        """Record the START event (real time 0; all nodes start together)."""
        self.record(
            TraceEvent(
                real_time=0.0,
                node=self.node,
                hardware=self.hardware.value_at(0.0),
                logical=self.logical.read(0.0),
                kind=START,
                detail=None,
            )
        )

    def begin(self) -> None:
        """Run the process's ``on_start`` callback."""
        self.process.on_start(self.api)

    def deliver(self, sender: int, payload) -> None:
        """Record the RECEIVE event and run ``on_message``."""
        self._trace(RECEIVE, (sender, payload))
        self.process.on_message(self.api, sender, payload)

    def fire_timer(self, name: str) -> None:
        """Record the TIMER event and run ``on_timer``."""
        self._trace(TIMER, name)
        self.process.on_timer(self.api, name)

    def mark_crash(self) -> None:
        """Record the CRASH event (the simulator's crash-window semantics).

        While down the node executes nothing — the transport stops
        dispatching its deliveries and timers; the clocks keep advancing
        (hardware is physical), matching the simulator's contract.
        """
        self._trace(CRASH, None)

    def recover(self) -> None:
        """Record the RECOVER event and run ``on_recover``."""
        self._trace(RECOVER, None)
        self.process.on_recover(self.api)

    def _trace(self, kind: str, detail) -> None:
        """Record one event at the current instant, if anything keeps it."""
        if not self._tracing:
            return
        t = self.now
        self._recorder.record(
            TraceEvent(
                real_time=t,
                node=self.node,
                hardware=self.hardware.value_at(t),
                logical=self.logical.read(t),
                kind=kind,
                detail=detail,
            )
        )


def host_nodes(
    scenario: "Scenario",
    cell: "Cell",
    members: Iterable[int],
    *,
    transport: "ShardTransport",
    recorder: "LiveRecorder",
) -> dict[int, LiveNode]:
    """Host ``members`` of a built cell on one transport.

    The whole network for the in-process backends, one shard's nodes in
    a shard worker; every node starts on the cell's t = 0 topology.
    """
    return {
        node: LiveNode(
            node,
            cell.processes[node],
            topology=cell.topology,
            schedule=cell.rates[node],
            rho=scenario.rho,
            seed=scenario.seed,
            transport=transport,
            recorder=recorder,
        )
        for node in members
    }
