"""The reference event loop: the model's semantics, written naively.

One heap pop per event, one bisect per clock read, one
:class:`~repro.sim.trace.TraceEvent` object per action, plain
:class:`~repro.sim.clock.LogicalClock` and :class:`~repro.sim.node.NodeAPI`
per node.  Nothing here is tuned and nothing should be: this loop exists
so the differential harness (``tests/_engine_helpers.py``,
``tests/test_engine_equivalence.py``) can hold the production
:class:`~repro.sim.simulator.Simulator` to it with no tolerance.  It is
unreachable from :func:`~repro.sim.simulator.run_simulation`, from every
spec, job kind and CLI, and no module under ``src/repro`` imports it
(``tests/test_check.py`` pins that).

Everything fixed before the first event — validation, hardware clocks,
RNG seeding, the fault controller — is
the production constructor's :class:`~repro.sim.simulator.RunSetup`,
shared rather than copied: the two loops must start from the same state
to be comparable at all.
"""

from __future__ import annotations

from repro._constants import TIME_EPS
from repro.errors import SimulationError
from repro.sim.clock import LogicalClock
from repro.sim.events import (
    CrashNode,
    DeliverMessage,
    EventQueue,
    FireTimer,
    RecoverNode,
    TopologyChange,
)
from repro.sim.execution import Execution
from repro.sim.messages import Message, validate_delay
from repro.sim.node import NodeAPI
from repro.sim.simulator import RunSetup
from repro.sim.trace import (
    CRASH,
    ExecutionTrace,
    RECEIVE,
    RECOVER,
    SEND,
    START,
    TIMER,
    TOPOLOGY,
    TraceEvent,
)
from repro.topology.base import Topology

__all__ = ["ReferenceSimulator", "run_reference"]


class ReferenceSimulator(RunSetup):
    """One execution on the naive heap loop (same arguments as
    :class:`~repro.sim.simulator.Simulator`)."""

    def __init__(self, topology, processes, config, **adversary):
        super().__init__(topology, processes, config, **adversary)
        self._queue = EventQueue()
        self._trace = ExecutionTrace()
        self._messages: list[Message] = []
        self._timer_generation = 0
        self._logical: dict[int, LogicalClock] = {}
        self._api: dict[int, NodeAPI] = {}
        for node in self.topology.nodes:
            lc = LogicalClock(self._hardware[node])
            self._logical[node] = lc
            self._api[node] = NodeAPI(self, node, lc, self._node_rng(node))

    # ------------------------------------------------------------------
    # services used by NodeAPI

    def record(self, event: TraceEvent) -> None:
        if self.config.record_trace:
            self._trace.append(event)

    def _record_at(self, node: int, kind: str, detail) -> None:
        self.record(
            TraceEvent(
                real_time=self.now,
                node=node,
                hardware=self._hardware[node].value_at(self.now),
                logical=self._logical[node].read(self.now),
                kind=kind,
                detail=detail,
            )
        )

    def send_message(self, sender: int, receiver: int, payload) -> None:
        if sender == receiver:
            raise SimulationError(f"node {sender} tried to message itself")
        if self._faults is not None and self._faults.node_down(sender):
            # Crashed nodes emit nothing.  Callbacks are already
            # suppressed, so this only catches misbehaving wrappers.
            return
        distance = self.topology.distance(sender, receiver)
        raw = self.delay_policy.delay(
            sender, receiver, self.now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._msg_counter
        self._msg_counter += 1
        self._record_at(sender, SEND, (receiver, payload))
        delay = validate_delay(raw, distance)
        delays = [delay]
        if self._faults is not None:
            # Link faults may lose the message, redraw its delay
            # (reordering), or add a duplicate copy.  Copies share the
            # send's seq: the network duplicated one message.
            delays = self._faults.outbound_delays(
                sender, receiver, self.now, distance, delay
            )
        for chosen in delays:
            message = Message(
                seq=seq,
                sender=sender,
                receiver=receiver,
                payload=payload,
                send_time=self.now,
                delay=validate_delay(chosen, distance),
            )
            self._messages.append(message)
            self._queue.push(message.receive_time, DeliverMessage(receiver, message))

    def set_timer(self, node: int, delta_hardware: float, name: str) -> None:
        if delta_hardware <= 0:
            raise SimulationError(f"timer delta must be positive, got {delta_hardware}")
        hw = self._hardware[node]
        fire_at = hw.time_at(hw.value_at(self.now) + delta_hardware)
        self._timer_generation += 1
        epoch = 0 if self._faults is None else self._faults.epoch(node)
        self._queue.push(fire_at, FireTimer(node, name, self._timer_generation, epoch))

    # ------------------------------------------------------------------
    # the event loop

    def run(self) -> Execution:
        """Execute until ``config.duration`` and return the finished execution."""
        self._begin()
        duration = self.config.duration

        if self._dynamic is not None:
            # Scheduled before everything else, so a swap at time t pops
            # ahead of same-instant deliveries, timers, and fault events:
            # all activity at t already runs on the new network.
            for at, topology in self._dynamic.snapshots[1:]:
                if at <= duration + TIME_EPS:
                    self._queue.push(at, TopologyChange(topology))

        if self._faults is not None:
            # Scheduled before the node activity below (topology swaps
            # are earlier still), so crash/recovery events pop before
            # same-instant deliveries and timers.
            self._faults.schedule(self._queue.push)

        for node in self.topology.nodes:
            self._record_at(node, START, None)
        for node in self.topology.nodes:
            if self._faults is not None and self._faults.node_down(node):
                continue  # crashed at time 0: never starts
            self._processes[node].on_start(self._api[node])

        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > duration + TIME_EPS:
                break
            time, event = self._queue.pop()
            self.now = time
            if isinstance(event, DeliverMessage):
                self._deliver(event.message)
            elif isinstance(event, FireTimer):
                self._fire_timer(event)
            elif isinstance(event, CrashNode):
                self._faults.on_crash(event.node)
                self._record_at(event.node, CRASH, None)
            elif isinstance(event, RecoverNode):
                self._faults.on_recover(event.node)
                self._record_at(event.node, RECOVER, None)
                self._processes[event.node].on_recover(self._api[event.node])
            elif isinstance(event, TopologyChange):
                self._retopologize(event.topology)
            else:  # pragma: no cover - queue only ever holds these kinds
                raise SimulationError(f"unknown event {event!r}")
        return self._execution(self._logical, self._trace, list(self._messages))

    def _deliver(self, message: Message) -> None:
        node = message.receiver
        if self._faults is not None and self._faults.delivery_suppressed(
            message, self.now
        ):
            return
        self._record_at(node, RECEIVE, (message.sender, message.payload))
        self._processes[node].on_message(self._api[node], message.sender, message.payload)

    def _fire_timer(self, event: FireTimer) -> None:
        node = event.node
        if self._faults is not None and self._faults.timer_cancelled(
            node, event.epoch
        ):
            return
        self._record_at(node, TIMER, event.name)
        self._processes[node].on_timer(self._api[node], event.name)

    def _retopologize(self, topology: Topology) -> None:
        """Atomically swap the distance/adjacency tables.

        Recorded with ``node = -1``: it is the adversary's action,
        invisible to every node's local projection.
        """
        self.topology = topology
        self._topology_timeline.append((self.now, topology))
        self.record(
            TraceEvent(
                real_time=self.now,
                node=-1,
                hardware=0.0,
                logical=0.0,
                kind=TOPOLOGY,
                detail=topology.name,
            )
        )


def run_reference(topology, processes, config, **adversary) -> Execution:
    """:func:`~repro.sim.simulator.run_simulation` on the reference loop."""
    return ReferenceSimulator(topology, processes, config, **adversary).run()
