"""Virtual-time transport: a deterministic scheduler for live nodes.

This backend re-hosts the simulator's reference event loop
(:mod:`repro.sim.reference`, the heap loop the production simulator is
held byte-identical to) — same :class:`~repro.sim.events.EventQueue`
with ``(time, insertion)`` ordering, same delay-RNG construction, same
per-node RNG seeding — but
drives :class:`~repro.rt.node.LiveNode` adapters through the
:class:`~repro.rt.transport.Transport` interface instead of the
simulator's internals.  The payoff is a strong cross-validation
property, enforced by tests and reported in experiment E14:

    a virtual-time live run with the same (topology, algorithm, rates,
    delays, seed, duration) produces the **same execution** as the
    simulator — trace, clocks, and skew trajectories agree to float
    round-off (documented tolerance 1e-9 per sample).

That identity is what certifies the LiveNode adapter faithful: any
divergence on the wall-clock backends is then attributable to real
scheduling noise, not to adapter semantics.  It is also the fastest
backend (no sleeping), which makes it the scale vehicle: ``--transport
virtual`` runs arbitrarily long experiments in milliseconds of wall
time.
"""

from __future__ import annotations

import random
from typing import Mapping, Optional

from repro._constants import TIME_EPS
from repro.errors import RtError
from repro.rt.node import LiveNode
from repro.rt.recorder import LiveRecorder
from repro.rt.transport import DELAY_SEED_MIX, Transport
from repro.sim.events import DeliverMessage, EventQueue, FireTimer
from repro.sim.messages import DelayPolicy

__all__ = ["VirtualTimeTransport", "DELAY_SEED_MIX"]


class VirtualTimeTransport(Transport):
    """Deterministic asyncio-style scheduling on virtual time."""

    name = "virtual"

    def __init__(
        self,
        *,
        recorder: LiveRecorder,
        delay_policy: Optional[DelayPolicy] = None,
        seed: int = 0,
    ):
        self._init_messaging(
            recorder=recorder,
            delay_policy=delay_policy,
            delay_rng=random.Random(seed ^ DELAY_SEED_MIX),
            seed=seed,
        )
        self._queue = EventQueue()
        self._now = 0.0
        self._finished = False
        self._timer_generation = 0

    # ------------------------------------------------------------------
    # Transport interface

    def now(self) -> float:
        return self._now

    def transmit(self, sender: LiveNode, receiver: int, payload) -> None:
        message = self._next_message(sender, receiver, payload)
        if message is not None:
            self._queue.push(message.receive_time, DeliverMessage(receiver, message))

    def schedule_timer(self, node: LiveNode, fire_at: float, name: str) -> None:
        self._timer_generation += 1
        self._queue.push(fire_at, FireTimer(node.node, name, self._timer_generation))

    def run(self, nodes: Mapping[int, LiveNode], duration: float) -> None:
        if self._finished:
            raise RtError("a VirtualTimeTransport instance runs exactly once")
        self._finished = True
        # START events first, then on_start callbacks, both in node
        # order — the simulator's exact opening sequence.
        for node in sorted(nodes):
            nodes[node].record_start()
        for node in sorted(nodes):
            nodes[node].begin()
        while self._queue:
            next_time = self._queue.peek_time()
            if next_time is None or next_time > duration + TIME_EPS:
                break
            time, event = self._queue.pop()
            self._now = time
            if isinstance(event, DeliverMessage):
                message = event.message
                nodes[event.node].deliver(message.sender, message.payload)
            elif isinstance(event, FireTimer):
                nodes[event.node].fire_timer(event.name)
            else:  # pragma: no cover - queue only ever holds these kinds
                raise RtError(f"unknown event {event!r}")
        self._now = duration
