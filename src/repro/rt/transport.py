"""The transport abstraction the live runtime is built around.

A :class:`Transport` owns three responsibilities, which are exactly the
three powers the model grants the *environment* (as opposed to the
nodes): it defines the current real time, it carries messages subject to
the ``[0, d_ij]`` delay model, and it fires hardware-time timers.  The
node side of the contract is :class:`~repro.rt.node.LiveNode`.

Four transport *names* (:data:`TRANSPORT_NAMES`) run on three loops:

* :class:`~repro.rt.virtual.VirtualTimeTransport` (``virtual``) — a
  deterministic scheduler on virtual time (the simulator's event loop,
  re-hosted);
* :class:`~repro.rt.asyncio_transport.InProcAsyncioTransport`
  (``asyncio``) — real wall-clock asyncio tasks in one process, with
  injected delays;
* :class:`~repro.rt.shard.ShardTransport` (``udp`` and ``router``) — the
  multi-process runtime: forked worker processes each hosting a shard
  of nodes, exchanging :mod:`repro.wire` frames over localhost UDP.
  ``udp`` is one shard per node with frames addressed straight to the
  owning peer; ``router`` is a few shards around one central switch
  socket, which also applies live churn (crash windows, rewirings).

Delays are *injected* on every backend: a
:class:`~repro.sim.messages.DelayPolicy` draws each message's delay from
the model band, so live runs stay inside Assumption-land and the
reconstructed execution passes ``check_delay_bounds``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping, Optional

from repro.sim.messages import (
    DelayPolicy,
    HalfDistanceDelay,
    Message,
    validate_delay,
)
from repro.sweep.families import TRANSPORT_FAMILIES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rt.node import LiveNode
    from repro.rt.recorder import LiveRecorder

__all__ = ["Transport", "TRANSPORT_NAMES", "DELAY_SEED_MIX"]

#: The transport spec names accepted by the CLI, sweep axis, and E14 —
#: the keys of the capability table the layers below ``rt`` also read.
TRANSPORT_NAMES = tuple(TRANSPORT_FAMILIES)

#: Delay-RNG seed mix, identical to the simulator's (``seed ^ 0x5EED``)
#: so the virtual backend draws the very same delay stream.
DELAY_SEED_MIX = 0x5EED


class Transport(ABC):
    """What the environment does for live nodes: time, messages, timers."""

    #: Name of the loop: a :data:`TRANSPORT_NAMES` entry, or ``"shard"``
    #: for the one loop that serves both ``udp`` and ``router``.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # shared delay-injection machinery (one implementation, three users)

    def _init_messaging(
        self,
        *,
        recorder: "LiveRecorder",
        delay_policy: Optional[DelayPolicy],
        delay_rng: random.Random,
        seed: int,
    ) -> None:
        """Set up the delay-drawing state every backend shares."""
        self._recorder = recorder
        self.delay_policy: DelayPolicy = delay_policy or HalfDistanceDelay()
        self._delay_rng = delay_rng
        self._msg_counter = 0
        bind_run = getattr(self.delay_policy, "bind_run", None)
        if bind_run is not None:
            bind_run(seed)

    def _message_seq(self, counter: int) -> int:
        """The wire seq for the ``counter``-th send (shards interleave)."""
        return counter

    def _next_message(
        self, sender: "LiveNode", receiver: int, payload
    ) -> Optional[Message]:
        """Draw one injected model-band delay and record the message.

        The single definition of the send protocol — counter increment,
        the ``float('inf')`` lost-message sentinel, delay validation —
        so the three backends cannot drift apart.  Returns ``None`` when
        the sentinel fires (the network lost the message).
        """
        now = self.now()
        distance = sender.topology.distance(sender.node, receiver)
        raw = self.delay_policy.delay(
            sender.node, receiver, now, distance, self._msg_counter, self._delay_rng
        )
        seq = self._message_seq(self._msg_counter)
        self._msg_counter += 1
        if raw == float("inf"):
            return None
        message = Message(
            seq=seq,
            sender=sender.node,
            receiver=receiver,
            payload=payload,
            send_time=now,
            delay=validate_delay(raw, distance),
        )
        self._recorder.add_message(message)
        return message

    @abstractmethod
    def now(self) -> float:
        """The current real time in simulation units.

        Frozen for the duration of one node callback, so algorithm code
        observes a single consistent instant per activation (the
        simulator's instantaneous-computation semantics).
        """

    @abstractmethod
    def transmit(self, sender: "LiveNode", receiver: int, payload) -> None:
        """Carry ``payload`` to ``receiver`` under an injected model delay."""

    @abstractmethod
    def schedule_timer(self, node: "LiveNode", fire_at: float, name: str) -> None:
        """Arrange ``on_timer(name)`` at simulation time ``fire_at``."""

    @abstractmethod
    def run(self, nodes: Mapping[int, "LiveNode"], duration: float) -> None:
        """Start every node and drive the run for ``duration`` sim units."""
