"""Fault & churn adversary subsystem (an extension beyond the paper).

The paper assumes a reliable network and non-crashing nodes.  Real
deployments of the algorithms we implement do not enjoy that luxury, so
this module gives the adversary a second dial besides rates and delays:
a declarative, picklable :class:`FaultPlan`, executed by one
:class:`FaultController` — the simulator, the reference loop and the
live runtime's loop (:mod:`repro.rt.shard`) each hold one and ask it
the same questions, so a plan means the same thing wherever it runs.

A plan is a frozen value with three parts:

* **crash schedules** (:class:`CrashWindow`) — crash-stop (no recovery)
  or crash-recovery windows per node, in real (adversary) time;
* **link faults** (:class:`LinkFault`) — per-link (or wildcard) loss,
  duplication and reordering probabilities plus hard down windows;
* a ``seed_salt`` folded into the fault RNG so distinct plans draw
  distinct streams even under the same simulation seed.

Crash semantics (the contract tests enforce)
--------------------------------------------
A node that is *down* executes nothing: its timers do not fire (and are
not even recorded in the trace), messages addressed to it are lost, and
it cannot send.  Timers pending when the node crashed are cancelled —
they never fire, not even after recovery (timer state is volatile).  By
default a crash also loses the node's own messages still in flight
(``lose_in_flight=True``: the network interface dies mid-transmission);
set it to ``False`` for the classical fail-stop reading in which the
wire outlives the sender.  The node's hardware clock keeps ticking
through the outage (hardware is physical), and its logical clock keeps
advancing at the last configured multiplier, so Requirement 1 (validity)
is never violated by a crash.  On recovery the simulator invokes
:meth:`~repro.sim.node.Process.on_recover`, where algorithms re-arm
timers and discard stale neighbor state.

Determinism contract
--------------------
All fault decisions are drawn from one dedicated RNG seeded by
``(simulation seed, plan seed_salt)`` in event order, so identical
``(plan, seed)`` pairs produce identical traces at any sweep worker
count.  An **empty plan is free**: the simulator builds no controller at
all, leaving the fault-free code path — and therefore the trace —
byte-identical to a run with ``fault_plan=None``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import FaultError
from repro.topology.base import Topology

__all__ = [
    "CrashWindow",
    "LinkFault",
    "FaultPlan",
    "FaultController",
]


# ----------------------------------------------------------------------
# the declarative plan


@dataclass(frozen=True)
class CrashWindow:
    """One crash of one node, in real (adversary) time.

    ``recover_at=None`` means crash-stop: the node never comes back.
    With a recovery time, the node is down on ``[at, recover_at)`` and
    its process gets an ``on_recover`` callback at ``recover_at``.
    ``lose_in_flight`` controls whether messages the node had already
    handed to the network are lost at the crash instant (default) or
    keep travelling.
    """

    node: int
    at: float
    recover_at: Optional[float] = None
    lose_in_flight: bool = True

    def validate(self, topology: Topology) -> None:
        if self.node not in set(topology.nodes):
            raise FaultError(f"crash names unknown node {self.node}")
        if self.at < 0:
            raise FaultError(f"crash time must be >= 0, got {self.at}")
        if self.recover_at is not None and self.recover_at <= self.at:
            raise FaultError(
                f"recovery at {self.recover_at} must follow the crash at {self.at}"
            )


@dataclass(frozen=True)
class LinkFault:
    """Unreliability of one directed link (or a wildcard set of links).

    ``sender``/``receiver`` of ``None`` match every node, so
    ``LinkFault(loss=0.1)`` is a globally lossy network.  Per message,
    in order: if the send time falls in a ``down`` window the message is
    lost outright; else it is lost with probability ``loss``; else with
    probability ``reorder`` its delay is redrawn uniformly over the full
    ``[0, d_ij]`` band (destroying FIFO order on the link); finally with
    probability ``duplicate`` the network delivers a second copy with an
    independent in-band delay.
    """

    sender: Optional[int] = None
    receiver: Optional[int] = None
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    down: tuple[tuple[float, float], ...] = ()

    def matches(self, sender: int, receiver: int) -> bool:
        return (self.sender is None or self.sender == sender) and (
            self.receiver is None or self.receiver == receiver
        )

    def down_at(self, t: float) -> bool:
        return any(t0 <= t < t1 for t0, t1 in self.down)

    def validate(self, topology: Topology) -> None:
        nodes = set(topology.nodes)
        for end in (self.sender, self.receiver):
            if end is not None and end not in nodes:
                raise FaultError(f"link fault names unknown node {end}")
        for name in ("loss", "duplicate", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise FaultError(f"{name} probability must be in [0, 1), got {p}")
        for t0, t1 in self.down:
            if not 0.0 <= t0 < t1:
                raise FaultError(f"down window ({t0}, {t1}) is not ordered")


@dataclass(frozen=True)
class FaultPlan:
    """A complete fault scenario: crash schedules + link faults.

    Frozen, picklable, and composable through the fluent ``with_*``
    builders (each returns a new plan).  ``FaultPlan()`` is the empty
    plan, which the simulator treats as "no fault machinery at all".
    """

    crashes: tuple[CrashWindow, ...] = ()
    links: tuple[LinkFault, ...] = ()
    seed_salt: int = 0

    # fluent builders --------------------------------------------------

    def with_crash(
        self,
        node: int,
        at: float,
        *,
        recover_at: Optional[float] = None,
        lose_in_flight: bool = True,
    ) -> "FaultPlan":
        """Add one crash (crash-stop, or crash-recovery with ``recover_at``)."""
        window = CrashWindow(node, at, recover_at, lose_in_flight)
        return replace(self, crashes=self.crashes + (window,))

    def with_link(
        self,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
        *,
        loss: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        down: tuple[tuple[float, float], ...] = (),
    ) -> "FaultPlan":
        """Add one (possibly wildcard) directed link fault."""
        fault = LinkFault(sender, receiver, loss, duplicate, reorder, tuple(down))
        return replace(self, links=self.links + (fault,))

    def with_link_down(
        self, a: int, b: int, *windows: tuple[float, float]
    ) -> "FaultPlan":
        """Take the undirected link ``a <-> b`` down over the given windows."""
        downs = tuple(windows)
        return replace(
            self,
            links=self.links
            + (LinkFault(a, b, down=downs), LinkFault(b, a, down=downs)),
        )

    # queries ----------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the plan injects nothing (the fault-free fast path)."""
        return not self.crashes and not self.links

    def validate(self, topology: Topology) -> None:
        """Fail fast on plans that reference unknown nodes or bad values."""
        crashed: set[int] = set()
        for crash in self.crashes:
            crash.validate(topology)
            if crash.node in crashed:
                raise FaultError(
                    f"node {crash.node} has multiple crash windows; "
                    "one window per node is supported"
                )
            crashed.add(crash.node)
        for link in self.links:
            link.validate(topology)


# ----------------------------------------------------------------------
# the runtime controller (one per faulted simulation)


class FaultController:
    """Executes a :class:`FaultPlan` inside one run — its only executor.

    Owned by the event loop (the simulator's, the reference loop's or
    the live runtime's), consulted on every send, delivery and timer
    firing.  All randomness comes from a dedicated RNG derived from the
    run's seed and the plan's salt, drawn in deterministic event order.
    """

    def __init__(self, plan: FaultPlan, topology: Topology, seed: int):
        plan.validate(topology)
        self.plan = plan
        self._rng = random.Random(((seed * 0x9E3779B1) ^ plan.seed_salt) ^ 0xFA017)
        self._crash_windows = {c.node: c for c in plan.crashes}
        #: nodes currently down (crashes at t <= 0 start down).
        self._down: set[int] = {c.node for c in plan.crashes if c.at <= 0.0}
        #: per-node crash epoch; timers remember the epoch they were set
        #: in and are cancelled by any later crash.
        self._epoch: dict[int, int] = {node: 1 for node in self._down}
        #: matching link-fault rules per directed pair, filled lazily —
        #: the rule set is fixed for the run, and churn plans carry two
        #: rules per edge, so scanning plan.links on every send is
        #: O(links x messages) wasted work.
        self._link_rules: dict[tuple[int, int], tuple[LinkFault, ...]] = {}
        self.stats: dict[str, int] = {
            "crashes": 0,
            "recoveries": 0,
            "lost_link_down": 0,
            "lost_random": 0,
            "lost_receiver_down": 0,
            "lost_in_flight": 0,
            "duplicated": 0,
            "reordered": 0,
            "timers_cancelled": 0,
        }

    # crash lifecycle --------------------------------------------------

    def schedule(self, push) -> None:
        """Push crash/recovery events via ``push(time, event)``.

        Called once before the event loop, so these events take the
        lowest sequence numbers and pop *before* same-instant deliveries
        or timers: a crash at time ``t`` suppresses everything else at
        ``t``, and a recovery at ``t`` precedes deliveries at ``t``.
        """
        from repro.sim.events import CrashNode, RecoverNode

        for crash in self.plan.crashes:
            # Time-0 crashes are already in the down preseed (so the
            # node never starts) but still get their queue event, which
            # records the CRASH trace entry and counts in the stats.
            push(max(crash.at, 0.0), CrashNode(crash.node))
            if crash.recover_at is not None:
                push(crash.recover_at, RecoverNode(crash.node))

    def on_crash(self, node: int) -> None:
        self._down.add(node)
        self._epoch[node] = self._epoch.get(node, 0) + 1
        self.stats["crashes"] += 1

    def on_recover(self, node: int) -> None:
        self._down.discard(node)
        self.stats["recoveries"] += 1

    def node_down(self, node: int) -> bool:
        return node in self._down

    def epoch(self, node: int) -> int:
        return self._epoch.get(node, 0)

    def timer_cancelled(self, node: int, set_epoch: int) -> bool:
        """A timer fires only if its node is up and has not crashed since.

        The simulator and the reference loop route every firing through
        this one check — the simulator's tuple-coded timer events carry
        the same ``epoch`` the reference loop's
        :class:`~repro.sim.events.FireTimer` does — so a crash window
        cancels the identical set of firings (and increments
        ``timers_cancelled`` identically) either way.
        """
        if node in self._down or set_epoch != self.epoch(node):
            self.stats["timers_cancelled"] += 1
            return True
        return False

    # the network ------------------------------------------------------

    def outbound_delays(
        self, sender: int, receiver: int, send_time: float, distance: float,
        delay: float,
    ) -> list[float]:
        """Fault-adjusted delays for one send: ``[]`` = lost, two = duplicated."""
        key = (sender, receiver)
        rules = self._link_rules.get(key)
        if rules is None:
            rules = tuple(f for f in self.plan.links if f.matches(*key))
            self._link_rules[key] = rules
        if not rules:
            return [delay]
        for rule in rules:
            if rule.down_at(send_time):
                self.stats["lost_link_down"] += 1
                return []
        for rule in rules:
            if rule.loss > 0.0 and self._rng.random() < rule.loss:
                self.stats["lost_random"] += 1
                return []
        for rule in rules:
            if rule.reorder > 0.0 and self._rng.random() < rule.reorder:
                delay = self._rng.uniform(0.0, distance)
                self.stats["reordered"] += 1
        delays = [delay]
        for rule in rules:
            if rule.duplicate > 0.0 and self._rng.random() < rule.duplicate:
                delays.append(self._rng.uniform(0.0, distance))
                self.stats["duplicated"] += 1
        return delays

    def delivery_suppressed(self, message, now: float) -> bool:
        """Whether a delivery is lost to a crash (receiver down, or the
        sender crashed while the message was in flight)."""
        return self.delivery_suppressed_fields(
            message.sender, message.receiver, message.send_time, now
        )

    def delivery_suppressed_fields(
        self, sender: int, receiver: int, send_time: float, now: float
    ) -> bool:
        """Field-level form of :meth:`delivery_suppressed`.

        The simulator stores messages columnarly and has no
        :class:`~repro.sim.messages.Message` object at delivery time;
        it and the reference loop must land in this one implementation
        so the crash bookkeeping (stats included) stays identical.
        """
        if receiver in self._down:
            self.stats["lost_receiver_down"] += 1
            return True
        crash = self._crash_windows.get(sender)
        if (
            crash is not None
            and crash.lose_in_flight
            and send_time < crash.at <= now
        ):
            self.stats["lost_in_flight"] += 1
            return True
        return False
