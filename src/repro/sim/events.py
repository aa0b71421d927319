"""Deterministic discrete-event queue.

Events are ordered by ``(time, sequence)``.  The sequence number is the
global insertion order, which makes the simulation fully deterministic: two
runs with the same inputs pop events in exactly the same order.  That
determinism is what lets a re-run under a warped adversary schedule
reproduce a retimed execution exactly (the executable form of the paper's
indistinguishability principle).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import SimulationError

__all__ = [
    "DeliverMessage",
    "FireTimer",
    "CrashNode",
    "RecoverNode",
    "TopologyChange",
    "EventQueue",
    "BatchEventQueue",
]


@dataclass(frozen=True)
class DeliverMessage:
    """Delivery of a message to ``node`` (payload carried separately)."""

    node: int
    message: Any


@dataclass(frozen=True)
class FireTimer:
    """A node-local timer set in *hardware* time coming due.

    ``epoch`` is the node's crash epoch when the timer was set; a timer
    whose epoch is stale (the node crashed since) is cancelled.  It is
    always 0 in fault-free runs.
    """

    node: int
    name: str
    generation: int
    epoch: int = 0


@dataclass(frozen=True)
class CrashNode:
    """A scheduled crash of ``node`` (see :mod:`repro.sim.faults`)."""

    node: int


@dataclass(frozen=True)
class RecoverNode:
    """A scheduled recovery of ``node`` (see :mod:`repro.sim.faults`)."""

    node: int


@dataclass(frozen=True)
class TopologyChange:
    """An atomic swap of the network's distance/adjacency tables.

    Scheduled from a :class:`~repro.topology.dynamic.DynamicTopology`'s
    change-points before the event loop starts, so swaps take the lowest
    sequence numbers at their instant and pop before same-instant
    deliveries or timers: everything at time ``t`` already sees the new
    network.  Messages in flight across a swap keep the delay they were
    assigned at send time (the wire outlives the rewiring).
    """

    topology: Any


@dataclass(order=True)
class _Entry:
    time: float
    seq: int
    event: Any = field(compare=False)


class EventQueue:
    """A heap of timestamped events with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._counter = itertools.count()
        self._last_popped = float("-inf")

    def push(self, time: float, event: Any) -> None:
        """Schedule ``event`` at ``time`` (must not be in the popped past)."""
        if time < self._last_popped - 1e-9:
            raise SimulationError(
                f"event scheduled at {time} before current time {self._last_popped}"
            )
        heapq.heappush(self._heap, _Entry(time, next(self._counter), event))

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, event)``."""
        if not self._heap:
            raise SimulationError("pop from empty event queue")
        entry = heapq.heappop(self._heap)
        self._last_popped = entry.time
        return entry.time, entry.event

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled time, or ``None`` if empty."""
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class BatchEventQueue:
    """The sorted-spine event queue behind :class:`~repro.sim.simulator.Simulator`.

    Same contract as :class:`EventQueue` — events pop in ``(time, seq)``
    order, where ``seq`` is global insertion order — realized as sorted
    arrays instead of a binary heap:

    * a **spine**: aligned time/event lists already in lexicographic
      ``(time, seq)`` order, drained by advancing a cursor (an O(1)
      pop, no heap rebalancing, no per-entry wrapper objects);
    * a **pending batch**: events pushed since the last merge.  Because
      insertion order is global and monotone, every pending event's seq
      exceeds every spine event's, so a pending event can only precede
      the spine head if its *time* is strictly earlier — until then
      pops come off the spine untouched.  When that happens (or the
      spine drains) the remaining spine and the batch are merged by
      one stable ``sorted`` over their times (stability supplies the
      seq tie-break; timsort merges the already-sorted spine run).

    Periodic-broadcast gossip schedules whole epochs of future firings
    between consecutive pops, so merges are rare — the amortized cost
    per event is a couple of list reads.  The
    equivalence property test (``tests/test_events.py``) drives random
    push/pop interleavings through both queues and asserts identical
    drain order.
    """

    def __init__(self) -> None:
        # The spine is kept as plain python lists (cheap scalar reads in
        # the drain loop).
        self._spine_times: list[float] = []
        self._spine_events: list[Any] = []
        self._cursor = 0
        self._pend_times: list[float] = []
        self._pend_events: list[Any] = []
        self._pend_min = float("inf")
        self._last_popped = float("-inf")

    # ------------------------------------------------------------------
    # pushes

    def push(self, time: float, event: Any) -> None:
        """Schedule ``event`` at ``time`` (must not be in the popped past)."""
        if time < self._last_popped - 1e-9:
            raise SimulationError(
                f"event scheduled at {time} before current time {self._last_popped}"
            )
        self._pend_times.append(time)
        self._pend_events.append(event)
        if time < self._pend_min:
            self._pend_min = time

    # ------------------------------------------------------------------
    # the merge

    def _merge(self) -> None:
        """Fold the pending batch into the spine (one stable timsort).

        Pending entries hold strictly later seqs than every spine entry
        (the counter is global and monotone), so seqs never need to be
        materialized: the remaining spine followed by the pending batch
        in push order *is* seq order, and a *stable* sort of that list
        by time realizes the ``(time, seq)`` tie-break.  Timsort finds
        the already-sorted spine as one run, so the cost is about a
        sort of the (small) batch plus a linear merge.
        """
        cursor = self._cursor
        times = self._spine_times[cursor:] + self._pend_times
        events = self._spine_events[cursor:] + self._pend_events
        order = sorted(range(len(times)), key=times.__getitem__)
        # In-place swaps: callers (the simulator's drain loop) hold
        # direct references to these lists, so identity must survive.
        self._spine_times[:] = map(times.__getitem__, order)
        self._spine_events[:] = map(events.__getitem__, order)
        self._cursor = 0
        self._pend_times.clear()
        self._pend_events.clear()
        self._pend_min = float("inf")

    # ------------------------------------------------------------------
    # pops

    def pop_due(self, limit: float) -> Optional[tuple[float, Any]]:
        """Pop the earliest event if its time is ``<= limit``, else ``None``.

        The whole drain step — emptiness check, horizon check,
        merge-if-needed, pop — in one call.
        """
        if self._pend_times:
            k = self._cursor
            if k >= len(self._spine_events) or self._pend_min < self._spine_times[k]:
                self._merge()
        k = self._cursor
        times = self._spine_times
        if k >= len(times):
            return None
        time = times[k]
        if time > limit:
            return None
        self._cursor = k + 1
        self._last_popped = time
        return time, self._spine_events[k]

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, event)``."""
        item = self.pop_due(float("inf"))
        if item is None:
            raise SimulationError("pop from empty event queue")
        return item

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled time, or ``None`` if empty."""
        head = (
            self._spine_times[self._cursor]
            if self._cursor < len(self._spine_events)
            else None
        )
        if self._pend_times:
            return self._pend_min if head is None else min(head, self._pend_min)
        return head

    def __len__(self) -> int:
        return (len(self._spine_events) - self._cursor) + len(self._pend_times)

    def __bool__(self) -> bool:
        return len(self) > 0
