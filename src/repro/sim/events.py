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

import numpy as np

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
      spine drains) the whole batch is stable-sorted by time (numpy
      ``argsort``; stability supplies the seq tie-break) and merged in
      one vectorized pass.

    Periodic-broadcast gossip schedules whole epochs of future firings
    between consecutive pops, so merges are rare and large — the
    amortized cost per event is a couple of array reads.  The
    equivalence property test (``tests/test_events.py``) drives random
    push/pop interleavings through both queues and asserts identical
    drain order.
    """

    def __init__(self) -> None:
        # The spine is kept as plain python lists (cheap scalar reads in
        # the drain loop); merges round-trip through numpy.
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
        """Fold the pending batch into the spine (one vectorized sort).

        Pending entries hold strictly later seqs than every spine entry
        (the counter is global and monotone), so seqs never need to be
        materialized: a *stable* sort of the batch by time realizes the
        within-batch seq tie-break, and inserting each pending event
        *after* the last equal-time spine entry (``side="right"``)
        realizes it across the batch boundary.
        """
        pend_times = np.asarray(self._pend_times, dtype=float)
        order = np.argsort(pend_times, kind="stable")
        pend_times = pend_times[order]

        rem_times = self._spine_times[self._cursor :]
        # Remaining spine events, then pending ones in push order: the
        # merged events are one permutation of this list.
        combined = self._spine_events[self._cursor :] + self._pend_events
        n_rem = len(rem_times)
        if not n_rem:
            merged_times = pend_times.tolist()
            perm = order
        else:
            pos = np.searchsorted(
                np.asarray(rem_times, dtype=float), pend_times, side="right"
            )
            total = n_rem + order.size
            pend_slots = pos + np.arange(order.size)
            take_pending = np.zeros(total, dtype=bool)
            take_pending[pend_slots] = True
            merged = np.empty(total, dtype=float)
            merged[take_pending] = pend_times
            merged[~take_pending] = rem_times
            merged_times = merged.tolist()
            perm = np.empty(total, dtype=np.intp)
            perm[pend_slots] = order + n_rem
            perm[~take_pending] = np.arange(n_rem)
        # Gather with python ints (C-level map) — indexing a list with
        # numpy integers is several times slower.
        merged_events = list(map(combined.__getitem__, perm.tolist()))
        # In-place swaps: callers (the simulator's drain loop) hold
        # direct references to these lists, so identity must survive.
        self._spine_times[:] = merged_times
        self._spine_events[:] = merged_events
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
