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
import math
from dataclasses import dataclass, field
from operator import itemgetter
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


def _check_time(time: float, last_popped: float) -> None:
    """A push's guard: ``time`` is a number and not in the popped past.

    Written as one negated ``>=`` so a NaN time (which fails every
    comparison) fails it too, instead of entering the queue at an
    undefined place in the drain order.
    """
    if not time >= last_popped - 1e-9:
        if time != time:
            raise SimulationError(f"event time must be a number, got {time}")
        raise SimulationError(
            f"event scheduled at {time} before current time {last_popped}"
        )


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
        """Schedule ``event`` at ``time`` (a number, not in the popped past)."""
        _check_time(time, self._last_popped)
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


#: The entry closing both sorted runs of a :class:`BatchEventQueue`: its
#: ``inf`` time never wins a head comparison, so a drain reads run heads
#: without bounds checks.  Sorts are stable and it is always the last
#: entry of its list, so it stays last even beside ``inf``-time entries.
_END: tuple = (math.inf, None)

#: The sort key of a ``(time, event)`` entry.
_TIME = itemgetter(0)


class BatchEventQueue:
    """The sorted-run event queue of every loop: the simulator's
    (:class:`~repro.sim.simulator.Simulator`, which inlines its drain)
    and the live runtime's (:class:`~repro.rt.shard.ShardTransport`,
    which pops it through :meth:`pop_due` on either clock).

    Same contract as :class:`EventQueue` — events pop in ``(time, seq)``
    order, where ``seq`` is global insertion order — realized as lists of
    ``(time, event)`` entries instead of a binary heap.  Seqs are never
    stored: every list below holds its entries in seq order within each
    time, and every sort is a *stable* ``list.sort`` keyed by time, so
    the seq tie-break is a matter of which entries a list holds first.

    * the **spine**: the large sorted run, drained by advancing a cursor
      (an O(1) pop, no heap rebalancing);
    * the **run**: a second, smaller sorted run with its own cursor.  A
      pop takes the earlier of the two heads; ties go to the spine,
      because every run entry was pushed after every spine entry;
    * the **pending batch**: entries pushed since the last merge, in
      push order.  Each was pushed after every stored entry, so it can
      only precede the heads if its *time* is strictly earlier — until
      then pops come off the runs untouched.

    Nothing due after the **horizon** is stored: a run's queue is built
    with ``duration + TIME_EPS`` (``duration`` on a live wall clock),
    past which every drain stops, so a delivery or timer still in flight
    when the execution ends could never pop and a push drops it (the
    default horizon is ``inf``).

    Under a delay drawn anywhere in ``[0, d]`` (the ``uniform`` family)
    a fresh batch almost always holds an entry due before both heads,
    and the batch spans the whole spine's time range: merges are
    frequent (every ~70 events on ``line:512``) and cannot stop at a
    prefix.  So a merge never touches the spine: the batch is sorted
    into the run, costing O(run + batch log batch).  The run folds into
    the spine only once it outgrows a quarter of the remaining spine,
    which makes the fold's O(spine) cost a constant per entry folded.
    Every pop and every ``len`` sees the state the simulator's inlined
    drain loop sees.  The equivalence property tests
    (``tests/test_events.py``) drive random push/pop programs through
    this queue and :class:`EventQueue` and assert identical drain order.
    """

    def __init__(self, horizon: float = math.inf) -> None:
        #: The last instant an event may pop at (``duration + TIME_EPS``
        #: for a run): an entry due later could never pop, so a push
        #: drops it and the simulator's inlined pushes skip it.
        self._horizon = horizon
        # Both runs always end with ``_END``; the consumed prefix
        # (``[:cursor]``) is dead until the next merge or fold drops it.
        self._spine: list[tuple] = [_END]
        self._cursor = 0
        self._run: list[tuple] = [_END]
        self._run_cursor = 0
        self._pending: list[tuple] = []
        self._pend_min = math.inf
        self._last_popped = -math.inf

    # ------------------------------------------------------------------
    # pushes

    def push(self, time: float, event: Any) -> None:
        """Schedule ``event`` at ``time`` (a number, not in the popped
        past); an event due after the horizon is dropped."""
        _check_time(time, self._last_popped)
        if time > self._horizon:
            return
        self._pending.append((time, event))
        if time < self._pend_min:
            self._pend_min = time

    # ------------------------------------------------------------------
    # the merge

    def _merge(self) -> None:
        """Sort the pending batch into the run; fold a grown run into the spine.

        Lists change in place — the simulator's drain loop and node APIs
        hold direct references to them — and callers re-read both
        cursors afterwards.  The run's live entries followed by the
        batch (push order) are seq order, so one stable sort by time
        (timsort: the live run is one presorted run, the batch is small)
        restores ``(time, seq)`` order.  The spine is untouched unless
        the run now holds more than a quarter of the spine's live
        entries; then the spine's live entries followed by the run's are
        seq order again, one stable sort merges the two presorted runs,
        and the run empties.
        """
        run = self._run
        run[-1:] = self._pending
        del run[: self._run_cursor]
        run.sort(key=_TIME)
        run.append(_END)
        self._run_cursor = 0
        self._pending.clear()
        self._pend_min = math.inf
        spine = self._spine
        cursor = self._cursor
        if 4 * (len(run) - 1) > len(spine) - cursor - 1:
            spine[-1:] = run
            del spine[:cursor]
            spine.sort(key=_TIME)
            del run[:-1]
            self._cursor = 0

    # ------------------------------------------------------------------
    # pops

    def pop_due(self, limit: float) -> Optional[tuple[float, Any]]:
        """Pop the earliest event if its time is ``<= limit``, else ``None``.

        The whole drain step — merge-if-needed, emptiness check, horizon
        check, pop — in one call.
        """
        while True:
            head = self._spine[self._cursor]
            other = self._run[self._run_cursor]
            if other[0] < head[0]:
                head = other
            if self._pending and (self._pend_min < head[0] or head is _END):
                self._merge()
                continue
            break
        time = head[0]
        if head is _END or time > limit:
            return None
        if head is other:
            self._run_cursor += 1
        else:
            self._cursor += 1
        self._last_popped = time
        return head

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, event)``."""
        item = self.pop_due(math.inf)
        if item is None:
            raise SimulationError("pop from empty event queue")
        return item

    def peek_time(self) -> Optional[float]:
        """Earliest scheduled time, or ``None`` if empty."""
        if not self:
            return None
        return min(
            self._spine[self._cursor][0],
            self._run[self._run_cursor][0],
            self._pend_min,
        )

    def __len__(self) -> int:
        return (
            len(self._spine)
            - self._cursor
            + len(self._run)
            - self._run_cursor
            - 2
            + len(self._pending)
        )

    def __bool__(self) -> bool:
        return len(self) > 0
