"""Execution traces.

Section 3's indistinguishability principle: a node behaves identically in
two executions if the same actions occur in the same order at the same
*hardware clock readings*.  A :class:`TraceEvent` therefore records, for
every action, both the real time (the adversary's view) and the hardware
reading (the node's view).  Comparing per-node projections on hardware
readings is exactly the executable form of the principle, implemented in
:mod:`repro.gcs.indistinguishability`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "TraceEvent",
    "ExecutionTrace",
    "ColumnarTrace",
    "SEND",
    "RECEIVE",
    "TIMER",
    "JUMP",
    "RATE",
    "START",
    "CRASH",
    "RECOVER",
    "TOPOLOGY",
]

SEND = "send"
RECEIVE = "receive"
TIMER = "timer"
JUMP = "jump"
RATE = "rate"
START = "start"
CRASH = "crash"
RECOVER = "recover"
#: A dynamic-topology change-point (adversary-side, not node-observable;
#: recorded with ``node = -1`` so no node's local projection sees it).
TOPOLOGY = "topology"


@dataclass(frozen=True)
class TraceEvent:
    """One observable action.

    Attributes
    ----------
    real_time:
        When the action happened on the adversary's wall clock.
    node:
        Where it happened.
    hardware:
        The node's hardware clock reading at that instant — the only
        timestamp the node itself can see.
    logical:
        The node's logical clock value just after the action.
    kind:
        One of ``send / receive / timer / jump / start``.
    detail:
        Kind-specific payload: peer node and message payload for
        ``send``/``receive``, timer name for ``timer``, jump size for
        ``jump``.
    """

    real_time: float
    node: int
    hardware: float
    logical: float
    kind: str
    detail: Any = None


@dataclass
class ExecutionTrace:
    """All actions of one execution, in global (time, insertion) order."""

    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def for_node(self, node: int) -> list[TraceEvent]:
        """The node's local view, in order of occurrence."""
        return [e for e in self.events if e.node == node]

    def of_kind(self, *kinds: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind in kinds]

    def until(self, real_time: float) -> "ExecutionTrace":
        """The prefix of the trace up to and including ``real_time``."""
        return ExecutionTrace([e for e in self.events if e.real_time <= real_time])

    def local_observations(self, node: int) -> list[tuple[str, float, Any]]:
        """The node-visible projection: ``(kind, hardware_reading, detail)``.

        Real times and logical values are dropped: two executions are
        indistinguishable to a node iff these projections match.  (The
        logical value is a function of the observations, so it is redundant;
        keeping it out makes the comparison a genuine observation check.)
        """
        return [(e.kind, e.hardware, e.detail) for e in self.for_node(node)]

    def digest(self) -> str:
        """Canonical SHA-256 of the trace.

        Computed over the ``repr`` of every event in order — the exact
        blob the sweep engine's ``trace_digest`` probe has always
        hashed, single-sourced so the reference-vs-production
        equivalence harness and the sweep cache compare the same bytes.
        """
        blob = "\n".join(repr(e) for e in self.events)
        return hashlib.sha256(blob.encode()).hexdigest()


class ColumnarTrace(ExecutionTrace):
    """A trace recorded as raw field rows, materialized lazily.

    The simulator appends one plain tuple
    ``(real_time, node, hardware, logical, kind, detail)`` per action in
    its hot loop and only pays for :class:`TraceEvent` construction if
    the trace is actually read — measurements that never touch the trace
    (long benign sweeps) skip the cost entirely.  Once materialized, the
    events replace the rows (a traced run is held once, not twice) and
    are indistinguishable from a trace recorded event by event:
    equality, iteration, projections, and :meth:`digest` all see
    identical :class:`TraceEvent` values.
    """

    def __init__(self, rows: list[tuple] | None = None):
        self._rows: list[tuple] | None = rows if rows is not None else []
        self._events: list[TraceEvent] | None = None

    @property
    def events(self) -> list[TraceEvent]:  # type: ignore[override]
        if self._events is None:
            self._events = [TraceEvent(*row) for row in self._rows]
            self._rows = None
        return self._events

    def __len__(self) -> int:
        return len(self._events if self._rows is None else self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExecutionTrace):
            return self.events == other.events
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]
