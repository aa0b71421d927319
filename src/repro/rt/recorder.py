"""Recording live runs as real :class:`~repro.sim.execution.Execution`s.

The whole point of the runtime is that a live run is *measurable with
the same code* as a simulated one: ``repro.analysis`` skew summaries,
gradient profiles, convergence metrics, and the model-compliance checks
all operate on an :class:`Execution`.  A :class:`LiveRecorder` therefore
collects exactly what the simulator collects — trace events and sent
messages — and :func:`build_execution` assembles them, together with the
per-node clocks, into an ``Execution`` whose ``source`` names the
transport it came from.

On the multi-process shard runtime (``udp`` / ``router``) every worker
process records locally and ships its recorder state home;
:func:`merge_recorders` splices the per-shard views into one globally
time-ordered record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.execution import Execution
from repro.sim.messages import Message
from repro.sim.trace import ExecutionTrace, TraceEvent
from repro.topology.base import Topology

__all__ = ["LiveRecorder", "merge_recorders", "build_execution"]


@dataclass
class LiveRecorder:
    """What one live run (or one node of a distributed run) observed.

    ``tap`` is an optional per-event callback (a streaming tail's
    ``event`` entry point): it sees every event as it happens, even when
    ``record_trace`` is off, and is never shipped across processes —
    the distributed backends construct their recorders child-side
    without one.
    """

    record_trace: bool = True
    events: list[TraceEvent] = field(default_factory=list)
    messages: list[Message] = field(default_factory=list)
    tap: Optional[Callable[[TraceEvent], None]] = field(
        default=None, compare=False
    )

    def record(self, event: TraceEvent) -> None:
        if self.record_trace:
            self.events.append(event)
        if self.tap is not None:
            self.tap(event)

    def add_message(self, message: Message) -> None:
        self.messages.append(message)


def merge_recorders(recorders: list[LiveRecorder]) -> LiveRecorder:
    """Splice per-node recorders into one global, time-ordered record.

    Each node's events are already in its local causal order; the merge
    sorts by real time with the sort kept *stable*, so same-instant
    events keep their per-node order — the property every trace query
    relies on.
    """
    merged = LiveRecorder(record_trace=any(r.record_trace for r in recorders))
    for recorder in recorders:
        merged.events.extend(recorder.events)
        merged.messages.extend(recorder.messages)
    merged.events.sort(key=lambda e: e.real_time)
    merged.messages.sort(key=lambda m: (m.send_time, m.seq))
    return merged


def build_execution(
    *,
    topology: Topology,
    duration: float,
    rho: float,
    hardware: dict[int, HardwareClock],
    logical: dict[int, LogicalClock],
    recorder: LiveRecorder,
    source: str,
    fault_stats: dict | None = None,
    topology_timeline: tuple | None = None,
    live_stats: dict | None = None,
) -> Execution:
    """Assemble the finished live run into a measurable ``Execution``.

    ``fault_stats`` and ``topology_timeline`` carry live churn (the
    router backend runs :class:`~repro.sim.faults.FaultPlan` windows and
    :class:`~repro.topology.dynamic.DynamicTopology` rewirings on real
    transports); ``live_stats`` carries transport-level counters such as
    the aggregate dropped-frame count.
    """
    return Execution(
        topology=topology,
        duration=duration,
        rho=rho,
        hardware=dict(hardware),
        logical=dict(logical),
        trace=ExecutionTrace(list(recorder.events)),
        messages=list(recorder.messages),
        fault_stats=fault_stats,
        source=source,
        topology_timeline=topology_timeline,
        live_stats=live_stats,
    )
