"""Recording live runs as real :class:`~repro.sim.execution.Execution`s.

The whole point of the runtime is that a live run is *measurable with
the same code* as a simulated one: ``repro.analysis`` skew summaries,
gradient profiles, convergence metrics, and the model-compliance checks
all operate on an :class:`Execution`.  A :class:`LiveRecorder` therefore
collects exactly what the simulator collects — trace events and sent
messages — and :func:`build_execution` assembles the shard reports of a
run (recorders, per-node clocks, counters) into an ``Execution`` whose
``source`` names the transport it came from and whose ``live_stats``
carry the run's transport counters and wall seconds.

Every shard records locally — the one in-process shard of ``virtual`` /
``asyncio``, or each forked worker of ``udp`` / ``router``, which ships
its recorder home; :func:`merge_recorders` splices the per-shard views
into one globally time-ordered record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro._constants import TIME_EPS
from repro.sim.clock import LogicalClock
from repro.sim.execution import Execution
from repro.sim.messages import Message
from repro.sim.trace import ExecutionTrace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.rt.run import LiveRunConfig
    from repro.sweep.scenario import Cell

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
    config: "LiveRunConfig",
    cell: "Cell",
    reports: list[dict],
    *,
    workers: int,
    switch=None,
    tail=None,
    started: float,
) -> Execution:
    """Assemble the shard reports of a finished live run into an ``Execution``.

    ``reports`` are :func:`~repro.rt.shard.host_shard`'s, one per shard
    (exactly one for an in-process run, with ``workers=0``), each with
    its fault controller's counters, summed into ``fault_stats``
    (``None`` without a plan, as in the simulator); ``switch`` is the
    ``router`` frame switch, whose wire counters join the shards' in
    ``live_stats``.  A streaming ``tail`` sees the final counters and is
    closed.  ``started`` is the ``perf_counter`` reading at the top of
    ``run_live``: the run's wall seconds are taken once, here.
    """
    recorder = merge_recorders([report["recorder"] for report in reports])
    logical: dict[int, LogicalClock] = {}
    for report in reports:
        logical.update(report["logical"])
    fault_stats = None
    if cell.fault_plan is not None:
        fault_stats = {}
        for report in reports:
            for key, value in report["stats"].items():
                fault_stats[key] = fault_stats.get(key, 0) + value
    # The change-points the loop put on its heap (the simulator's rule).
    dynamic = cell.dynamic
    timeline = None
    if dynamic is not None and not dynamic.is_static():
        timeline = tuple(
            (t, topo) for t, topo in dynamic.snapshots
            if t <= config.duration + TIME_EPS
        )
    # Wire counters: the switch's (zero without one) plus the shards' drops.
    wire = (
        switch.counters() if switch is not None
        else {"frames_routed": 0, "frames_dropped": 0}
    )
    wire["frames_dropped"] += sum(report["frames_dropped"] for report in reports)
    if tail is not None:
        tail.stats(config.duration, **wire)
        tail.close()
    return Execution(
        topology=cell.topology,
        duration=config.duration,
        rho=config.rho,
        hardware={node: logical[node].hardware for node in cell.topology.nodes},
        logical=logical,
        trace=ExecutionTrace(recorder.events),
        messages=recorder.messages,
        fault_stats=fault_stats,
        source=f"live-{config.transport}",
        topology_timeline=timeline,
        # One key set with one meaning on every transport name.
        live_stats={
            # OS processes forked for the run (none in-process).
            "workers": workers,
            # Frames forwarded by the switch (``router`` only).
            "frames_routed": wire["frames_routed"],
            # Malformed or misdirected datagrams, switch and shards.
            "frames_dropped": wire["frames_dropped"],
            # Node callbacks dispatched: deliveries + timer firings.
            "events": sum(report["events"] for report in reports),
            "wall_elapsed": time.perf_counter() - started,
        },
    )
