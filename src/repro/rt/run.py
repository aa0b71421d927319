"""``run_live``: one live scenario in, one measurable ``Execution`` out.

A :class:`LiveRunConfig` *is* a
:class:`~repro.sweep.scenario.Scenario` — the nine cell fields the sweep
engine and the simulator use — plus the four fields that say how to run
it live, so a scenario moves between the simulator, the sweep grid, and
the live runtime without translation.  :func:`run_live` builds the cell
(:meth:`Scenario.build`, the same build the simulator path uses),
dispatches to the requested transport backend, and returns an
:class:`~repro.sim.execution.Execution` that every function in
:mod:`repro.analysis` accepts verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import RtError
from repro.rt.asyncio_transport import InProcAsyncioTransport
from repro.rt.node import host_nodes
from repro.rt.recorder import LiveRecorder, build_execution
from repro.rt.shard import run_shards
from repro.rt.transport import Transport
from repro.rt.virtual import VirtualTimeTransport
from repro.sim.execution import Execution
from repro.sweep.families import TRANSPORT_FAMILIES
from repro.sweep.scenario import Scenario

__all__ = ["LiveRunConfig", "run_live", "with_transport"]


@dataclass(frozen=True, kw_only=True)
class LiveRunConfig(Scenario):
    """One live scenario: a :class:`Scenario` plus how to run it live.

    ``time_scale`` (wall seconds per simulation unit) only matters to
    the wall-clock backends; the virtual backend ignores it.

    Live churn — non-default ``faults`` / ``mobility`` — is implemented
    only by the ``router`` backend, whose central switch and multiplexed
    workers can drop/reroute frames and down/recover nodes mid-run; the
    other backends accept only the fault-free defaults.  ``workers``
    sizes the router's process pool (``0`` = auto, about one worker per
    16 nodes).
    """

    transport: str = "virtual"
    time_scale: float = 0.1
    record_trace: bool = True
    workers: int = 0

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORT_FAMILIES:
            raise RtError(
                f"unknown transport {self.transport!r}; "
                f"backends: {list(TRANSPORT_FAMILIES)}"
            )
        if self.duration <= 0:
            raise RtError(f"duration must be positive, got {self.duration}")
        if self.time_scale <= 0:
            raise RtError(f"time_scale must be positive, got {self.time_scale}")
        if self.workers < 0:
            raise RtError(f"workers must be >= 0, got {self.workers}")
        if not TRANSPORT_FAMILIES[self.transport].churn:
            if self.faults != "none":
                raise RtError(
                    f"transport {self.transport!r} cannot inject faults "
                    f"(faults={self.faults!r}); live churn needs "
                    f"transport='router'"
                )
            if self.mobility != "static":
                raise RtError(
                    f"transport {self.transport!r} cannot rewire mid-run "
                    f"(mobility={self.mobility!r}); live churn needs "
                    f"transport='router'"
                )


def run_live(config: LiveRunConfig, *, tail=None) -> Execution:
    """Execute one live scenario on its configured transport backend.

    ``tail`` is an optional :class:`~repro.viz.tail.StreamingTail` (or
    anything with its ``event`` / ``frame`` / ``stats`` / ``close``
    surface): the in-process backends feed it every trace event through
    the recorder tap, ``router`` taps frames at the central switch, and
    ``udp`` mirrors sent frames to a parent-side tap socket — so rolling
    panels render *while the run executes*.
    """
    if TRANSPORT_FAMILIES[config.transport].forks:
        return run_shards(config, tail=tail)

    cell = config.build()
    recorder = LiveRecorder(
        record_trace=config.record_trace,
        tap=tail.event if tail is not None else None,
    )
    transport: Transport
    if config.transport == "virtual":
        transport = VirtualTimeTransport(
            recorder=recorder, delay_policy=cell.delay_policy, seed=config.seed
        )
    else:
        transport = InProcAsyncioTransport(
            recorder=recorder,
            delay_policy=cell.delay_policy,
            seed=config.seed,
            time_scale=config.time_scale,
        )
    nodes = host_nodes(
        config, cell, cell.topology.nodes, transport=transport, recorder=recorder
    )
    transport.run(nodes, config.duration)
    if tail is not None:
        tail.close()
    return build_execution(
        topology=cell.topology,
        duration=config.duration,
        rho=config.rho,
        hardware={n: live.hardware for n, live in nodes.items()},
        logical={n: live.logical for n, live in nodes.items()},
        recorder=recorder,
        source=f"live-{config.transport}",
        # Every live backend reports transport counters; the in-process
        # ones have no wire, so their drop count is structurally zero
        # (live_stats is a dict on *all* live runs — callers never
        # need a None guard to tell live from simulated).
        live_stats={
            "frames_dropped": 0,
            "events": len(recorder.events),
        },
    )


def with_transport(config: LiveRunConfig, transport: str) -> LiveRunConfig:
    """The same scenario on a different backend (E14's comparison axis)."""
    return replace(config, transport=transport)
