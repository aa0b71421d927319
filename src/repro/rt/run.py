"""``run_live``: one live scenario in, one measurable ``Execution`` out.

A :class:`LiveRunConfig` names its ingredients with the same compact
spec strings the sweep engine uses (``"line:8"``, ``"gradient"``,
``"wandering"``, ``"uniform:0.25,0.75"``), so a scenario can move
between the simulator, the sweep grid, and the live runtime without
translation.  :func:`run_live` builds the pieces, dispatches to the
requested transport backend, and returns an
:class:`~repro.sim.execution.Execution` that every function in
:mod:`repro.analysis` accepts verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro._constants import DEFAULT_RHO
from repro.errors import RtError
from repro.rt.asyncio_transport import InProcAsyncioTransport
from repro.rt.node import LiveNode
from repro.rt.recorder import LiveRecorder, build_execution
from repro.rt.shard import run_shards
from repro.rt.transport import TRANSPORT_NAMES, Transport
from repro.rt.virtual import VirtualTimeTransport
from repro.sim.execution import Execution
from repro.sweep.families import (
    algorithm_from_spec,
    delay_policy_from_spec,
    rates_from_spec,
    topology_from_spec,
)

__all__ = ["LiveRunConfig", "run_live", "with_transport"]


@dataclass(frozen=True)
class LiveRunConfig:
    """One live scenario, named entirely by picklable spec strings.

    ``time_scale`` (wall seconds per simulation unit) only matters to
    the wall-clock backends; the virtual backend ignores it.

    Live churn — ``faults`` (a :mod:`repro.sim.faults` family spec such
    as ``"crash-recover:0.25,5"``) and ``mobility`` (a dynamic-topology
    family such as ``"blinking:0.2,2"``) — is implemented only by the
    ``router`` backend, whose central switch and multiplexed workers can
    drop/reroute frames and down/recover nodes mid-run; the other
    backends accept only the fault-free defaults.  ``workers`` sizes the
    router's process pool (``0`` = auto, about one worker per 16 nodes).
    """

    topology: str = "line:8"
    algorithm: str = "gradient"
    rates: str = "drifted"
    delays: str = "uniform"
    duration: float = 20.0
    rho: float = DEFAULT_RHO
    seed: int = 0
    transport: str = "virtual"
    time_scale: float = 0.1
    record_trace: bool = True
    faults: str = "none"
    mobility: str = "static"
    workers: int = 0

    def __post_init__(self) -> None:
        if self.transport not in TRANSPORT_NAMES:
            raise RtError(
                f"unknown transport {self.transport!r}; "
                f"backends: {list(TRANSPORT_NAMES)}"
            )
        if self.duration <= 0:
            raise RtError(f"duration must be positive, got {self.duration}")
        if self.time_scale <= 0:
            raise RtError(f"time_scale must be positive, got {self.time_scale}")
        if self.workers < 0:
            raise RtError(f"workers must be >= 0, got {self.workers}")
        if self.transport != "router":
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
    if config.transport in ("udp", "router"):
        return run_shards(config, tail=tail)

    topology = topology_from_spec(config.topology)
    algorithm = algorithm_from_spec(config.algorithm)
    schedules = rates_from_spec(
        config.rates, topology, rho=config.rho, seed=config.seed,
        horizon=config.duration,
    )
    recorder = LiveRecorder(
        record_trace=config.record_trace,
        tap=tail.event if tail is not None else None,
    )
    delay_policy = delay_policy_from_spec(config.delays)
    transport: Transport
    if config.transport == "virtual":
        transport = VirtualTimeTransport(
            recorder=recorder, delay_policy=delay_policy, seed=config.seed
        )
    else:
        transport = InProcAsyncioTransport(
            recorder=recorder,
            delay_policy=delay_policy,
            seed=config.seed,
            time_scale=config.time_scale,
        )
    processes = algorithm.processes(topology)
    nodes = {
        node: LiveNode(
            node,
            processes[node],
            topology=topology,
            schedule=schedules[node],
            rho=config.rho,
            seed=config.seed,
            transport=transport,
            recorder=recorder,
        )
        for node in topology.nodes
    }
    transport.run(nodes, config.duration)
    if tail is not None:
        tail.close()
    return build_execution(
        topology=topology,
        duration=config.duration,
        rho=config.rho,
        hardware={n: nodes[n].hardware for n in topology.nodes},
        logical={n: nodes[n].logical for n in topology.nodes},
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
