"""``run_live``: one live scenario in, one measurable ``Execution`` out.

A :class:`LiveRunConfig` *is* a
:class:`~repro.sweep.scenario.Scenario` — the nine cell fields the sweep
engine and the simulator use — plus the four fields that say how to run
it live, so a scenario moves between the simulator, the sweep grid, and
the live runtime without translation.  :func:`run_live` builds the cell
(:meth:`Scenario.build`, the same build the simulator path uses),
hosts it on the one live loop — in this process, or sharded over forked
workers — and returns an :class:`~repro.sim.execution.Execution` that
every function in :mod:`repro.analysis` accepts verbatim, with the
run's counters and wall seconds in ``live_stats``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from repro.errors import RtError
from repro.rt.recorder import build_execution
from repro.rt.shard import host_shard, run_shards
from repro.sim.execution import Execution
from repro.sweep.families import TRANSPORT_FAMILIES
from repro.sweep.scenario import Scenario

__all__ = ["LiveRunConfig", "run_live", "with_transport"]


@dataclass(frozen=True, kw_only=True)
class LiveRunConfig(Scenario):
    """One live scenario: a :class:`Scenario` plus how to run it live.

    ``time_scale`` (wall seconds per simulation unit) only matters to
    the wall-clock backends; the virtual backend ignores it.

    Every backend runs every cell: non-default ``faults`` / ``mobility``
    are executed by the one live loop the way the simulator executes
    them, whatever the transport.  ``workers`` sizes the router's
    process pool (``0`` = auto, about one worker per 16 nodes).
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


def run_live(config: LiveRunConfig, *, tail=None) -> Execution:
    """Execute one live scenario on its configured transport backend.

    ``tail`` is an optional :class:`~repro.viz.tail.StreamingTail` (or
    anything with its ``event`` / ``frame`` / ``stats`` / ``close``
    surface): the in-process backends feed it every trace event through
    the recorder tap, ``router`` taps frames at the central switch, and
    ``udp`` mirrors sent frames to a parent-side tap socket — so rolling
    panels render *while the run executes*.
    """
    started = time.perf_counter()
    cell = config.build()
    if TRANSPORT_FAMILIES[config.transport].forks:
        reports, switch = run_shards(config, cell, tail=tail)
        workers = len(reports)
    else:
        # The shard of every node, in this process, with no pipe.
        tap = tail.event if tail is not None else None
        reports = [host_shard(config, cell, cell.topology.nodes, tap=tap)]
        switch, workers = None, 0
    return build_execution(
        config, cell, reports,
        workers=workers, switch=switch, tail=tail, started=started,
    )


def with_transport(config: LiveRunConfig, transport: str) -> LiveRunConfig:
    """The same scenario on a different backend (E14's comparison axis)."""
    return replace(config, transport=transport)
