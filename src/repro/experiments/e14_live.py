"""E14 — sim vs live: the same algorithms, re-run on real transports.

Every other experiment measures algorithms inside the discrete-event
simulator.  E14 runs the *same* process objects through the live runtime
(:mod:`repro.rt`) on each transport backend and puts the skew numbers
side by side:

* ``sim`` — the simulator baseline (a ``benign-run`` sweep job);
* ``virtual`` — the live loop on its virtual clock, which must
  reproduce the simulator **byte for byte** (``tests/test_rt_virtual.py``
  holds trace digest, messages and clock matrices equal, so
  :data:`VIRTUAL_TOLERANCE` is zero); any gap here would mean the
  LiveNode adapter changed semantics;
* ``asyncio`` — the same loop on the wall clock, every node in one
  process: the skew gap vs sim is genuine OS scheduling noise on top of
  the injected delays;
* ``udp`` — one OS process per node over localhost UDP: adds real
  serialization, kernel queues, and cross-process clock realization;
* ``router`` — many nodes multiplexed onto a few worker processes
  around one central router socket: the scale backend.

Each live cell reports its wall-clock cost and a ``bounded`` verdict:
final skew within :func:`skew_bound` (a gradient-style ``O(diameter)``
budget).  A second table climbs a router node-count ladder
(:data:`LADDER_QUICK` / :data:`LADDER_FULL`) recording throughput
(events/sec) and the bounded verdict at each size — the runtime's
scale envelope.  Beyond the paper — the paper has no implementation;
this is the reproduction graduating from model to system.
"""

from __future__ import annotations

from repro.analysis.field import SkewField
from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult, Scale, pick
from repro.rt.run import LiveRunConfig, run_live
from repro.sweep import SweepSpec, run_jobs
from repro.sweep.families import TRANSPORT_FAMILIES

__all__ = [
    "run",
    "BACKENDS",
    "VIRTUAL_TOLERANCE",
    "skew_bound",
    "LADDER_QUICK",
    "LADDER_FULL",
    "ladder_cell",
]

#: Execution backends compared, in table order.
BACKENDS = ("sim", *TRANSPORT_FAMILIES)

#: Router-ladder topologies per scale: node counts 8 -> 512 on the two
#: shapes the paper's gradient bound distinguishes (long thin line,
#: denser grid).
LADDER_QUICK = ("line:8", "line:32")
LADDER_FULL = (
    "line:8",
    "line:32",
    "grid:8,4",
    "line:128",
    "grid:16,8",
    "line:512",
)

#: Max allowed |final-skew difference| between the simulator and a
#: virtual-time live run of the same scenario: none — the two loops
#: share event ordering, RNG streams and clock math, and the executions
#: are byte-identical.
VIRTUAL_TOLERANCE = 0.0


def skew_bound(diameter: float) -> float:
    """The ``bounded`` verdict's budget: full-diameter gradient slack.

    ``diameter + 1``: an ``f(d) = O(d)`` budget evaluated at the network
    diameter plus one distance unit of measurement slack.  Synchronized
    benign runs sit well inside it; an adapter or transport bug that
    breaks synchronization blows straight through it.
    """
    return diameter + 1.0


def ladder_cell(
    topology: str,
    *,
    duration: float,
    rho: float,
    seed: int,
    time_scale: float,
) -> dict:
    """One router-ladder rung: run live, report throughput + the verdict.

    Traces are only recorded up to 64 nodes — above that the merged
    event list dominates memory and the ladder measures throughput and
    the bounded verdict, both of which survive without a trace.
    """
    config = LiveRunConfig(
        topology=topology,
        algorithm="gradient",
        duration=duration,
        rho=rho,
        seed=seed,
        transport="router",
        time_scale=time_scale,
        record_trace=topology_nodes(topology) <= 64,
    )
    execution = run_live(config)
    skew = SkewField(execution).summary()
    live = execution.live_stats
    events, wall = int(live["events"]), live["wall_elapsed"]
    return {
        "topology": topology,
        "n_nodes": int(execution.topology.n),
        "workers": int(live["workers"]),
        "events": events,
        "events_per_sec": events / wall if wall > 0 else 0.0,
        "messages": len(execution.messages),
        "final_skew": float(skew.final_skew),
        "bounded": bool(skew.final_skew <= skew_bound(execution.topology.diameter)),
        "frames_dropped": int(live["frames_dropped"]),
        "wall_elapsed": wall,
    }


def topology_nodes(spec: str) -> int:
    """Node count of a topology spec (probe-build, used for gating)."""
    from repro.sweep.families import topology_from_spec

    return topology_from_spec(spec).n


def run(
    scale: Scale = "quick", *, rho: float = 0.2, seed: int = 0, workers: int = 1
) -> ExperimentResult:
    """Compare each algorithm's skew across sim and live transports."""
    topology = pick(scale, "line:6", "line:10")
    algorithms = ["gradient", "averaging"]
    backends = list(BACKENDS)
    duration = pick(scale, 8.0, 24.0)
    time_scale = pick(scale, 0.15, 0.1)

    # One sweep grid: every (algorithm, backend) cell takes its params
    # from Scenario.params, exactly as any other sweep's cells do.
    jobs = SweepSpec(
        name="E14",
        topologies=(topology,),
        algorithms=tuple(algorithms),
        transports=tuple(backends),
        seeds=(seed,),
        duration=duration,
        rho=rho,
        time_scale=time_scale,
    ).jobs()
    outcomes = run_jobs(jobs, workers=workers)

    cells: dict[tuple[str, str], dict] = {}
    for outcome in outcomes:
        m = outcome.metrics
        cells[(m["algorithm"], m["transport"])] = m

    table = Table(
        title="E14: sim vs live skew, same scenario on every backend",
        headers=[
            "algorithm",
            "backend",
            "max_skew",
            "final_skew",
            "d final vs sim",
            "bounded",
            "msgs",
            "wall s",
        ],
        caption=(
            f"topology {topology}, duration {duration} sim units, seed "
            f"{seed}, drifted rates, uniform delays.  'd final vs sim' is "
            f"|final_skew - sim final_skew|: 0 for the virtual backend "
            f"(deterministic replay, tolerance {VIRTUAL_TOLERANCE}), "
            f"scheduling noise for asyncio/udp.  'bounded' checks final "
            f"skew against the diameter+1 gradient budget."
        ),
    )
    comparisons: dict[str, dict] = {}
    for algorithm in algorithms:
        sim = cells[(algorithm, "sim")]
        bound = skew_bound(sim["diameter"])
        for backend in backends:
            m = cells[(algorithm, backend)]
            delta = abs(m["final_skew"] - sim["final_skew"])
            bounded = m["final_skew"] <= bound
            table.add_row(
                algorithm,
                backend,
                round(m["max_skew"], 4),
                round(m["final_skew"], 4),
                round(delta, 6),
                "yes" if bounded else "NO",
                m["messages"],
                m.get("wall_elapsed", "-"),
            )
            comparisons.setdefault(algorithm, {})[backend] = {
                "max_skew": m["max_skew"],
                "final_skew": m["final_skew"],
                "delta_vs_sim": delta,
                "bounded": bounded,
                "wall_elapsed": m.get("wall_elapsed"),
            }
    # The router node-count ladder: how far up the live runtime scales.
    ladder_topologies = pick(scale, LADDER_QUICK, LADDER_FULL)
    ladder_duration = pick(scale, 4.0, 6.0)
    ladder = [
        ladder_cell(
            spec,
            duration=ladder_duration,
            rho=rho,
            seed=seed,
            time_scale=0.1,
        )
        for spec in ladder_topologies
    ]
    ladder_table = Table(
        title="E14: router scale ladder, gradient on growing networks",
        headers=[
            "topology", "n", "workers", "events", "events/sec",
            "final_skew", "bounded", "wall s",
        ],
        caption=(
            f"router transport, duration {ladder_duration} sim units at "
            f"time_scale 0.1, seed {seed}.  'events/sec' is node "
            f"callbacks dispatched across all workers per wall second of "
            f"run_live (live_stats 'events' / 'wall_elapsed'); "
            f"'bounded' checks final skew against the diameter+1 budget."
        ),
    )
    for cell in ladder:
        ladder_table.add_row(
            cell["topology"],
            cell["n_nodes"],
            cell["workers"],
            cell["events"],
            round(cell["events_per_sec"], 1),
            round(cell["final_skew"], 4),
            "yes" if cell["bounded"] else "NO",
            round(cell["wall_elapsed"], 3),
        )

    return ExperimentResult(
        experiment_id="E14",
        title="live runtime: sim-vs-live skew across transports",
        paper_artifact=(
            "none — the paper has no implementation; this validates the "
            "live runtime against the model"
        ),
        tables=[table, ladder_table],
        notes=[
            f"{len(outcomes)} cells ({len(algorithms)} algorithms x "
            f"{len(backends)} backends), workers={workers}; udp cells "
            f"run one OS process per node, router cells multiplex nodes "
            f"onto worker processes",
            f"router ladder: {len(ladder)} sizes up to "
            f"n={max(c['n_nodes'] for c in ladder)}",
        ],
        data={
            "topology": topology,
            "backends": backends,
            "virtual_tolerance": VIRTUAL_TOLERANCE,
            "cells": comparisons,
            "ladder": ladder,
        },
    )
