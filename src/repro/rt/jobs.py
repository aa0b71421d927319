"""The ``live-run`` sweep job kind: live transports as a scenario axis.

Registering a job kind makes the runtime a first-class citizen of the
sweep engine: a :class:`~repro.sweep.spec.SweepSpec` whose
``transports`` axis names live backends expands into ``live-run`` cells
next to the ``benign-run`` simulator cells, and the aggregate tables
line them up by the shared metric names.  The metrics dict mirrors
``benign-run``'s exactly (plus ``transport``, ``frames_dropped``, and
``wall_elapsed``), so every downstream consumer — summary tables, JSON
artifacts, E14 — treats sim and live rows uniformly.  Router cells may
additionally carry non-default ``faults`` / ``mobility`` params: live
churn, counted in ``fault_events`` and ``rewirings`` like a simulator
cell.

Caveat for grids: ``udp`` and ``router`` cells spawn OS processes,
which daemonic pool workers may not do — run those cells at
``workers=1`` (the sweep runner's serial path); the in-process backends
parallelize freely.
"""

from __future__ import annotations

import time
from typing import Any, Mapping

from repro.analysis.field import SkewField
from repro.rt.run import LiveRunConfig, run_live
from repro.sweep.families import topology_from_spec
from repro.sweep.jobs import job_kind

__all__ = ["live_run"]


@job_kind("live-run")
def live_run(params: Mapping[str, Any]) -> dict:
    """One live scenario cell -> the ``benign-run`` metric schema.

    Params: ``topology``, ``algorithm``, ``rates``, ``delays``,
    ``transport``, ``duration``, ``rho``, ``seed``, optional ``step``,
    ``time_scale``, ``settle_threshold``, and — router cells only —
    ``faults`` and ``mobility``.
    """
    topology = topology_from_spec(params["topology"])
    step = float(params.get("step", 1.0))
    config = LiveRunConfig(
        topology=str(params["topology"]),
        algorithm=str(params["algorithm"]),
        rates=str(params["rates"]),
        delays=str(params["delays"]),
        duration=float(params["duration"]),
        rho=float(params["rho"]),
        seed=int(params["seed"]),
        transport=str(params["transport"]),
        time_scale=float(params.get("time_scale", 0.1)),
        faults=str(params.get("faults", "none")),
        mobility=str(params.get("mobility", "static")),
    )
    wall_start = time.perf_counter()
    execution = run_live(config)
    wall_elapsed = time.perf_counter() - wall_start
    # Same batched measurement path as ``benign-run``: one SkewField,
    # every metric answered from its trajectory matrix.
    field = SkewField(execution, step=step)
    skew = field.summary()
    threshold = float(
        params.get("settle_threshold", 2.0 * topology.diameter * config.rho)
    )
    settled = field.settling_time(threshold)
    tail = field.steady_state()
    stats = execution.fault_stats or {}
    live = execution.live_stats or {}
    # Same convention as ``benign-run``: count *delivered* messages, so
    # crash-suppressed deliveries don't inflate live rows.
    messages = (
        len(execution.messages)
        - stats.get("lost_receiver_down", 0)
        - stats.get("lost_in_flight", 0)
    )
    return {
        "topology": config.topology,
        "algorithm": config.algorithm,
        "rates": config.rates,
        "delays": config.delays,
        "faults": config.faults,
        "mobility": config.mobility,
        "transport": config.transport,
        "seed": config.seed,
        "n_nodes": int(topology.n),
        "diameter": float(topology.diameter),
        "max_skew": float(skew.max_skew),
        "max_adjacent_skew": float(skew.max_adjacent_skew),
        "final_skew": float(skew.final_skew),
        "final_adjacent_skew": float(skew.final_adjacent_skew),
        "mean_abs_skew": float(skew.mean_abs_skew),
        "settling_time": None if settled is None else float(settled),
        "settle_threshold": threshold,
        "steady_mean_max_skew": float(tail.mean_max_skew),
        "steady_worst_adjacent_skew": float(tail.worst_adjacent_skew),
        "messages": messages,
        "fault_events": stats,
        "rewirings": (
            0
            if execution.topology_timeline is None
            else len(execution.topology_timeline) - 1
        ),
        # Wire-level drop count (malformed/misdirected frames), distinct
        # from the injected losses inside ``fault_events``.
        "frames_dropped": int(live.get("frames_dropped", 0)),
        # Transport counters for sweep reports: udp and router cells
        # count frames crossing the switch (none on udp) and callback
        # events, and carry their process count; the in-process backends
        # have no wire and no workers.
        "frames_routed": int(live.get("frames_routed", 0)),
        "events": int(live.get("events", 0)),
        "workers": int(live.get("workers", 0)),
        "wall_elapsed": round(wall_elapsed, 4),
    }
