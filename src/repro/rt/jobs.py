"""The ``live-run`` sweep job kind: live transports as a scenario axis.

Registering a job kind makes the runtime a first-class citizen of the
sweep engine: a :class:`~repro.sweep.spec.SweepSpec` whose
``transports`` axis names live backends expands into ``live-run`` cells
next to the ``benign-run`` simulator cells, and the aggregate tables
line them up by the shared metric names.  The row *is* ``benign-run``'s
— both come from :func:`repro.sweep.scenario.cell_metrics` — plus the
live counters (``frames_dropped``, ``frames_routed``, ``events``,
``workers``, ``wall_elapsed``), so every downstream consumer — summary
tables, JSON artifacts, E14 — treats sim and live rows uniformly, and
rows of one cell agree on every scenario-derived key.  Cells on any
transport may carry non-default ``faults`` / ``mobility`` params: live
churn, counted in ``fault_events`` and ``rewirings`` like a simulator
cell — and on ``virtual``, to the very same counts.

``udp`` and ``router`` cells spawn OS processes, which daemonic pool
workers may not do: ``run_jobs`` runs those cells in the calling
process, one at a time, after its pool has drained; the in-process
backends parallelize freely.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.rt.run import LiveRunConfig, run_live
from repro.sweep.jobs import job_kind
from repro.sweep.scenario import cell_metrics

__all__ = ["live_run"]


@job_kind("live-run")
def live_run(params: Mapping[str, Any]) -> dict:
    """One live scenario cell -> the ``benign-run`` metric schema.

    Params: the nine :class:`~repro.sweep.scenario.Scenario` fields and
    ``transport``, plus optional ``step``, ``time_scale`` and
    ``settle_threshold``.
    """
    config = LiveRunConfig.from_params(
        params,
        transport=str(params["transport"]),
        time_scale=float(params.get("time_scale", 0.1)),
    )
    execution = run_live(config)
    live = execution.live_stats
    return {
        **cell_metrics(
            config,
            execution,
            transport=config.transport,
            step=float(params.get("step", 1.0)),
            settle_threshold=params.get("settle_threshold"),
        ),
        # Wire-level drop count (malformed/misdirected frames), distinct
        # from the injected losses inside ``fault_events``.
        "frames_dropped": int(live["frames_dropped"]),
        # Transport counters for sweep reports: frames crossing the
        # switch (router only), node callbacks dispatched, and forked
        # processes (none for the in-process names).
        "frames_routed": int(live["frames_routed"]),
        "events": int(live["events"]),
        "workers": int(live["workers"]),
        "wall_elapsed": round(live["wall_elapsed"], 4),
    }
