"""The benchmark's declared shape: workloads, metrics, bounds, and the
"moves" table that says which end-to-end number each layer metric is
expected to move, on which workload.

``BENCHMARK.json`` at the repo root is generated from this module
(``run.py --write-spec``) and the smoke test asserts the two agree, so
the names printed by the harness, the names the driver reads, and the
names the README explains cannot drift apart.

Every end-to-end metric has one generic definition that every workload
fills in (the benchmark contract wants each run to report all of them);
what an *operation* and a *work unit* are is the only per-workload
choice, recorded in :data:`WORKLOADS`.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER", "RUN_SECONDS", "benchmark_spec"]

#: Seconds of timed passes per run (the driver passes it as ``--seconds``).
RUN_SECONDS = 12


class Workload(NamedTuple):
    name: str
    #: What ``attempted`` / ``failed`` count and ``op_p50_ms`` times.
    op: str
    #: What ``units_per_s`` and ``cpu_us_per_unit`` are normalised by.
    unit: str
    why: str


WORKLOADS = (
    Workload(
        "grid_small", "scenario cell", "delivered message",
        "144 small cells spec->table in-process: per-cell fixed costs "
        "(families build, processes(), small SkewFields) plus fault and "
        "mobility paths; analysis and serve do almost nothing here",
    ),
    Workload(
        "scale_large", "scenario cell", "delivered message",
        "six big static cells (n=256..512, half and uniform delays): event "
        "queue and per-event algorithm callbacks dominate, per-cell fixed "
        "costs vanish; half vs uniform splits batched-path from fallback",
    ),
    Workload(
        "analyze_render", "analysis of one execution", "field sample",
        "simulation is in set-up, so analysis, gcs and viz do all timed "
        "work: the only workload where an analysis-matrix or SVG change "
        "shows and where a sim change must show nothing",
    ),
    Workload(
        "serve_cold", "served cell", "delivered message",
        "fresh daemon and store, grids of tiny cells plus an overlapping "
        "grid: queue offer/dedup, worker pipes, one atomic store write per "
        "cell, manifest - daemon overhead per cell is a large share",
    ),
    Workload(
        "serve_warm", "request", "served cell",
        "submit+wait+fetch round trips of a 384-cell grid already in the "
        "store: store reads, manifest, JSON frames of a ~250 KB reply, no "
        "simulation; disagrees with serve_cold when reads trade for writes",
    ),
    Workload(
        "live_router", "live rung", "routed frame",
        "run_live on the router transport (128..512 nodes) plus one "
        "virtual rung; wall is pinned to duration x time_scale, so CPU per "
        "frame and the un-pinned start/collect overhead are what moves",
    ),
)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "wall of the workload's set-up, median of several, as measured"),
    # Every timing below is in seconds at the yardstick's nominal speed
    # (see yardstick.py), except on live_router.
    EndToEnd("wall_s", "s", "lower", 0.25,
             "wall of one timed pass, median over the run's passes"),
    EndToEnd("ops_per_s", "1/s", "higher", 0.25,
             "operations per second of wall_s"),
    EndToEnd("units_per_s", "1/s", "higher", 0.25,
             "work units per second of wall_s"),
    EndToEnd("op_p50_ms", "ms", "lower", 0.25,
             "median latency of a pass's operations, each operation at "
             "its median over the passes"),
    EndToEnd("op_p95_ms", "ms", "lower", 0.25,
             "95th percentile of the same samples"),
    EndToEnd("cpu_us_per_unit", "us", "lower", 0.25,
             "CPU of the median pass (this process, children it reaps, "
             "the daemon) per work unit"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "max of ru_maxrss SELF and CHILDREN for the interpreter"),
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: ``(end-to-end metric, workload)`` pairs this metric should move.
    moves: tuple


def _m(metric: str, *workloads: str) -> tuple:
    return tuple((metric, w) for w in workloads)


_SIM_SPLIT = tuple(
    PerLayer(f"sim.{stem}.{policy}", unit, better,
             _m("units_per_s", "scale_large"))
    for policy in ("half", "uniform")
    for stem, unit, better in (
        ("run_s", "s", "lower"),
        ("self_s", "s", "lower"),
        ("messages", "count", "higher"),
        ("us_per_msg", "us", "lower"),
    )
)

PER_LAYER = (
    # topology
    PerLayer("topology.build_s", "s", "lower", _m("ops_per_s", "grid_small")),
    PerLayer("topology.mobility_build_s", "s", "lower",
             _m("ops_per_s", "grid_small")),
    PerLayer("topology.nodes", "count", "higher", _m("ops_per_s", "grid_small")),
    # algorithms
    PerLayer("algorithms.build_s", "s", "lower", _m("ops_per_s", "grid_small")),
    PerLayer("algorithms.callback_s", "s", "lower",
             _m("units_per_s", "scale_large")),
    PerLayer("algorithms.callbacks", "count", "higher",
             _m("units_per_s", "scale_large")),
    # sim
    PerLayer("sim.run_s", "s", "lower",
             _m("units_per_s", "scale_large", "grid_small")),
    PerLayer("sim.self_s", "s", "lower",
             _m("units_per_s", "scale_large", "grid_small")),
    PerLayer("sim.messages", "count", "higher",
             _m("units_per_s", "scale_large", "grid_small")),
    PerLayer("sim.us_per_msg", "us", "lower",
             _m("units_per_s", "scale_large", "grid_small")),
    *_SIM_SPLIT,
    # analysis
    PerLayer("analysis.field_build_s", "s", "lower",
             _m("ops_per_s", "analyze_render")),
    PerLayer("analysis.query_s", "s", "lower", _m("ops_per_s", "analyze_render")),
    PerLayer("analysis.profile_s", "s", "lower",
             _m("ops_per_s", "analyze_render")),
    PerLayer("analysis.heatmap_s", "s", "lower",
             _m("ops_per_s", "analyze_render")),
    PerLayer("analysis.samples", "count", "higher",
             _m("units_per_s", "analyze_render")),
    # gcs
    PerLayer("gcs.check_s", "s", "lower", _m("ops_per_s", "analyze_render")),
    PerLayer("gcs.violations", "count", "lower",
             _m("ops_per_s", "analyze_render")),
    # viz
    PerLayer("viz.dashboard_s", "s", "lower", _m("ops_per_s", "analyze_render")),
    PerLayer("viz.dashboard_bytes", "count", "lower",
             _m("ops_per_s", "analyze_render")),
    PerLayer("viz.mobility_s", "s", "lower", _m("ops_per_s", "analyze_render")),
    PerLayer("viz.report_s", "s", "lower", _m("wall_s", "grid_small")),
    # sweep
    PerLayer("sweep.expand_s", "s", "lower",
             _m("ops_per_s", "grid_small", "serve_cold")),
    PerLayer("sweep.hash_s", "s", "lower",
             _m("ops_per_s", "grid_small", "serve_cold")),
    PerLayer("sweep.families_other_s", "s", "lower",
             _m("ops_per_s", "grid_small", "serve_cold")),
    PerLayer("sweep.dispatch_overhead_s", "s", "lower",
             _m("ops_per_s", "grid_small")),
    PerLayer("sweep.aggregate_s", "s", "lower", _m("ops_per_s", "grid_small")),
    PerLayer("sweep.payload_s", "s", "lower", _m("ops_per_s", "grid_small")),
    PerLayer("sweep.cache_put_s", "s", "lower",
             _m("ops_per_s", "grid_small", "serve_cold")),
    PerLayer("sweep.cache_get_s", "s", "lower",
             _m("ops_per_s", "grid_small") + _m("op_p50_ms", "serve_warm")),
    PerLayer("sweep.cells", "count", "higher", _m("ops_per_s", "grid_small")),
    # serve
    PerLayer("serve.workers", "count", "higher", _m("ops_per_s", "serve_cold")),
    PerLayer("serve.daemon_start_s", "s", "lower",
             _m("setup_s", "serve_cold", "serve_warm")),
    PerLayer("serve.connect_ms", "ms", "lower", _m("op_p95_ms", "serve_warm")),
    PerLayer("serve.submit_ms", "ms", "lower", _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.wait_ms", "ms", "lower", _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.fetch_ms", "ms", "lower", _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.fetch_bytes", "count", "lower",
             _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.frame_encode_us", "us", "lower",
             _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.frame_decode_us", "us", "lower",
             _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.store_get_us", "us", "lower",
             _m("op_p50_ms", "serve_warm")),
    PerLayer("serve.overhead_ms_per_cell", "ms", "lower",
             _m("ops_per_s", "serve_cold")),
    PerLayer("serve.store_put_us", "us", "lower", _m("ops_per_s", "serve_cold")),
    PerLayer("serve.manifest_write_ms", "ms", "lower",
             _m("ops_per_s", "serve_cold")),
    PerLayer("serve.hits", "count", "higher",
             _m("ops_per_s", "serve_cold", "serve_warm")),
    PerLayer("serve.queued", "count", "higher", _m("ops_per_s", "serve_cold")),
    PerLayer("serve.executed", "count", "higher", _m("ops_per_s", "serve_cold")),
    # rt
    PerLayer("rt.frames_routed", "count", "higher",
             _m("cpu_us_per_unit", "live_router")),
    PerLayer("rt.events", "count", "higher",
             _m("cpu_us_per_unit", "live_router")),
    PerLayer("rt.frames_dropped", "count", "lower",
             _m("cpu_us_per_unit", "live_router")),
    PerLayer("rt.parent_cpu_s", "s", "lower",
             _m("cpu_us_per_unit", "live_router")),
    PerLayer("rt.worker_cpu_s", "s", "lower",
             _m("cpu_us_per_unit", "live_router")),
    PerLayer("rt.overhead_s.line128", "s", "lower", _m("wall_s", "live_router")),
    PerLayer("rt.overhead_s.grid16x8", "s", "lower",
             _m("wall_s", "live_router")),
    PerLayer("rt.overhead_s.line512", "s", "lower", _m("wall_s", "live_router")),
    PerLayer("rt.virtual_msgs_per_s", "1/s", "higher",
             _m("wall_s", "live_router")),
    PerLayer("rt.virtual_vs_sim_ratio", "ratio", "lower",
             _m("wall_s", "live_router")),
    # the tracer itself
    PerLayer("trace.overhead_ratio", "ratio", "lower", ()),
    PerLayer("trace.coverage", "ratio", "higher", ()),
)


def benchmark_spec() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
