"""Live runtime throughput: virtual-time scheduling rate, asyncio overhead.

Run with pytest (``python -m pytest benchmarks/bench_rt.py -s``) or
directly (``python benchmarks/bench_rt.py``).  Two measurements:

* **virtual-time scheduler events/sec** — a long gradient run on the
  deterministic virtual-time transport, reported as dispatched events
  per second.  This is the runtime's scale vehicle: the same adapter
  path the wall-clock backends use, minus the sleeping, so its
  throughput bounds how much experiment the runtime can host per core.
* **asyncio end-to-end wall clock** — a wall-clock run at a known
  ``time_scale``; the interesting number is *overhead*: measured wall
  time over the ideal ``duration * time_scale``.  The loop must track
  real time, so overhead beyond a few tens of percent would mean the
  transport is falling behind its own schedule.
"""

from __future__ import annotations

import sys
import time

from repro.analysis.reporting import Table
from repro.rt import LiveRunConfig, host_nodes, run_live
from repro.rt.recorder import LiveRecorder
from repro.rt.virtual import VirtualTimeTransport

#: Virtual-run shape: long enough that per-event cost dominates setup.
VIRTUAL_CONFIG = LiveRunConfig(
    topology="line:16",
    algorithm="gradient:0.5",
    rates="drifted",
    delays="uniform",
    duration=200.0,
    rho=0.2,
    seed=0,
    transport="virtual",
    record_trace=False,
)

ASYNCIO_CONFIG = LiveRunConfig(
    topology="line:6",
    algorithm="gradient",
    duration=10.0,
    rho=0.2,
    seed=0,
    transport="asyncio",
    time_scale=0.05,
)

#: Floor for the virtual scheduler; real numbers are far higher — this
#: only catches pathological regressions (e.g. quadratic dispatch).
MIN_EVENTS_PER_SEC = 5_000

#: Allowed asyncio wall-clock overhead factor over duration*time_scale.
MAX_ASYNCIO_OVERHEAD = 2.0


def test_virtual_events_per_sec():
    # Drive the transport directly (the run_live plumbing minus the
    # Execution assembly) so events_processed is the measured quantity.
    cfg = VIRTUAL_CONFIG
    cell = cfg.build()
    recorder = LiveRecorder(record_trace=False)
    transport = VirtualTimeTransport(
        recorder=recorder, delay_policy=cell.delay_policy, seed=cfg.seed
    )
    nodes = host_nodes(
        cfg, cell, cell.topology.nodes, transport=transport, recorder=recorder
    )
    start = time.perf_counter()
    transport.run(nodes, cfg.duration)
    elapsed = time.perf_counter() - start
    events_per_sec = transport.events_processed / elapsed

    table = Table(
        title="bench_rt: virtual-time scheduler throughput",
        headers=["metric", "value"],
        caption=f"{cfg.topology}, {cfg.duration} sim units of "
        f"{cfg.algorithm}; floor {MIN_EVENTS_PER_SEC} events/s.",
    )
    table.add_row("wall seconds", round(elapsed, 3))
    table.add_row("events dispatched", transport.events_processed)
    table.add_row("messages sent", len(recorder.messages))
    table.add_row("events/sec", int(events_per_sec))
    print("\n" + table.render())
    assert events_per_sec >= MIN_EVENTS_PER_SEC, (
        f"virtual scheduler only {events_per_sec:.0f} events/s"
    )


def test_asyncio_end_to_end():
    ideal = ASYNCIO_CONFIG.duration * ASYNCIO_CONFIG.time_scale
    start = time.perf_counter()
    execution = run_live(ASYNCIO_CONFIG)
    elapsed = time.perf_counter() - start
    overhead = elapsed / ideal

    table = Table(
        title="bench_rt: asyncio backend end-to-end wall clock",
        headers=["metric", "value"],
        caption=f"{ASYNCIO_CONFIG.topology}, {ASYNCIO_CONFIG.duration} sim "
        f"units at time_scale {ASYNCIO_CONFIG.time_scale}; overhead cap "
        f"{MAX_ASYNCIO_OVERHEAD}x ideal.",
    )
    table.add_row("ideal seconds", round(ideal, 3))
    table.add_row("wall seconds", round(elapsed, 3))
    table.add_row("overhead", round(overhead, 3))
    table.add_row("messages delivered", len(execution.messages))
    table.add_row("final max skew", round(execution.max_skew(execution.duration), 4))
    print("\n" + table.render())
    assert overhead <= MAX_ASYNCIO_OVERHEAD, (
        f"asyncio backend took {overhead:.2f}x its ideal wall time"
    )


if __name__ == "__main__":  # pragma: no cover
    test_virtual_events_per_sec()
    test_asyncio_end_to_end()
    print("\nbench_rt: ok")
    sys.exit(0)
