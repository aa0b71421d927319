"""Benchmark: the production simulator loop vs. the naive reference loop.

The workload is the E15 bottleneck shape — periodic max-based gossip on a
256-node line under drifted (per-node constant) rates — which is what
capped realistic scale runs near D≈512 while the reference loop
(``repro.sim.reference``, one heap pop and one ``TraceEvent`` per event)
was the only loop.  Nothing selects between the two at run time: this
file imports the reference loop directly, the way the differential tests
do, and ``run_simulation`` can only run the production loop.

Two ratios are reported:

* **at-scale** — the reference loop traced (``record_trace=True``, exactly
  how every experiment ran while it was the default) vs. the production
  loop in its at-scale configuration (``record_trace=False``, which lets
  it skip clock materialization entirely).  This is the "what E15 paid
  before vs. after" number and the one the ``REQUIRED_SPEEDUP`` floor
  applies to.
* **same-config** — both loops untraced.  Structurally smaller because
  the per-event algorithm callbacks (pure python, identical under both
  loops) dominate once tracing is off.  Recorded in the headline JSON
  un-floored, for honesty.

Equivalence is asserted before any timing: a smaller traced pair must
produce byte-identical digests, identical message lists and bitwise-equal
logical-clock matrices.  Speed means nothing if the numbers moved.

Timing methodology: the cyclic garbage collector is collected-then-disabled
around every timed run (GC pauses land on whichever loop happens to be
running and can double a measurement), loops are interleaved within each
round (shared-host speed drifts by tens of percent over minutes, so the
ratio is taken between runs in the same speed window), and rounds repeat
until the floor is met or ``MAX_ROUNDS`` is exhausted, keeping the
per-loop minimum as the estimate.
"""

from __future__ import annotations

import gc
import sys
import time

import numpy as np

from conftest import write_headline
from repro.algorithms import MaxBasedAlgorithm
from repro.analysis.reporting import Table
from repro.sim.reference import run_reference
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep.families import drifted_rates
from repro.topology.generators import line

N_NODES = 256
DURATION = 60.0
RHO = 0.3
SEED = 1
REQUIRED_SPEEDUP = 5.0
MIN_ROUNDS = 3
MAX_ROUNDS = 6

EQ_NODES = 64
EQ_DURATION = 30.0


def _run(loop, topology, rates, *, record_trace: bool, duration: float):
    """One run on ``loop`` (``run_reference`` or ``run_simulation``)."""
    algorithm = MaxBasedAlgorithm()
    return loop(
        topology,
        algorithm.processes(topology),
        SimConfig(duration=duration, rho=RHO, seed=SEED, record_trace=record_trace),
        rate_schedules=rates,
    )


def _timed(loop, topology, rates, *, record_trace: bool) -> float:
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        _run(loop, topology, rates, record_trace=record_trace, duration=DURATION)
        return time.perf_counter() - start
    finally:
        gc.enable()


def _assert_equivalent() -> None:
    topology = line(EQ_NODES)
    rates = drifted_rates(topology, rho=RHO, seed=SEED)
    reference = _run(
        run_reference, topology, rates, record_trace=True, duration=EQ_DURATION
    )
    production = _run(
        run_simulation, topology, rates, record_trace=True, duration=EQ_DURATION
    )
    assert reference.trace.digest() == production.trace.digest(), "trace digests diverged"
    assert reference.messages == production.messages, "message lists diverged"
    probe = np.linspace(0.0, EQ_DURATION, 121)
    assert np.array_equal(
        reference.logical_matrix(probe), production.logical_matrix(probe)
    ), "logical values diverged"


def test_sim_speedup() -> None:
    # Equivalence first: speed means nothing if the numbers moved.
    _assert_equivalent()

    topology = line(N_NODES)
    rates = drifted_rates(topology, rho=RHO, seed=SEED)

    reference_traced: list[float] = []
    production_untraced: list[float] = []
    reference_untraced: list[float] = []
    rounds = 0
    for round_index in range(MAX_ROUNDS):
        rounds = round_index + 1
        reference_traced.append(
            _timed(run_reference, topology, rates, record_trace=True)
        )
        production_untraced.append(
            _timed(run_simulation, topology, rates, record_trace=False)
        )
        reference_untraced.append(
            _timed(run_reference, topology, rates, record_trace=False)
        )
        if rounds >= MIN_ROUNDS:
            if min(reference_traced) / min(production_untraced) >= REQUIRED_SPEEDUP:
                break

    st = min(reference_traced)
    su = min(reference_untraced)
    bu = min(production_untraced)
    at_scale = st / bu
    same_config = su / bu

    table = Table(
        "simulator loop wall-clock, 256-node line, 60 s horizon",
        ["configuration", "best wall (s)", "speedup vs reference traced"],
    )
    table.add_row("reference, traced", f"{st:.3f}", "1.00x")
    table.add_row("reference, untraced", f"{su:.3f}", f"{st / su:.2f}x")
    table.add_row("production, untraced (at-scale config)", f"{bu:.3f}", f"{at_scale:.2f}x")
    print()
    print(table.render())
    print(f"\nat-scale speedup   {at_scale:.2f}x (floor {REQUIRED_SPEEDUP:.1f}x)")
    print(f"same-config speedup {same_config:.2f}x (recorded, un-floored)")

    write_headline(
        "sim",
        {
            "workload": {
                "topology": f"line({N_NODES})",
                "algorithm": "max-based",
                "rates": f"drifted_rates(rho={RHO}, seed={SEED})",
                "duration": DURATION,
            },
            "wall_seconds": {
                "reference_traced": st,
                "reference_untraced": su,
                "production_untraced": bu,
            },
            "speedup": {
                "at_scale": at_scale,
                "same_config": same_config,
                "required_floor_at_scale": REQUIRED_SPEEDUP,
            },
            "rounds": rounds,
        },
    )

    assert at_scale >= REQUIRED_SPEEDUP, (
        f"production loop at-scale speedup {at_scale:.2f}x under the "
        f"{REQUIRED_SPEEDUP:.1f}x floor (reference traced {st:.3f}s, "
        f"production untraced {bu:.3f}s over {rounds} interleaved rounds)"
    )


if __name__ == "__main__":
    test_sim_speedup()
    print("\nbench_sim: ok")
    sys.exit(0)
