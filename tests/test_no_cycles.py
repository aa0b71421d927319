"""A finished run frees itself by reference counting.

Every loop holds its node APIs (or live nodes), and each of those points
back at its host; the loops cut those edges when a run ends, so nothing
of a finished run waits for the cyclic collector.  The guard: with the
collector off during the run, one ``gc.collect()`` under
``gc.DEBUG_SAVEALL`` afterwards finds nothing unreachable — neither
while the execution is held nor once it is dropped — and the execution
still reads correctly after the cut.
"""

from __future__ import annotations

import gc
from collections import Counter

import numpy as np
import pytest

from repro.rt.run import LiveRunConfig, run_live
from repro.sim.messages import Message
from repro.sim.reference import run_reference
from repro.sim.simulator import SimConfig
from repro.sweep.scenario import Scenario


def _unreachable() -> int:
    """Objects one collection finds unreachable; named if there are any."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
    assert found == 0, f"cyclic garbage: {kinds.most_common(8)}"
    return found


def _run_without_collector(run):
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return run()
    finally:
        if enabled:
            gc.enable()


def _reads_correctly(execution) -> None:
    messages = execution.messages
    assert len(messages) > 0
    records = list(messages)
    assert len(records) == len(messages)
    assert all(type(m) is Message for m in records)
    assert messages[0] == records[0] and messages[-1] == records[-1]
    execution.check_delay_bounds()
    times = execution.sample_times(0.5)
    matrix = execution.logical_matrix(times)
    for row, node in zip(matrix, execution.topology.nodes):
        assert np.array_equal(row, execution.logical[node].values_at(times))
    execution.check_validity()


def _scenario(**fields) -> Scenario:
    return Scenario(topology="line:12", algorithm="gradient", delays="uniform",
                    duration=10.0, seed=4, **fields)


def _reference(scenario: Scenario):
    cell = scenario.build()
    return run_reference(
        cell.dynamic if cell.dynamic is not None else cell.topology,
        cell.processes,
        SimConfig(duration=scenario.duration, rho=scenario.rho, seed=scenario.seed),
        rate_schedules=cell.rates,
        delay_policy=cell.delay_policy,
        fault_plan=cell.fault_plan,
    )


RUNS = {
    "sim": lambda: _scenario().simulate(),
    "sim-crash-recover": lambda: _scenario(faults="crash-recover:0.3,2").simulate(),
    "sim-duplicate": lambda: _scenario(faults="duplicate:0.3").simulate(),
    "sim-mobile": lambda: _scenario(mobility="blink:0.3,4").simulate(),
    "sim-traced": lambda: _scenario(faults="crash-recover:0.3,2").simulate(
        record_trace=True
    ),
    "reference": lambda: _reference(_scenario(faults="crash-recover:0.3,2")),
    "virtual": lambda: run_live(
        LiveRunConfig(topology="line:12", algorithm="gradient", delays="uniform",
                      duration=10.0, seed=4, faults="crash-recover:0.3,2",
                      mobility="blink:0.3,4", transport="virtual")
    ),
    "asyncio": lambda: run_live(
        LiveRunConfig(topology="line:6", algorithm="gradient", duration=4.0,
                      seed=4, transport="asyncio", time_scale=0.01)
    ),
}


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_a_finished_run_leaves_no_cycles(kind):
    # A first run pays one-off costs that may leave cyclic garbage of
    # their own (lazy imports, caches); the guard is about runs.
    RUNS[kind]()
    execution = _run_without_collector(RUNS[kind])
    assert _unreachable() == 0
    _reads_correctly(execution)
    del execution
    assert _unreachable() == 0
