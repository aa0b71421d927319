"""Shared helpers for the reference-vs-production differential harness.

The production event loop's contract is not "approximately the same
results faster" — it is *byte identity*: the same trace digest, the same
message list, the same fault counters, the same topology timeline and
bitwise the same logical-clock values as the naive reference loop
(``repro.sim.reference``), for every scenario the simulator accepts.
These helpers run one scenario under both loops and assert that whole
contract in one place, so every differential test
(``test_engine_equivalence.py``, the fault and replay regressions)
compares the same surfaces.

``"scalar"`` names the reference loop and ``"batched"`` the production
one throughout the harness.
"""

from __future__ import annotations

import numpy as np

from repro.sim.messages import SequenceDelay
from repro.sim.reference import run_reference
from repro.sim.replay import delay_script
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.dynamic import DynamicTopology

__all__ = [
    "run_both",
    "assert_equivalent",
    "run_engine",
    "replay_on_reference",
    "first_divergence",
]

_LOOPS = {"scalar": run_reference, "batched": run_simulation}


def run_engine(
    engine,
    topology,
    algorithm,
    *,
    duration=12.0,
    rho=0.3,
    seed=0,
    rate_schedules=None,
    delay_policy=None,
    fault_plan=None,
    record_trace=True,
):
    """One run of ``algorithm`` on ``topology`` under the given loop."""
    base = topology.initial if isinstance(topology, DynamicTopology) else topology
    return _LOOPS[engine](
        topology,
        algorithm.processes(base),
        SimConfig(duration=duration, rho=rho, seed=seed, record_trace=record_trace),
        rate_schedules=rate_schedules,
        delay_policy=delay_policy,
        fault_plan=fault_plan,
    )


def run_both(topology, algorithm_factory, **kwargs):
    """Run the same scenario under both loops; returns (scalar, batched).

    ``algorithm_factory`` is called once per loop so no algorithm state
    leaks between the runs.
    """
    scalar = run_engine("scalar", topology, algorithm_factory(), **kwargs)
    batched = run_engine("batched", topology, algorithm_factory(), **kwargs)
    return scalar, batched


def replay_on_reference(execution, algorithm):
    """``repro.sim.replay.replay`` with the reference loop doing the re-run."""
    topo = execution.topology
    return run_reference(
        topo,
        algorithm.processes(topo),
        SimConfig(duration=execution.duration, rho=execution.rho),
        rate_schedules={n: hw.schedule for n, hw in execution.hardware.items()},
        delay_policy=SequenceDelay(delay_script(execution)),
    )


def first_divergence(scalar_trace, batched_trace):
    """Where two traces first differ, as a readable report (or ``None``).

    Names the index, both events at it (``<end of trace>`` when one side
    ran out) and the last event the traces still had in common.  Events
    are compared by ``repr``, the bytes ``digest()`` hashes, so this
    finds a difference exactly when the digests differ.
    """
    scalar_events, batched_events = scalar_trace.events, batched_trace.events
    for index, (s, b) in enumerate(zip(scalar_events, batched_events)):
        if repr(s) != repr(b):
            break
    else:
        if len(scalar_events) == len(batched_events):
            return None
        index = min(len(scalar_events), len(batched_events))

    def at(events):
        return repr(events[index]) if index < len(events) else "<end of trace>"

    common = repr(scalar_events[index - 1]) if index else "<none>"
    return (
        f"traces first diverge at event {index}\n"
        f"  reference : {at(scalar_events)}\n"
        f"  production: {at(batched_events)}\n"
        f"  last common event: {common}"
    )


def assert_equivalent(scalar, batched, *, probe_points=97):
    """Assert the full equivalence contract between two executions.

    Compares the trace digest (byte identity of every recorded step),
    the delivered-message list (``Message`` is a named tuple, so
    equality is field-by-field and float comparison is bitwise), fault
    counters, the topology timeline, and the logical-clock matrix
    sampled on a dense grid with ``array_equal`` — no tolerances
    anywhere.
    """
    assert scalar.duration == batched.duration
    if scalar.trace.digest() != batched.trace.digest():
        raise AssertionError(first_divergence(scalar.trace, batched.trace))
    assert len(scalar.trace) == len(batched.trace)
    assert scalar.messages == batched.messages, "message lists diverged"
    assert scalar.fault_stats == batched.fault_stats, "fault counters diverged"
    scalar_timeline = scalar.topology_timeline
    batched_timeline = batched.topology_timeline
    if scalar_timeline is None or batched_timeline is None:
        assert scalar_timeline == batched_timeline, "topology timelines diverged"
    else:
        assert len(scalar_timeline) == len(batched_timeline)
        for (at_s, topo_s), (at_b, topo_b) in zip(scalar_timeline, batched_timeline):
            assert at_s == at_b
            assert topo_s.nodes == topo_b.nodes
    probe = np.linspace(0.0, scalar.duration, probe_points)
    assert np.array_equal(
        scalar.logical_matrix(probe), batched.logical_matrix(probe)
    ), "logical-clock values diverged"
    assert np.array_equal(
        np.vstack([scalar.hardware[n].values_at(probe) for n in scalar.topology.nodes]),
        np.vstack([batched.hardware[n].values_at(probe) for n in batched.topology.nodes]),
    ), "hardware-clock values diverged"
