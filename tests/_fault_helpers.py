"""Shared helpers for the per-algorithm crash-recovery tests.

A plain module (not a conftest): the test files import it by name.
"""

from __future__ import annotations

from repro.sim.faults import FaultPlan
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep.families import spread_rates
from repro.topology.generators import line

__all__ = ["run_crash_recovery", "assert_monotone_logical"]


def run_crash_recovery(
    algorithm,
    *,
    n=5,
    crash_node=2,
    crash_at=8.0,
    recover_at=16.0,
    duration=40.0,
    rho=0.2,
    seed=0,
):
    """Shared scenario for the per-algorithm recovery tests.

    A line under deterministically spread rates (node 0 slowest, node
    ``n-1`` fastest) with one mid-line node crashed and recovered —
    the hardest benign placement, since the crash severs the line.
    """
    topo = line(n)
    plan = FaultPlan().with_crash(crash_node, at=crash_at, recover_at=recover_at)
    return run_simulation(
        topo,
        algorithm.processes(topo),
        SimConfig(duration=duration, rho=rho, seed=seed),
        rate_schedules=spread_rates(topo, rho=rho),
        fault_plan=plan,
    )


def assert_monotone_logical(execution, node, *, step=0.25):
    """Validity across the outage: the clock never runs backward."""
    t, previous = 0.0, float("-inf")
    while t <= execution.duration + 1e-9:
        value = execution.logical_value(node, t)
        assert value >= previous - 1e-9, (
            f"node {node} logical clock went backward at t={t}"
        )
        previous = value
        t += step
