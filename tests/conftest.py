"""Shared fixtures for the test suite.

Session-scoped fixtures cache the expensive executions (full lower-bound
constructions) so many test modules can assert on them without re-running
the adversary.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.algorithms import MaxBasedAlgorithm
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew
from repro.gcs.lower_bound import LowerBoundAdversary
from repro.gcs.schedule import AdversarySchedule
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.5
TAU = 1.0 / RHO

# ``pytest --hypothesis-profile ci`` (a scripts/ci_smoke.sh step) runs the
# differential property tests guarding the simulator's batched paths —
# those reading ``_engine_helpers.example_budget`` — at this budget;
# tier-1 keeps each test's own.
settings.register_profile("ci", max_examples=200, deadline=None)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "faults: fault/churn robustness suite (slower; select with -m faults, "
        "skip with -m 'not faults')",
    )
    config.addinivalue_line("markers", "slow: long-running full-scale checks")
    config.addinivalue_line(
        "markers",
        "engine: differential reference-vs-production simulator loop "
        "equivalence suite (select with -m engine)",
    )
    config.addinivalue_line(
        "markers",
        "rt: live-runtime transport suite (wall-clock sleeps and node "
        "processes; select with -m rt, skip with -m 'not rt')",
    )
    config.addinivalue_line(
        "markers",
        "check: static invariant linter self-tests (repro.check; "
        "select with -m check)",
    )
    config.addinivalue_line(
        "markers",
        "serve: sweep-as-a-service suite (daemon subprocesses, sockets, "
        "SIGKILL crash/resume; select with -m serve, skip with "
        "-m 'not serve')",
    )


@pytest.fixture(scope="session")
def line9():
    """A 9-node line (diameter 8)."""
    return line(9)


@pytest.fixture(scope="session")
def quiet_line9_execution(line9):
    """A quiet execution of max-based sync on the 9-node line."""
    schedule = AdversarySchedule.quiet(line9.nodes, TAU * 8)
    return schedule.run(line9, MaxBasedAlgorithm(), rho=RHO, seed=0)


@pytest.fixture(scope="session")
def add_skew_pair(line9):
    """(alpha, beta, plan): one verified Add Skew application."""
    algorithm = MaxBasedAlgorithm()
    schedule = AdversarySchedule.quiet(line9.nodes, TAU * 8)
    alpha = schedule.run(line9, algorithm, rho=RHO, seed=0)
    plan = AddSkewPlan(
        i=0, j=8, n=9, alpha_duration=schedule.duration, rho=RHO, lead="lo"
    )
    beta_schedule = apply_add_skew(schedule, plan)
    beta = beta_schedule.run(line9, algorithm, rho=RHO, seed=0)
    return alpha, beta, plan


@pytest.fixture(scope="session")
def lower_bound_result():
    """A complete Theorem 8.1 construction at diameter 8 (fast)."""
    adversary = LowerBoundAdversary(8, rho=RHO, shrink=4, seed=0)
    return adversary.run(MaxBasedAlgorithm())


@pytest.fixture()
def simple_execution(line9):
    """A short benign run, rebuilt per test (cheap)."""
    algorithm = MaxBasedAlgorithm()
    return run_simulation(
        line9,
        algorithm.processes(line9),
        SimConfig(duration=10.0, rho=RHO, seed=1),
    )
