"""Tests for the Bounded Increase lemma machinery (gcs.bounded_increase)."""

import pytest

from repro.algorithms import MaxBasedAlgorithm
from repro.errors import ConstructionError
from repro.gcs.bounded_increase import (
    check_preconditions,
    measure_bounded_increase,
)
from repro.gcs.schedule import AdversarySchedule
from repro.sim.messages import UniformRandomDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.5


def quiet_execution(n=5, duration=12.0):
    topo = line(n)
    schedule = AdversarySchedule.quiet(topo.nodes, duration)
    return schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)


class TestPreconditions:
    def test_quiet_execution_satisfies(self):
        check_preconditions(quiet_execution(), rho=RHO)

    def test_out_of_band_rate_rejected(self):
        topo = line(3)
        rates = {0: PiecewiseConstantRate.constant(1.0 - RHO)}  # below 1
        ex = run_simulation(
            topo,
            MaxBasedAlgorithm().processes(topo),
            SimConfig(duration=8.0, rho=RHO, seed=0),
            rate_schedules=rates,
        )
        with pytest.raises(ConstructionError):
            check_preconditions(ex, rho=RHO)

    def test_out_of_band_delay_rejected(self):
        topo = line(3)
        ex = run_simulation(
            topo,
            MaxBasedAlgorithm().processes(topo),
            SimConfig(duration=8.0, rho=RHO, seed=0),
            delay_policy=UniformRandomDelay(0.0, 1.0),  # delays can hit 0
        )
        with pytest.raises(ConstructionError):
            check_preconditions(ex, rho=RHO)


class TestMeasurement:
    def test_quiet_gain_is_hardware_rate(self):
        report = measure_bounded_increase(quiet_execution(), 1.0, rho=RHO)
        # Quiet run: no jumps, all rates 1 -> exactly 1 per unit.
        assert report.max_increase == pytest.approx(1.0)
        assert report.bound == 16.0
        assert report.satisfied

    def test_bound_scales_with_f(self):
        report = measure_bounded_increase(quiet_execution(), 0.5, rho=RHO)
        assert report.bound == 8.0

    def test_lower_bound_execution_within_bound(self, lower_bound_result):
        ex = lower_bound_result.final_execution
        from repro.gcs.properties import empirical_f

        f_one = max(empirical_f([ex]).get(1.0, 0.0), 1e-6)
        report = measure_bounded_increase(ex, f_one, rho=RHO)
        assert report.satisfied

    def test_preconditions_can_be_skipped(self):
        topo = line(3)
        ex = run_simulation(
            topo,
            MaxBasedAlgorithm().processes(topo),
            SimConfig(duration=8.0, rho=RHO, seed=0),
            delay_policy=UniformRandomDelay(),
        )
        report = measure_bounded_increase(
            ex, 1.0, rho=RHO, enforce_preconditions=False
        )
        assert report.max_increase > 0
