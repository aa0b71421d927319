"""Tests for time-varying (random-walk) rate schedules."""

import pytest

from repro.algorithms import BoundedCatchUpAlgorithm, MaxBasedAlgorithm
from repro.errors import ScheduleError
from repro.sweep import wandering_rates
from repro.sim.rates import random_walk_schedule
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.3


class TestRandomWalkSchedule:
    def test_stays_in_band(self):
        s = random_walk_schedule(rho=RHO, horizon=100.0, interval=2.0, seed=4)
        assert s.within_bounds(1.0 - RHO, 1.0 + RHO)

    def test_actually_varies(self):
        s = random_walk_schedule(rho=RHO, horizon=100.0, interval=2.0, seed=4)
        rates = {seg.rate for seg in s.segments()}
        assert len(rates) > 3

    def test_deterministic_per_seed(self):
        a = random_walk_schedule(rho=RHO, horizon=50.0, interval=2.0, seed=9)
        b = random_walk_schedule(rho=RHO, horizon=50.0, interval=2.0, seed=9)
        assert a == b

    def test_bad_params_rejected(self):
        with pytest.raises(ScheduleError):
            random_walk_schedule(rho=1.5, horizon=10.0, interval=1.0, seed=0)
        with pytest.raises(ScheduleError):
            random_walk_schedule(rho=0.3, horizon=10.0, interval=0.0, seed=0)

    def test_integration_still_exact(self):
        s = random_walk_schedule(rho=RHO, horizon=40.0, interval=1.0, seed=2)
        for t in (0.0, 7.3, 22.2, 39.9, 55.0):
            assert s.invert(s.value_at(t)) == pytest.approx(t, abs=1e-9)


class TestWanderingExecution:
    def test_algorithms_survive_time_varying_drift(self):
        topo = line(8)
        rates = wandering_rates(topo, rho=RHO, horizon=60.0, seed=3)
        for alg in (
            MaxBasedAlgorithm(period=0.5),
            BoundedCatchUpAlgorithm(period=0.5, kappa=1.0, mu=1.0),
        ):
            ex = run_simulation(
                topo,
                alg.processes(topo),
                SimConfig(duration=60.0, rho=RHO, seed=3),
                rate_schedules=rates,
            )
            ex.check_validity()
            ex.check_drift_bounds()
            # Synchronization holds: far below free-drift accumulation.
            assert ex.max_skew(60.0) < 2 * RHO * 60.0 / 2

    def test_per_node_schedules_differ(self):
        topo = line(5)
        rates = wandering_rates(topo, rho=RHO, horizon=40.0, seed=3)
        assert rates[0] != rates[1]
