"""Tests for the TDMA overlay (apps.tdma)."""

import pytest

from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.apps.tdma import TDMASchedule, assign_slots, evaluate_tdma
from repro.errors import ExperimentError
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line, ring


class TestScheduleValidation:
    def test_rejects_bad_params(self):
        with pytest.raises(ExperimentError):
            TDMASchedule(slots={0: 0}, n_slots=0, slot_width=1.0)
        with pytest.raises(ExperimentError):
            TDMASchedule(slots={0: 0}, n_slots=2, slot_width=1.0, guard=0.6)

    def test_frame_length(self):
        s = TDMASchedule(slots={0: 0, 1: 1}, n_slots=3, slot_width=2.0)
        assert s.frame == 6.0


class TestAssignment:
    def test_coloring_is_proper(self):
        topo = ring(7)
        schedule = assign_slots(topo, slot_width=1.0)
        for i, j in topo.comm_pairs():
            assert schedule.slots[i] != schedule.slots[j]

    def test_line_needs_two_slots(self):
        topo = line(9)
        schedule = assign_slots(topo, slot_width=1.0)
        assert schedule.n_slots == 2

    def test_constant_slots_as_network_grows(self):
        # The paper's premise: constant degree -> constant frame size.
        sizes = [assign_slots(line(n), slot_width=1.0).n_slots for n in (4, 16, 64)]
        assert len(set(sizes)) == 1


class TestEvaluation:
    def test_no_collisions_with_synchronized_clocks(self):
        topo = line(5)
        ex = run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=20.0, rho=0.0, seed=0),
        )
        schedule = assign_slots(topo, slot_width=1.0, guard=0.1)
        report = evaluate_tdma(ex, schedule)
        assert report.transmissions > 0
        assert report.collisions == 0
        assert report.collision_rate == 0.0

    def test_collisions_with_skewed_clocks(self):
        # A fast node's slots drift across its neighbor's: collisions.
        topo = line(3)
        rates = {1: PiecewiseConstantRate.constant(1.4)}
        ex = run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=40.0, rho=0.5, seed=0),
            rate_schedules=rates,
        )
        schedule = assign_slots(topo, slot_width=1.0, guard=0.1)
        report = evaluate_tdma(ex, schedule)
        assert report.collisions > 0
        assert report.colliding_pairs

    def test_guard_bands_absorb_small_skew(self):
        topo = line(3)
        rates = {1: PiecewiseConstantRate.constant(1.02)}
        ex = run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=10.0, rho=0.1, seed=0),
            rate_schedules=rates,
        )
        tight = evaluate_tdma(ex, assign_slots(topo, slot_width=1.0, guard=0.0))
        guarded = evaluate_tdma(ex, assign_slots(topo, slot_width=1.0, guard=0.3))
        assert guarded.collisions <= tight.collisions
        assert guarded.collisions == 0

    def test_horizon_limits_analysis(self):
        topo = line(3)
        ex = run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=20.0, rho=0.0, seed=0),
        )
        schedule = assign_slots(topo, slot_width=1.0)
        short = evaluate_tdma(ex, schedule, horizon=5.0)
        full = evaluate_tdma(ex, schedule)
        assert short.transmissions < full.transmissions
