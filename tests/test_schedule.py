"""Tests for AdversarySchedule (gcs.schedule)."""

from dataclasses import replace

import pytest

from repro.algorithms import MaxBasedAlgorithm
from repro.errors import ScheduleError
from repro.gcs.schedule import AdversarySchedule
from repro.sim.rates import PiecewiseConstantRate
from repro.topology.generators import line


class TestQuiet:
    def test_quiet_schedule_shape(self):
        topo = line(4)
        s = AdversarySchedule.quiet(topo.nodes, 10.0)
        assert s.duration == 10.0
        assert s.rates_constant_one(0.0, 10.0)

    def test_quiet_run_has_half_delays_and_zero_skew(self):
        topo = line(4)
        s = AdversarySchedule.quiet(topo.nodes, 10.0)
        ex = s.run(topo, MaxBasedAlgorithm(), rho=0.5, seed=0)
        assert ex.delays_within(0.5, 0.5)
        assert ex.max_skew(10.0) == pytest.approx(0.0, abs=1e-9)

    def test_duration_must_be_positive(self):
        with pytest.raises(ScheduleError):
            AdversarySchedule.quiet(range(3), 0.0)


class TestEditing:
    def test_extended(self):
        s = AdversarySchedule.quiet(range(3), 10.0)
        assert s.extended(5.0).duration == 15.0

    def test_extended_rejects_nonpositive(self):
        s = AdversarySchedule.quiet(range(3), 10.0)
        with pytest.raises(ScheduleError):
            s.extended(0.0)

    def test_replace_rates_leaves_original(self):
        s = AdversarySchedule.quiet(range(2), 10.0)
        fast = {0: PiecewiseConstantRate.constant(1.2),
                1: PiecewiseConstantRate.constant(1.0)}
        s2 = replace(s, rates=fast)
        assert not s2.rates_constant_one(0.0, 10.0)
        # original untouched (immutability)
        assert s.rates_constant_one(0.0, 10.0)

    def test_rates_constant_one_windowed(self):
        rates = {
            0: PiecewiseConstantRate.constant(1.0).with_rate(5.0, 8.0, 1.1),
            1: PiecewiseConstantRate.constant(1.0),
        }
        s = AdversarySchedule(rates=rates, delay_oracle=None, duration=10.0)
        assert s.rates_constant_one(0.0, 5.0)
        assert not s.rates_constant_one(0.0, 10.0)
        assert s.rates_constant_one(8.0, 10.0)


class TestRunning:
    def test_rerun_is_deterministic(self):
        topo = line(5)
        s = AdversarySchedule.quiet(topo.nodes, 12.0)
        ex1 = s.run(topo, MaxBasedAlgorithm(), rho=0.5, seed=0)
        ex2 = s.run(topo, MaxBasedAlgorithm(), rho=0.5, seed=0)
        assert len(ex1.trace) == len(ex2.trace)
        assert [m.delay for m in ex1.messages] == [m.delay for m in ex2.messages]
