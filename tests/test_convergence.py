"""Tests for convergence metrics (SkewField.settling_time / steady_state)."""

import pytest

from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.analysis.field import SkewField
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.4


def run(alg, duration=40.0):
    topo = line(5)
    rates = {4: PiecewiseConstantRate.constant(1.0 + RHO)}
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=0),
        rate_schedules=rates,
    )


class TestSettlingTime:
    def test_synchronized_run_settles(self):
        ex = run(MaxBasedAlgorithm(period=0.5))
        t = SkewField(ex).settling_time(4.0)
        assert t is not None
        assert t < ex.duration

    def test_unsynchronized_run_never_settles(self):
        ex = run(NullAlgorithm())
        # Drift accumulates 0.4/s: max skew ends at 16 and keeps growing.
        assert SkewField(ex).settling_time(4.0) is None

    def test_trivial_threshold_settles_at_zero(self):
        ex = run(NullAlgorithm())
        assert SkewField(ex).settling_time(1e9) == 0.0

    def test_custom_metric(self):
        ex = run(MaxBasedAlgorithm(period=0.5))
        field = SkewField(ex)
        t = field.settling_time(3.0, series=field.max_adjacent_series())
        assert t is not None


class TestSteadyState:
    def test_summary_ordering(self):
        ex = run(MaxBasedAlgorithm(period=0.5))
        s = SkewField(ex).steady_state()
        assert s.mean_max_skew <= s.worst_max_skew + 1e-12
        assert s.mean_adjacent_skew <= s.worst_adjacent_skew + 1e-12
        assert s.worst_adjacent_skew <= s.worst_max_skew + 1e-12
        assert s.tail_start == pytest.approx(30.0)

    def test_synchronized_beats_null_in_steady_state(self):
        synced = SkewField(run(MaxBasedAlgorithm(period=0.5))).steady_state()
        free = SkewField(run(NullAlgorithm())).steady_state()
        assert synced.mean_max_skew < free.mean_max_skew / 2

    def test_bad_fraction_rejected(self):
        ex = run(NullAlgorithm(), duration=10.0)
        with pytest.raises(ValueError):
            SkewField(ex).steady_state(tail_fraction=0.0)

    def test_grid_without_a_tail_sample_is_a_named_error(self):
        # The tail of a 10-unit run starts at 7.5; this grid ends at 2.0.
        ex = run(NullAlgorithm(), duration=10.0)
        field = SkewField(ex, [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match=r"starts at 7\.5.*ends at 2\.0"):
            field.steady_state()
