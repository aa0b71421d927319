"""Tests for Execution measurement and validation (sim.execution)."""

import warnings

import numpy as np
import pytest

from repro._constants import TIME_EPS, window_starts
from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.analysis.field import SkewField
from repro.errors import DelayBoundError, ScheduleError
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.5


def drifted(n=5, duration=20.0, fast_node=None):
    topo = line(n)
    rates = {}
    if fast_node is not None:
        rates[fast_node] = PiecewiseConstantRate.constant(1.0 + RHO)
    return run_simulation(
        topo,
        NullAlgorithm().processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=0),
        rate_schedules=rates,
    )


class TestClockQueries:
    def test_logical_and_hardware_values(self):
        ex = drifted(fast_node=2)
        assert ex.hardware_value(0, 10.0) == pytest.approx(10.0)
        assert ex.hardware_value(2, 10.0) == pytest.approx(15.0)
        assert ex.logical_value(2, 10.0) == pytest.approx(15.0)  # null alg: L = H

    def test_skew_signed(self):
        ex = drifted(fast_node=2)
        assert ex.skew(2, 0, 10.0) == pytest.approx(5.0)
        assert ex.skew(0, 2, 10.0) == pytest.approx(-5.0)

    def test_skew_matrix_antisymmetric(self):
        ex = drifted(fast_node=1)
        m = ex.skew_matrix(8.0)
        assert m.shape == (5, 5)
        assert m[1, 0] == pytest.approx(-m[0, 1])
        assert m[1, 0] == pytest.approx(4.0)

    def test_snapshot(self):
        ex = drifted()
        snap = ex.logical_snapshot(5.0)
        assert set(snap) == set(range(5))


class TestSkewSummaries:
    def test_max_skew_and_pair(self):
        ex = drifted(fast_node=3)
        peak = SkewField(ex, [20.0]).peak_pairs()[0]
        i, j = np.unravel_index(int(peak.argmax()), peak.shape)
        assert 3 in (i, j)
        assert peak[i, j] == pytest.approx(10.0)
        assert ex.max_skew(20.0) == pytest.approx(10.0)

    def test_max_adjacent_skew(self):
        ex = drifted(fast_node=2)
        # fast node 2 vs neighbors 1 and 3
        assert ex.max_adjacent_skew(10.0) == pytest.approx(5.0)

    def test_peak_adjacent_skew_over_times(self):
        ex = drifted(fast_node=2)
        t, s = SkewField(ex, [0.0, 10.0, 20.0]).peak_adjacent_skew()
        assert t == 20.0
        assert s == pytest.approx(10.0)

    def test_sample_times_include_end(self):
        ex = drifted(duration=10.0)
        times = ex.sample_times(3.0)
        assert times[0] == 0.0
        assert times[-1] == 10.0

    def test_sample_times_rejects_bad_step(self):
        ex = drifted()
        with pytest.raises(ValueError):
            ex.sample_times(0.0)

    @pytest.mark.parametrize("step", [float("nan"), float("inf")])
    def test_sample_times_rejects_a_non_finite_step(self, step):
        ex = drifted()
        with pytest.raises(ValueError, match="step must be positive and finite"):
            ex.sample_times(step)

    def test_sample_times_dedupes_inexact_tail(self):
        # duration = 3 * 0.1 is not exactly representable; np.arange
        # emits the duration itself as its last grid point, which used
        # to double-count the final sample in every mean on this grid.
        duration = 0.1 + 0.1 + 0.1  # 0.30000000000000004
        assert list(np.arange(0.0, duration, 0.1))[-1] == duration
        ex = drifted(duration=duration)
        times = ex.sample_times(0.1)
        assert times == [0.0, 0.1, 0.2, duration]
        assert len(times) == len(set(times))

    def test_sample_times_returns_plain_floats(self):
        ex = drifted(duration=10.0)
        for t in ex.sample_times(3.0):
            assert type(t) is float

    def test_peak_adjacent_skew_empty_times_raises(self):
        ex = drifted(fast_node=2)
        with pytest.raises(ValueError, match="non-empty"):
            SkewField(ex, [])

    def test_gradient_profile_monotone_in_distance_for_drift(self):
        ex = drifted(fast_node=4, duration=10.0)
        profile = SkewField(ex).gradient_profile()
        assert set(profile) == {1.0, 2.0, 3.0, 4.0}
        # Node 4 is fastest: skew grows with distance from it.
        assert profile[4.0] >= profile[1.0]


class TestValidators:
    def test_check_validity_passes_for_null(self):
        drifted().check_validity()

    def test_check_delay_bounds_passes(self):
        topo = line(4)
        alg = MaxBasedAlgorithm()
        ex = run_simulation(
            topo, alg.processes(topo), SimConfig(duration=10.0, seed=0)
        )
        ex.check_delay_bounds()

    def test_check_delay_bounds_catches_corruption(self):
        topo = line(4)
        alg = MaxBasedAlgorithm()
        ex = run_simulation(
            topo, alg.processes(topo), SimConfig(duration=10.0, seed=0)
        )
        # Corrupt a message record post-hoc.
        ex.messages[0] = ex.messages[0]._replace(delay=99.0)
        with pytest.raises(DelayBoundError):
            ex.check_delay_bounds()

    def test_delays_within_windowed(self):
        topo = line(4)
        alg = MaxBasedAlgorithm()
        ex = run_simulation(
            topo, alg.processes(topo), SimConfig(duration=10.0, seed=0)
        )
        # quiet schedule: all delays are exactly d/2
        assert ex.delays_within(0.5, 0.5)
        assert ex.delays_within(0.25, 0.75)
        assert not ex.delays_within(0.6, 0.75)

    def test_rates_within(self):
        ex = drifted(fast_node=2)
        assert ex.rates_within(1.0, 1.5)
        assert not ex.rates_within(1.0, 1.2)
        # Window before any breakpoint trivially within.
        assert ex.rates_within(0.9, 1.6, t_from=0.0, t_until=5.0)


class TestTrajectories:
    def test_logical_trajectory(self):
        ex = drifted(fast_node=1, duration=10.0)
        traj = ex.logical_matrix([0.0, 5.0, 10.0])[1]
        assert traj == pytest.approx([0.0, 7.5, 15.0])

    def test_skew_trajectory(self):
        ex = drifted(fast_node=1, duration=10.0)
        traj = SkewField(ex, [0.0, 10.0]).pair_series(1, 0)
        assert traj == pytest.approx([0.0, 5.0])

    def test_max_logical_increase(self):
        ex = drifted(fast_node=2, duration=10.0)
        # Fastest clock runs at 1.5: max gain over 1 unit is 1.5.
        assert ex.max_logical_increase(window=1.0) == pytest.approx(1.5)

    def test_increase_window_count_pinned(self):
        ex = drifted(duration=10.0)
        # floor((10 - 1) / 0.25) + 1 = 37 windows, last start at 9.0.
        starts = window_starts(ex.duration, window=1.0, step=0.25)
        assert starts.size == 37
        assert starts[0] == 0.0
        assert starts[-1] == pytest.approx(9.0)

    def test_increase_window_grid_does_not_drift(self):
        # The old `t += step` accumulator drifts by ~count * eps * t and
        # silently skipped the final Lemma 7.1 window at this scale.
        duration, window, step = 4096.0, 1.0, 0.05
        t, accumulated = 0.0, 0
        while t + window <= duration + TIME_EPS:
            accumulated += 1
            t += step
        starts = window_starts(duration, window=window, step=step)
        assert starts.size == int((duration - window) / step) + 1 == 81901
        assert accumulated == 81900  # the drifting loop drops one
        # Every start honours the defining inequality, including the last.
        assert starts[-1] + window <= duration + TIME_EPS


class TestNonFiniteSampleTimes:
    """A NaN or infinite sample time is an error naming the value, never a
    row of NaNs behind a ``RuntimeWarning``."""

    @pytest.mark.parametrize("times, named", [
        ([0.0, float("nan"), 2.0], "nan"),
        ([0.0, float("inf")], "inf"),
        ([float("-inf"), 1.0], "-inf"),
    ])
    def test_logical_matrix_rejects_a_non_finite_time(self, times, named):
        ex = drifted()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError, match=f"finite, got {named}$"):
                ex.logical_matrix(times)

    @pytest.mark.parametrize("times", [[0.0, float("nan"), 2.0], [0.0, float("inf")]])
    def test_skew_field_summary_is_not_silently_nan(self, times):
        ex = drifted(fast_node=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScheduleError):
                SkewField(ex, times=times).summary()
