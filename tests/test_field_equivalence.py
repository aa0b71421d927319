"""Old-vs-new equivalence: the vectorized analysis core vs ``value_at``.

The tentpole contract of the SkewField rewrite: every batched answer
matches the scalar per-(node, time) path within 1e-9 — on random rate
schedules, random topologies, fault plans, and the live runtime's
virtual executions.  Clock-level batch evaluation is additionally
required to be *bitwise* identical (same float operations, same order).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.field import SkewField
from repro.analysis.skew import summarize
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep.families import (
    algorithm_from_spec,
    fault_plan_from_spec,
    rates_from_spec,
    topology_from_spec,
)
from repro.sweep.scenario import Scenario

RHO = 0.5

rates_in_band = st.floats(min_value=0.5, max_value=1.5)


@st.composite
def rate_schedules(draw, max_segments=6):
    n = draw(st.integers(min_value=1, max_value=max_segments))
    widths = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    starts = [0.0]
    for w in widths:
        starts.append(starts[-1] + w)
    rates = draw(st.lists(rates_in_band, min_size=n, max_size=n))
    return PiecewiseConstantRate(tuple(starts), tuple(rates))


sample_grids = st.lists(
    st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=24
)


class TestClockBatchEquivalence:
    @given(rate_schedules(), sample_grids)
    @settings(max_examples=150)
    def test_schedule_values_at_bitwise(self, schedule, times):
        batched = schedule.values_at(times)
        for t, v in zip(times, batched):
            assert v == schedule.value_at(t)

    @given(rate_schedules(), sample_grids)
    @settings(max_examples=100)
    def test_hardware_values_at_bitwise(self, schedule, times):
        hw = HardwareClock(schedule, RHO)
        batched = hw.values_at(times)
        for t, v in zip(times, batched):
            assert v == hw.value_at(t)

    @given(
        rate_schedules(),
        st.lists(
            st.tuples(
                st.floats(min_value=0.05, max_value=5.0),
                st.floats(min_value=0.0, max_value=3.0),
            ),
            max_size=10,
        ),
        sample_grids,
    )
    @settings(max_examples=150)
    def test_logical_values_at_bitwise(self, schedule, jumps, times):
        hw = HardwareClock(schedule, RHO)
        lc = LogicalClock(hw)
        t = 0.0
        for gap, amount in jumps:
            t += gap
            lc.jump_by(t, amount)
        batched = lc.values_at(times)
        for when, v in zip(times, batched):
            assert v == lc.value_at(when)


def random_execution(topology_spec, rates_spec, faults_spec, seed, duration=12.0):
    topology = topology_from_spec(topology_spec)
    algorithm = algorithm_from_spec("max-based")
    return run_simulation(
        topology,
        algorithm.processes(topology),
        SimConfig(duration=duration, rho=0.3, seed=seed),
        rate_schedules=rates_from_spec(
            rates_spec, topology, rho=0.3, seed=seed, horizon=duration
        ),
        fault_plan=fault_plan_from_spec(
            faults_spec, topology, seed=seed, horizon=duration
        ),
    )


execution_cases = st.tuples(
    st.sampled_from(["line:5", "ring:6", "grid:2,3", "star:4"]),
    st.sampled_from(["drifted", "wandering", "constant"]),
    st.sampled_from(["none", "loss:0.2", "crash-recover:0.3,4"]),
    st.integers(min_value=0, max_value=10_000),
)


class TestFieldEquivalence:
    """SkewField answers vs the scalar Execution queries, within 1e-9."""

    @given(execution_cases)
    @settings(max_examples=12, deadline=None)
    def test_series_and_profile_match_scalar(self, case):
        topology_spec, rates_spec, faults_spec, seed = case
        execution = random_execution(topology_spec, rates_spec, faults_spec, seed)
        times = execution.sample_times(0.75)
        field = SkewField(execution, times)

        scalar_max = [execution.max_skew(t) for t in times]
        assert field.max_skew_series() == pytest.approx(scalar_max, abs=1e-9)

        scalar_adj = [execution.max_adjacent_skew(t) for t in times]
        assert field.max_adjacent_series() == pytest.approx(scalar_adj, abs=1e-9)

        # Gradient profile vs a scalar re-derivation from snapshots.
        snapshots = [execution.logical_snapshot(t) for t in times]
        scalar_profile: dict[float, float] = {}
        for i, j in execution.topology.pairs():
            d = round(execution.topology.distance(i, j), 9)
            worst = max(abs(s[i] - s[j]) for s in snapshots)
            scalar_profile[d] = max(scalar_profile.get(d, 0.0), worst)
        profile = field.gradient_profile()
        assert profile.keys() == scalar_profile.keys()
        for d in profile:
            assert profile[d] == pytest.approx(scalar_profile[d], abs=1e-9)

    @given(execution_cases)
    @settings(max_examples=8, deadline=None)
    def test_summary_and_convergence_match_scalar(self, case):
        topology_spec, rates_spec, faults_spec, seed = case
        execution = random_execution(topology_spec, rates_spec, faults_spec, seed)
        times = execution.sample_times(1.0)
        field = SkewField(execution, times)
        summary = field.summary()

        n = execution.topology.n
        peak = peak_adj = abs_sum = 0.0
        for t in times:
            m = execution.skew_matrix(t)
            peak = max(peak, float(np.abs(m).max()))
            peak_adj = max(peak_adj, execution.max_adjacent_skew(t))
            abs_sum += float(np.abs(m).sum()) / max(n * n - n, 1)
        assert summary.max_skew == pytest.approx(peak, abs=1e-9)
        assert summary.max_adjacent_skew == pytest.approx(peak_adj, abs=1e-9)
        assert summary.final_skew == pytest.approx(
            execution.max_skew(execution.duration), abs=1e-9
        )
        assert summary.final_adjacent_skew == pytest.approx(
            execution.max_adjacent_skew(execution.duration), abs=1e-9
        )
        assert summary.mean_abs_skew == pytest.approx(
            abs_sum / len(times), abs=1e-9
        )

        # settling_time against the scalar sweep, at a mid-range threshold.
        threshold = 0.5 * max(peak, 1e-9)
        settled = None
        for t in times:
            if execution.max_skew(t) > threshold + 1e-9:
                settled = None
            elif settled is None:
                settled = t
        assert field.settling_time(threshold) == settled

    @given(execution_cases)
    @settings(max_examples=8, deadline=None)
    def test_max_logical_increase_matches_scalar_grid(self, case):
        topology_spec, rates_spec, faults_spec, seed = case
        execution = random_execution(topology_spec, rates_spec, faults_spec, seed)
        starts = execution.increase_window_starts(window=1.0, step=0.5)
        worst = 0.0
        for node in execution.topology.nodes:
            for t in starts:
                gain = execution.logical_value(node, t + 1.0) - (
                    execution.logical_value(node, t)
                )
                worst = max(worst, gain)
        assert execution.max_logical_increase(
            window=1.0, step=0.5
        ) == pytest.approx(worst, abs=1e-9)


def row_fold_profile(field):
    """``gradient_profile`` as it was before ``peak_pairs``: one Python
    fold step per (segment, pair)."""
    profile: dict[float, float] = {}
    for topology, cols in field.topology_segments():
        block = field.values[:, cols]
        for i in range(field.n - 1):
            worst = np.abs(block[i + 1:] - block[i]).max(axis=1)
            row = topology.distances[i, i + 1:]
            for offset in range(worst.shape[0]):
                d = round(float(row[offset]), 9)
                w = float(worst[offset])
                if w > profile.get(d, float("-inf")):
                    profile[d] = w
    return dict(sorted(profile.items()))


class TestPeakPairs:
    """The one cached pairwise reduction vs the full ``T x n x n`` stack."""

    @pytest.mark.parametrize("scenario", [
        Scenario(topology="grid:3,4", algorithm="max-based", duration=12.0, seed=3),
        Scenario(topology="line:9", faults="crash-recover:0.3,4",
                 duration=12.0, seed=5),
        Scenario(topology="line:12", mobility="waypoint:0.5", duration=12.0,
                 seed=1),
        Scenario(topology="line:10", faults="crash-recover:0.25,3",
                 mobility="waypoint:0.5", duration=12.0, seed=2),
    ], ids=["static", "faulted", "waypoint", "faulted-waypoint"])
    def test_peak_pairs_equal_the_reduced_stack_per_segment(self, scenario):
        execution = scenario.simulate()
        field = SkewField(execution, step=0.25)
        segments = field.topology_segments()
        assert (len(segments) > 1) == (scenario.mobility != "static")
        stack = np.abs(field.heatmap())
        peaks = field.peak_pairs()
        assert len(peaks) == len(segments)
        for (_, cols), peak in zip(segments, peaks):
            assert np.array_equal(peak, stack[cols].max(axis=0))
        assert field.peak_pairs()[0] is peaks[0]  # computed once
        # The profile folds the same numbers the row loop did: dict-equal,
        # keys and floats.
        assert field.gradient_profile() == row_fold_profile(field)


@pytest.mark.rt
class TestLiveFieldEquivalence:
    """The same equivalence on PR 3's live runtime (virtual transport)."""

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=5, deadline=None)
    def test_virtual_execution_field_matches_scalar(self, seed):
        from repro.rt import LiveRunConfig, run_live

        execution = run_live(
            LiveRunConfig(
                topology="line:5",
                algorithm="gradient",
                transport="virtual",
                duration=10.0,
                rho=0.2,
                seed=seed,
            )
        )
        times = execution.sample_times(1.0)
        field = SkewField(execution, times)
        assert field.max_skew_series() == pytest.approx(
            [execution.max_skew(t) for t in times], abs=1e-9
        )
        assert field.max_adjacent_series() == pytest.approx(
            [execution.max_adjacent_skew(t) for t in times], abs=1e-9
        )
        assert summarize(execution).max_skew == pytest.approx(
            field.summary().max_skew, abs=1e-9
        )
