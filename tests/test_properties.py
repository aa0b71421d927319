"""Tests for the gradient/validity property checkers (gcs.properties)."""

import functools
import math

import numpy as np
import pytest
from _engine_helpers import example_budget
from hypothesis import given, settings, strategies as st

from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.analysis.field import SkewField
from repro.gcs import properties
from repro.gcs.properties import (
    GradientBound,
    GradientViolation,
    check_gradient,
    check_validity,
    empirical_f,
)
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep.scenario import Scenario
from repro.topology.generators import line

RHO = 0.5


def drifted_null(n=5, duration=20.0):
    topo = line(n)
    rates = {n - 1: PiecewiseConstantRate.constant(1.0 + RHO)}
    return run_simulation(
        topo,
        NullAlgorithm().processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=0),
        rate_schedules=rates,
    )


class TestGradientBound:
    def test_linear(self):
        f = GradientBound.linear(2.0, 1.0)
        assert f(3.0) == 7.0
        assert "2.0*d+1.0" == f.label

    def test_conjectured(self):
        f = GradientBound.conjectured(diameter=math.e)
        assert f(3.0) == pytest.approx(4.0)

    def test_constant(self):
        f = GradientBound.constant(5.0)
        assert f(0.5) == f(100.0) == 5.0


class TestCheckGradient:
    def test_no_violations_for_generous_bound(self):
        ex = drifted_null()
        bound = GradientBound.linear(100.0)
        assert check_gradient(ex, bound) == []

    def test_violations_found_and_described(self):
        ex = drifted_null()
        bound = GradientBound.constant(1.0)
        violations = check_gradient(ex, bound)
        assert violations
        v = violations[0]
        assert v.skew > v.bound
        assert "exceeds" in str(v)

    def test_custom_times(self):
        ex = drifted_null()
        bound = GradientBound.constant(1.0)
        early = check_gradient(ex, bound, times=[0.0, 0.5])
        assert early == []  # no skew accumulated yet


def per_pair_check_gradient(execution, bound, times=None):
    """Requirement 2 one pair at a time — ``check_gradient`` before it
    screened pairs by the column spread and then by their peak; the
    reference for its answer."""
    times = list(times) if times is not None else execution.sample_times()
    field = SkewField(execution, times)
    hits = []
    for rank, (i, j) in enumerate(execution.topology.pairs()):
        series = field.pair_series(i, j)
        for topology, cols in field.topology_segments():
            d = topology.distance(i, j)
            limit = bound(d)
            for offset in np.nonzero(series[cols] > limit + 1e-9)[0]:
                k = int(cols[offset])
                hits.append((k, rank, GradientViolation(
                    i, j, float(times[k]), float(series[k]), d, limit)))
    hits.sort(key=lambda h: (h[0], h[1]))
    return [violation for _, _, violation in hits]


#: ``line:12`` × ``max-based`` executions the screened check is held to
#: the per-pair loop on: static, mobile (one screen per snapshot) and
#: faulted (crashed nodes' clocks stall, then jump on recovery).
SCREEN_CASES = {
    "static": dict(mobility="static"),
    "dynamic": dict(mobility="waypoint:0.5"),
    "faulted": dict(faults="crash-recover:0.3,2"),
}


@functools.lru_cache(maxsize=None)
def screen_execution(name):
    execution = Scenario(
        topology="line:12", algorithm="max-based", duration=12.0, rho=0.3,
        seed=4, **SCREEN_CASES[name],
    ).simulate()
    assert execution.is_dynamic == (name == "dynamic")
    assert bool(execution.fault_stats) == (name == "faulted")
    return execution


def screen_counts(execution, bound, times=None):
    """Per topology segment, ``(classes whose threshold is below the
    segment's largest column spread, classes)`` — what the screen in
    ``check_gradient`` keeps and what it sees."""
    times = list(times) if times is not None else execution.sample_times()
    field = SkewField(execution, times)
    spread = field.max_skew_series()
    counts = []
    for topology, cols in field.topology_segments():
        distances, _ = topology.distance_classes()
        thresholds = np.array([bound(d) for d in distances.tolist()]) + 1e-9
        counts.append((int((thresholds < spread[cols].max()).sum()), distances.size))
    return counts


def refuse_peak_pairs(self):
    raise AssertionError("check_gradient built the n x n peak matrix")


class TestCheckGradientMatchesPerPairReference:
    """Same list — order, pairs and every float — as the per-pair loop."""

    @pytest.fixture(scope="class", params=sorted(SCREEN_CASES))
    def execution(self, request):
        return screen_execution(request.param)

    @pytest.mark.parametrize("bound, violated", [
        (GradientBound.linear(100.0), False),
        (GradientBound.linear(0.05), True),
        (GradientBound.constant(0.3), True),
    ], ids=["generous", "linear-0.05", "constant-0.3"])
    def test_identical_violation_list(self, execution, bound, violated):
        reference = per_pair_check_gradient(execution, bound)
        assert bool(reference) == violated
        assert check_gradient(execution, bound) == reference
        times = execution.sample_times(0.4)
        assert check_gradient(execution, bound, times=times) == (
            per_pair_check_gradient(execution, bound, times))

    @pytest.mark.parametrize("chunk", [None, 7], ids=["one-chunk", "many-chunks"])
    def test_partial_screen(self, execution, monkeypatch, chunk):
        # Near distances are limited below the spread, far ones above it.
        bound = GradientBound.linear(0.25)
        counts = screen_counts(execution, bound)
        assert any(0 < kept < classes for kept, classes in counts)
        reference = per_pair_check_gradient(execution, bound)
        assert reference
        monkeypatch.setattr(SkewField, "peak_pairs", refuse_peak_pairs)
        if chunk is not None:
            monkeypatch.setattr(properties, "_PEAK_CHUNK", chunk)
        assert check_gradient(execution, bound) == reference

    def test_no_limit_below_the_spread_builds_no_peak_matrix(
        self, execution, monkeypatch
    ):
        bound = GradientBound.conjectured(execution.topology.diameter)
        assert all(kept == 0 for kept, _ in screen_counts(execution, bound))
        assert per_pair_check_gradient(execution, bound) == []
        monkeypatch.setattr(SkewField, "peak_pairs", refuse_peak_pairs)
        assert check_gradient(execution, bound) == []

    @given(
        name=st.sampled_from(sorted(SCREEN_CASES)),
        slope=st.floats(0.0, 0.4),
        intercept=st.floats(-0.5, 1.5),
        step=st.sampled_from([None, 0.4, 0.75]),
    )
    @settings(max_examples=example_budget(50), deadline=None)
    def test_drawn_linear_bounds(self, name, slope, intercept, step):
        execution = screen_execution(name)
        bound = GradientBound.linear(slope, intercept)
        times = None if step is None else execution.sample_times(step)
        assert check_gradient(execution, bound, times=times) == (
            per_pair_check_gradient(execution, bound, times))


class TestEmpiricalF:
    def test_monotone_nondecreasing(self):
        ex = drifted_null()
        profile = empirical_f([ex])
        values = [profile[d] for d in sorted(profile)]
        assert values == sorted(values)

    def test_pointwise_max_over_executions(self):
        ex1 = drifted_null(duration=10.0)
        ex2 = drifted_null(duration=20.0)
        combined = empirical_f([ex1, ex2])
        solo = empirical_f([ex1])
        for d in solo:
            assert combined[d] >= solo[d] - 1e-9

    def test_distances_match_topology(self):
        ex = drifted_null(n=4)
        profile = empirical_f([ex])
        assert set(profile) == {1.0, 2.0, 3.0}


class TestCheckValidity:
    def test_passes_for_max_based(self):
        topo = line(4)
        ex = run_simulation(
            topo,
            MaxBasedAlgorithm().processes(topo),
            SimConfig(duration=10.0, rho=RHO, seed=0),
        )
        check_validity(ex)
