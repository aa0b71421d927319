"""Tests for the gradient/validity property checkers (gcs.properties)."""

import math

import numpy as np
import pytest

from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.analysis.field import SkewField
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
    screened pairs by their peak; the reference for its answer."""
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


class TestCheckGradientMatchesPerPairReference:
    """Same list — order, pairs and every float — as the per-pair loop."""

    @pytest.fixture(scope="class", params=["static", "dynamic"])
    def execution(self, request):
        mobility = "waypoint:0.5" if request.param == "dynamic" else "static"
        execution = Scenario(
            topology="line:12", algorithm="max-based", mobility=mobility,
            duration=12.0, rho=0.3, seed=4,
        ).simulate()
        assert execution.is_dynamic == (request.param == "dynamic")
        return execution

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
