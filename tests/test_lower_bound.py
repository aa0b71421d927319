"""Tests for the Theorem 8.1 driver (gcs.lower_bound)."""

import pytest

from repro._constants import ROUND_SKEW_RATE
from repro.algorithms import AveragingAlgorithm, MaxBasedAlgorithm
from repro.errors import ConstructionError
from repro.gcs.lower_bound import LowerBoundAdversary


class TestConstructorValidation:
    def test_rejects_tiny_diameter(self):
        with pytest.raises(ConstructionError):
            LowerBoundAdversary(1)

    def test_rejects_bad_shrink(self):
        with pytest.raises(ConstructionError):
            LowerBoundAdversary(8, shrink=1)

    def test_rejects_tau_below_comm_radius(self):
        # rho = 0.5 -> tau = 2 < radius 3: oracle stacking unsound.
        with pytest.raises(ConstructionError):
            LowerBoundAdversary(8, rho=0.5, comm_radius=3.0)


class TestConstruction:
    def test_rounds_structure(self, lower_bound_result):
        res = lower_bound_result
        assert res.diameter == 8
        assert res.rounds_applied >= 2
        spans = [r.span for r in res.rounds]
        assert spans[0] == 8
        # Spans shrink by the factor each round, ending at 1.
        assert all(
            b == max(1, a // res.shrink) for a, b in zip(spans, spans[1:])
        )
        assert spans[-1] == 1

    def test_windows_nest(self, lower_bound_result):
        for r in lower_bound_result.rounds:
            assert r.i <= r.next_i <= r.next_j <= r.j
            assert r.next_j - r.next_i == r.next_span

    def test_skew_meets_theorem_guarantee(self, lower_bound_result):
        res = lower_bound_result
        k = res.rounds_applied
        assert res.final_adjacent_skew >= ROUND_SKEW_RATE * k - 1e-6

    def test_final_pair_is_adjacent(self, lower_bound_result):
        i, j = lower_bound_result.final_pair
        assert j - i == 1

    def test_each_add_skew_round_gains(self, lower_bound_result):
        # Add Skew guarantees span/12 gain at T'; by the end of the
        # extension some of it may be burned off, but the *pigeonholed*
        # sub-pair must retain a proportional share (Claim 8.5 shape).
        for r in lower_bound_result.rounds:
            assert abs(r.skew_after_round) >= abs(r.skew_before) - 1e-6
            assert abs(r.next_pair_skew) >= (
                abs(r.skew_after_round) * r.next_span / r.span - 1e-6
            )

    def test_final_execution_is_model_compliant(self, lower_bound_result):
        ex = lower_bound_result.final_execution
        ex.check_validity()
        ex.check_delay_bounds()
        ex.check_drift_bounds()
        # Bounded Increase preconditions hold throughout (Claim 8.3).
        assert ex.rates_within(1.0, 1.0 + 0.5 / 2)
        assert ex.delays_within(0.25, 0.75)

    def test_skew_grows_with_diameter(self):
        # The construction lands whatever the driver's free parameters:
        # the shrink factor B (the proof's 384 tau f(1)), the attacked
        # algorithm's gossip radius (tau >= radius keeps the oracle
        # stack sound) and the drift bound.
        for knobs in (
            dict(rho=0.5, shrink=4),
            dict(rho=0.5, shrink=2),
            dict(rho=0.5, shrink=8),
            dict(rho=0.4, shrink=4, comm_radius=2.0),
            dict(rho=0.25, shrink=4),
            dict(rho=0.125, shrink=4),
        ):
            small = LowerBoundAdversary(4, seed=0, **knobs).run(
                MaxBasedAlgorithm()
            )
            large = LowerBoundAdversary(16, seed=0, **knobs).run(
                MaxBasedAlgorithm()
            )
            assert (
                large.peak_adjacent_skew >= small.peak_adjacent_skew - 1e-9
            ), knobs
            assert large.rounds_applied > small.rounds_applied, knobs
            assert large.final_adjacent_skew > 0.1, knobs

    def test_works_against_other_algorithms(self):
        res = LowerBoundAdversary(8, rho=0.5, shrink=4, seed=0).run(
            AveragingAlgorithm()
        )
        assert res.final_adjacent_skew > 0.1
        assert res.algorithm == "averaging"

    def test_verified_mode_checks_every_round(self):
        """verify=True re-runs each beta and asserts Claims 6.2-6.5; a
        passing run is a machine-checked instance of the theorem's
        induction."""
        res = LowerBoundAdversary(8, rho=0.5, shrink=4, seed=0).run(
            MaxBasedAlgorithm(), verify=True
        )
        assert res.rounds_applied >= 2

    def test_verified_mode_other_algorithm(self):
        res = LowerBoundAdversary(8, rho=0.5, shrink=2, seed=0).run(
            AveragingAlgorithm(), verify=True
        )
        assert res.final_adjacent_skew > 0.1

    def test_construction_is_deterministic(self):
        a = LowerBoundAdversary(8, rho=0.5, shrink=4, seed=0).run(
            MaxBasedAlgorithm()
        )
        b = LowerBoundAdversary(8, rho=0.5, shrink=4, seed=0).run(
            MaxBasedAlgorithm()
        )
        assert a.final_adjacent_skew == b.final_adjacent_skew
        assert [(r.i, r.j, r.skew_after_round) for r in a.rounds] == [
            (r.i, r.j, r.skew_after_round) for r in b.rounds
        ]
