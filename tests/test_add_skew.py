"""Tests for the Add Skew lemma machinery (gcs.add_skew)."""

from dataclasses import replace

import pytest

from repro._constants import gamma as gamma_of, tau as tau_of
from repro.algorithms import AveragingAlgorithm, MaxBasedAlgorithm
from repro.errors import ConstructionError
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sim.rates import PiecewiseConstantRate
from repro.topology.generators import line

RHO = 0.5
TAU = tau_of(RHO)
GAMMA = gamma_of(RHO)


class TestPlanQuantities:
    def test_window_arithmetic(self):
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        assert plan.span == 8
        assert plan.window_start == pytest.approx(0.0)
        assert plan.window_end == 16.0
        assert plan.beta_end == pytest.approx(TAU / GAMMA * 8)
        assert plan.guaranteed_gain == pytest.approx(8 / 12)

    def test_knee_times_lead_lo(self):
        plan = AddSkewPlan(i=2, j=6, n=9, alpha_duration=20.0, rho=RHO)
        S, Tp = plan.window_start, plan.beta_end
        # k <= i: knee at S (sped the whole window)
        assert plan.knee_time(0) == plan.knee_time(2) == S
        # ramp: S + (tau/gamma)(k - i)
        assert plan.knee_time(3) == pytest.approx(S + TAU / GAMMA)
        assert plan.knee_time(5) == pytest.approx(S + 3 * TAU / GAMMA)
        # k >= j: never sped
        assert plan.knee_time(6) == plan.knee_time(8) == pytest.approx(Tp)

    def test_knee_times_lead_hi_mirror(self):
        lo = AddSkewPlan(i=2, j=6, n=9, alpha_duration=20.0, rho=RHO, lead="lo")
        hi = AddSkewPlan(i=2, j=6, n=9, alpha_duration=20.0, rho=RHO, lead="hi")
        # The mirror swaps the roles of the two endpoints.
        assert hi.knee_time(6) == lo.knee_time(2)
        assert hi.knee_time(2) == lo.knee_time(6)
        assert hi.knee_time(5) == pytest.approx(lo.knee_time(3))
        assert hi.leader == 6 and hi.laggard == 2

    def test_successive_ramp_spacing_is_tau_over_gamma(self):
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        knees = [plan.knee_time(k) for k in range(9)]
        diffs = [b - a for a, b in zip(knees, knees[1:])]
        for d in diffs[:-1]:
            assert d == pytest.approx(TAU / GAMMA)

    def test_gamma_windows_cover_figure_one(self):
        plan = AddSkewPlan(i=0, j=4, n=5, alpha_duration=8.0, rho=RHO)
        windows = plan.gamma_windows()
        assert windows[0][0] < windows[1][0] < windows[2][0] < windows[3][0]
        assert all(end == plan.beta_end for _, end in windows.values())

    def test_invalid_pairs_rejected(self):
        with pytest.raises(ConstructionError):
            AddSkewPlan(i=4, j=4, n=9, alpha_duration=16.0, rho=RHO)
        with pytest.raises(ConstructionError):
            AddSkewPlan(i=0, j=9, n=9, alpha_duration=16.0, rho=RHO)
        with pytest.raises(ConstructionError):
            AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO, lead="up")

    def test_alpha_too_short_rejected(self):
        with pytest.raises(ConstructionError):
            AddSkewPlan(i=0, j=8, n=9, alpha_duration=10.0, rho=RHO)

    def test_straggler_horizon_beyond_beta_end(self):
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        assert plan.straggler_horizon > plan.beta_end
        assert plan.straggler_horizon < plan.window_end


class TestApply:
    def test_rejects_duration_mismatch(self):
        topo = line(9)
        schedule = AdversarySchedule.quiet(topo.nodes, 20.0)
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        with pytest.raises(ConstructionError):
            apply_add_skew(schedule, plan)

    def test_rejects_nonquiet_window(self):
        topo = line(9)
        schedule = AdversarySchedule.quiet(topo.nodes, 16.0)
        rates = dict(schedule.rates)
        rates[3] = PiecewiseConstantRate.constant(1.0).with_rate(10.0, 12.0, 1.2)
        schedule = replace(schedule, rates=rates)
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        with pytest.raises(ConstructionError):
            apply_add_skew(schedule, plan)

    def test_beta_schedule_shape(self):
        topo = line(9)
        schedule = AdversarySchedule.quiet(topo.nodes, 16.0)
        plan = AddSkewPlan(i=0, j=8, n=9, alpha_duration=16.0, rho=RHO)
        beta = apply_add_skew(schedule, plan)
        assert beta.duration == pytest.approx(plan.beta_end)
        # Leader runs at gamma through the window, laggard never.
        assert beta.rates[0].rate_at(plan.window_start + 0.1) == pytest.approx(GAMMA)
        assert beta.rates[8].max_rate() == 1.0
        # Everyone back to rate 1 after beta_end.
        assert all(
            r.rate_at(plan.beta_end + 0.5) == 1.0 for r in beta.rates.values()
        )


class TestVerifiedApplication:
    @pytest.mark.parametrize("lead", ["lo", "hi"])
    def test_claims_hold_both_directions(self, lead):
        topo = line(7)
        algorithm = AveragingAlgorithm()
        schedule = AdversarySchedule.quiet(topo.nodes, TAU * 6)
        alpha = schedule.run(topo, algorithm, rho=RHO, seed=0)
        plan = AddSkewPlan(
            i=0, j=6, n=7, alpha_duration=schedule.duration, rho=RHO, lead=lead
        )
        beta_schedule = apply_add_skew(schedule, plan)
        beta = beta_schedule.run(topo, algorithm, rho=RHO, seed=0)
        assert_indistinguishable_prefix(alpha, beta)
        summary = verify_add_skew_claims(alpha, beta, plan)
        assert summary["gain"] >= plan.guaranteed_gain - 1e-6
        # Claim 6.5's mechanism: window shrink at least span/6.
        assert summary["window_shrink"] >= plan.span / 6.0 - 1e-9

    def test_fixture_pair_verifies(self, add_skew_pair):
        alpha, beta, plan = add_skew_pair
        summary = verify_add_skew_claims(alpha, beta, plan)
        assert summary["gain"] >= plan.guaranteed_gain - 1e-6

    def test_interior_pair(self):
        """Add Skew applied to an interior pair, not the endpoints."""
        topo = line(9)
        algorithm = MaxBasedAlgorithm()
        schedule = AdversarySchedule.quiet(topo.nodes, TAU * 4)
        alpha = schedule.run(topo, algorithm, rho=RHO, seed=0)
        plan = AddSkewPlan(
            i=2, j=6, n=9, alpha_duration=schedule.duration, rho=RHO, lead="lo"
        )
        beta_schedule = apply_add_skew(schedule, plan)
        beta = beta_schedule.run(topo, algorithm, rho=RHO, seed=0)
        assert_indistinguishable_prefix(alpha, beta)
        verify_add_skew_claims(alpha, beta, plan)
