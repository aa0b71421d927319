"""Negative-path tests: the verifiers must *fail* on corrupted inputs.

A verifier that never fires is worse than none; these tests feed each
checker executions that genuinely violate its claim and assert the
violation is caught.
"""

import pytest

from repro._constants import tau as tau_of
from repro.algorithms import MaxBasedAlgorithm
from repro.errors import ConstructionError, IndistinguishabilityError
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sim.messages import FixedFractionDelay, UniformRandomDelay
from repro.topology.generators import line

RHO = 0.5
TAU = tau_of(RHO)


def quiet_alpha(n=7, span=None, extra=0.0):
    span = span if span is not None else n - 1
    topo = line(n)
    schedule = AdversarySchedule.quiet(topo.nodes, TAU * span + extra)
    return topo, schedule, schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)


class TestAddSkewVerifierFires:
    def test_wrong_beta_execution_rejected(self):
        """Handing the verifier an unrelated execution must fail."""
        topo, schedule, alpha = quiet_alpha()
        plan = AddSkewPlan(
            i=0, j=6, n=7, alpha_duration=schedule.duration, rho=RHO
        )
        # "beta" = a run under different delays: no skew gained.
        fake_schedule = AdversarySchedule(
            rates=schedule.rates,
            delay_oracle=FixedFractionDelay(0.5),
            duration=plan.beta_end,
        )
        fake_beta = fake_schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)
        with pytest.raises(ConstructionError):
            verify_add_skew_claims(alpha, fake_beta, plan)

    def test_out_of_band_delays_rejected(self):
        topo, schedule, alpha = quiet_alpha()
        plan = AddSkewPlan(
            i=0, j=6, n=7, alpha_duration=schedule.duration, rho=RHO
        )
        # Delays of 0.9 * d are outside [d/4, 3d/4].
        bad_schedule = AdversarySchedule(
            rates=apply_add_skew(schedule, plan).rates,
            delay_oracle=FixedFractionDelay(0.9),
            duration=plan.beta_end,
        )
        bad_beta = bad_schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)
        with pytest.raises(ConstructionError):
            verify_add_skew_claims(alpha, bad_beta, plan)

    def test_prefix_delay_change_rejected(self):
        """Changing a frozen-prefix delay must be flagged."""
        topo, schedule, alpha = quiet_alpha(n=7, span=3, extra=8.0)  # S = 8
        plan = AddSkewPlan(
            i=0, j=3, n=7, alpha_duration=schedule.duration, rho=RHO
        )
        beta = apply_add_skew(schedule, plan).run(
            topo, MaxBasedAlgorithm(), rho=RHO, seed=0
        )
        # Corrupt one prefix message record post-hoc.
        for k, m in enumerate(beta.messages):
            if m.receive_time < plan.window_start - 0.5:
                beta.messages[k] = m._replace(delay=m.delay + 0.2)
                break
        with pytest.raises(ConstructionError):
            verify_add_skew_claims(alpha, beta, plan)


class TestIndistinguishabilityFires:
    def test_quiet_runs_of_max_and_averaging_truly_indistinguishable(self):
        """A subtlety worth pinning: on a perfectly quiet schedule the max
        and averaging algorithms behave *identically* (no gaps to close),
        so the checker must accept them."""
        topo, schedule, alpha = quiet_alpha()
        from repro.algorithms import AveragingAlgorithm

        other = schedule.run(topo, AveragingAlgorithm(), rho=RHO, seed=0)
        assert_indistinguishable_prefix(alpha, other)

    def test_different_algorithms_distinguished_under_drift(self):
        from repro.algorithms import AveragingAlgorithm
        from repro.sim.rates import PiecewiseConstantRate

        topo = line(7)
        rates = {
            node: PiecewiseConstantRate.constant(1.0 + RHO * node / 6)
            for node in topo.nodes
        }
        schedule = AdversarySchedule.quiet(topo.nodes, 12.0).with_rates(rates)
        alpha = schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)
        other = schedule.run(topo, AveragingAlgorithm(), rho=RHO, seed=0)
        with pytest.raises(IndistinguishabilityError):
            assert_indistinguishable_prefix(alpha, other)

    def test_random_delays_distinguished(self):
        topo, schedule, alpha = quiet_alpha()
        noisy = schedule.with_oracle(UniformRandomDelay()).run(
            topo, MaxBasedAlgorithm(), rho=RHO, seed=0
        )
        with pytest.raises(IndistinguishabilityError):
            assert_indistinguishable_prefix(alpha, noisy)


class TestBoundedIncreaseFires:
    def test_violating_bound_reported(self):
        from repro.gcs.bounded_increase import measure_bounded_increase

        _, _, alpha = quiet_alpha()
        # Claim an absurdly small f(1): the quiet gain of 1.0 exceeds 16*f.
        report = measure_bounded_increase(alpha, 0.01, rho=RHO)
        assert not report.satisfied
