"""Negative-path tests: the verifiers must *fail* on corrupted inputs.

A verifier that never fires is worse than none; these tests feed each
checker executions that genuinely violate its claim and assert the
violation is caught.
"""

from dataclasses import replace

import pytest

from _validity_reference import grid_check_execution
from repro._constants import tau as tau_of
from repro.algorithms import MaxBasedAlgorithm
from repro.errors import ConstructionError, IndistinguishabilityError, ValidityError
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.messages import FixedFractionDelay, UniformRandomDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sweep import Scenario
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
        schedule = replace(AdversarySchedule.quiet(topo.nodes, 12.0), rates=rates)
        alpha = schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=0)
        other = schedule.run(topo, AveragingAlgorithm(), rho=RHO, seed=0)
        with pytest.raises(IndistinguishabilityError):
            assert_indistinguishable_prefix(alpha, other)

    def test_random_delays_distinguished(self):
        topo, schedule, alpha = quiet_alpha()
        noisy = replace(schedule, delay_oracle=UniformRandomDelay()).run(
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


def benign(duration, *, n=4):
    return Scenario(
        topology=f"line:{n}", algorithm="max-based", rates="drifted",
        duration=duration, rho=0.2, seed=0,
    ).simulate()


def with_slow_clock(execution, node, starts, rates, rho=0.7):
    """``execution`` with ``node``'s clocks replaced by a hardware-rate
    logical clock on the given (out-of-model for ``rho <= 1/2``) rates."""
    hardware = HardwareClock(PiecewiseConstantRate(starts, rates), rho)
    execution.hardware[node] = hardware
    execution.logical[node] = LogicalClock(hardware)
    return execution


class TestValidityFires:
    """Requirement 1 violations the step-0.5 grid walk misses; the exact
    check must name the node, the time, and the bad rate or jump."""

    def test_slow_piece_inside_one_grid_window(self):
        # Rate 0.4 on [1.1, 1.4]: the grid window [1.0, 1.5] still gains
        # 0.32 >= 0.25, but the interval [1.1, 1.4] gains only 0.12.
        ex = with_slow_clock(benign(6.0), 0, (0.0, 1.1, 1.4), (1.0, 0.4, 1.0))
        grid_check_execution(ex)
        with pytest.raises(ValidityError, match=r"node 0: logical rate 0\.4 from t=1\.1 "):
            ex.check_validity()

    def test_slow_piece_in_the_final_partial_window(self):
        # The grid's last window ends at 5.0; the slow piece is after it.
        ex = with_slow_clock(benign(5.3), 2, (0.0, 5.05), (1.0, 0.4))
        grid_check_execution(ex)
        with pytest.raises(ValidityError, match=r"node 2: logical rate 0\.4 from t=5\.05 "):
            ex.check_validity()

    def test_run_shorter_than_one_window(self):
        # Duration 0.3 < step: the grid has no window to look at.
        ex = with_slow_clock(benign(0.3, n=3), 1, (0.0,), (0.4,))
        grid_check_execution(ex)
        with pytest.raises(ValidityError, match=r"node 1: logical rate 0\.4 from t=0\.0 "):
            ex.check_validity()

    def test_backward_jump_written_into_the_segment_columns(self):
        ex = benign(5.3)
        times, values, _ = ex.logical[1].columns()
        assert len(times) > 2
        # Lower segment 2's value to 0.1 below segment 1 carried to its
        # start: the window around it still gains more than 0.25.
        hardware = ex.hardware[1]
        carried = values[1] + (hardware.value_at(times[2]) - hardware.value_at(times[1]))
        values[2] = carried - 0.1
        grid_check_execution(ex)
        with pytest.raises(ValidityError) as err:
            ex.check_validity()
        jump = values[2] - carried
        assert str(err.value) == (
            f"node 1: backward jump of {jump} at t={times[2]} violates Requirement 1"
        )
        assert jump == pytest.approx(-0.1)
