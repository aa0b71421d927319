"""Integration tests: algorithms x topologies, multi-round constructions."""

import pytest

from repro._constants import tau as tau_of
from repro.algorithms import standard_suite
from repro.gcs.add_skew import AddSkewPlan, apply_add_skew, verify_add_skew_claims
from repro.gcs.indistinguishability import assert_indistinguishable_prefix
from repro.gcs.schedule import AdversarySchedule
from repro.sim.messages import UniformRandomDelay
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep import drifted_rates
from repro.topology.generators import balanced_tree, grid, line, ring

RHO = 0.3

TOPOLOGIES = [
    line(7),
    ring(8),
    grid(3, 3),
    balanced_tree(2, 2),
]


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize(
    "algorithm", standard_suite(), ids=lambda a: a.name
)
def test_algorithm_topology_matrix(topology, algorithm):
    """Every algorithm on every topology: model-compliant and better than
    free-running drift."""
    ex = run_simulation(
        topology,
        algorithm.processes(topology),
        SimConfig(duration=40.0, rho=RHO, seed=5),
        rate_schedules=drifted_rates(topology, rho=RHO, seed=5),
        delay_policy=UniformRandomDelay(),
    )
    ex.check_validity()
    ex.check_delay_bounds()
    ex.check_drift_bounds()
    # Synchronization does something: final peak skew below worst-case
    # free drift accumulation (2 * rho * duration = 24).
    assert ex.max_skew(40.0) < 2 * RHO * 40.0


class TestTwoRoundChain:
    """Two chained Add Skew rounds with full verification at each step —
    the inductive heart of Theorem 8.1, checked explicitly."""

    RHO = 0.5

    def test_chain(self):
        tau = tau_of(self.RHO)
        topo = line(9)
        algorithm = standard_suite()[0]  # max-based

        # alpha_0: quiet, duration tau * 8.
        schedule = AdversarySchedule.quiet(topo.nodes, tau * 8)
        alpha0 = schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert alpha0.delays_within(0.5, 0.5)

        # Round 0: pair (0, 8).
        plan0 = AddSkewPlan(
            i=0, j=8, n=9, alpha_duration=schedule.duration, rho=self.RHO
        )
        beta0_schedule = apply_add_skew(schedule, plan0)
        beta0 = beta0_schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert_indistinguishable_prefix(alpha0, beta0)
        verify_add_skew_claims(alpha0, beta0, plan0)

        # Extend past the straggler horizon + next window (span 2).
        pad = plan0.straggler_horizon - plan0.beta_end
        schedule = beta0_schedule.extended(2 * tau + pad + 1e-6)
        alpha1 = schedule.run(topo, algorithm, rho=self.RHO, seed=0)

        # alpha1's final window is quiet again: preconditions restored.
        s1 = schedule.duration - 2 * tau
        assert alpha1.delays_within(0.5, 0.5, received_from=s1)
        assert alpha1.rates_within(1.0, 1.0, t_from=s1)
        # Bounded Increase preconditions hold globally (Claim 8.3).
        assert alpha1.rates_within(1.0, 1.0 + self.RHO / 2)
        assert alpha1.delays_within(0.25, 0.75)

        # Round 1 on a nested pair (0, 2).
        plan1 = AddSkewPlan(
            i=0, j=2, n=9, alpha_duration=schedule.duration, rho=self.RHO
        )
        beta1_schedule = apply_add_skew(schedule, plan1)
        beta1 = beta1_schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert_indistinguishable_prefix(alpha1, beta1)
        summary = verify_add_skew_claims(alpha1, beta1, plan1)
        assert summary["gain"] >= plan1.guaranteed_gain - 1e-6

        # Skew accumulated across rounds.
        final = beta1.skew(0, 2, beta1.duration)
        assert final >= plan1.guaranteed_gain - 1e-6

    def test_mirrored_chain(self):
        """The same two-round chain with lead='hi' (the reflection WLOG)."""
        tau = tau_of(self.RHO)
        topo = line(9)
        algorithm = standard_suite()[0]
        schedule = AdversarySchedule.quiet(topo.nodes, tau * 8)
        alpha0 = schedule.run(topo, algorithm, rho=self.RHO, seed=0)

        plan0 = AddSkewPlan(
            i=0, j=8, n=9, alpha_duration=schedule.duration, rho=self.RHO,
            lead="hi",
        )
        beta0_schedule = apply_add_skew(schedule, plan0)
        beta0 = beta0_schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert_indistinguishable_prefix(alpha0, beta0)
        summary0 = verify_add_skew_claims(alpha0, beta0, plan0)
        # The mirror grows L_j - L_i.
        assert beta0.skew(8, 0, beta0.duration) >= plan0.guaranteed_gain - 1e-6

        pad = plan0.straggler_horizon - plan0.beta_end
        schedule = beta0_schedule.extended(2 * tau + pad + 1e-6)
        alpha1 = schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        plan1 = AddSkewPlan(
            i=6, j=8, n=9, alpha_duration=schedule.duration, rho=self.RHO,
            lead="hi",
        )
        beta1_schedule = apply_add_skew(schedule, plan1)
        beta1 = beta1_schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert_indistinguishable_prefix(alpha1, beta1)
        verify_add_skew_claims(alpha1, beta1, plan1)

    def test_chain_against_gradient_algorithm(self):
        """The construction is algorithm-independent: it also lands on the
        gradient candidate."""
        from repro.algorithms import BoundedCatchUpAlgorithm

        tau = tau_of(self.RHO)
        topo = line(5)
        algorithm = BoundedCatchUpAlgorithm(period=0.5)
        schedule = AdversarySchedule.quiet(topo.nodes, tau * 4)
        alpha = schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        plan = AddSkewPlan(
            i=0, j=4, n=5, alpha_duration=schedule.duration, rho=self.RHO
        )
        beta_schedule = apply_add_skew(schedule, plan)
        beta = beta_schedule.run(topo, algorithm, rho=self.RHO, seed=0)
        assert_indistinguishable_prefix(alpha, beta)
        verify_add_skew_claims(alpha, beta, plan)
