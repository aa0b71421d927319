"""Tests for the bounded-catch-up gradient candidate."""

import pytest

from _fault_helpers import assert_monotone_logical, run_crash_recovery
from repro.algorithms import BoundedCatchUpAlgorithm, MaxBasedAlgorithm, NullAlgorithm
from repro.sim.messages import PerPairDelay, UniformRandomDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line

RHO = 0.2


def run_drifted(alg, n=9, duration=80.0, seed=0):
    topo = line(n)
    rates = {
        node: PiecewiseConstantRate.constant(
            1.0 - RHO + 2 * RHO * node / (n - 1)
        )
        for node in topo.nodes
    }
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=seed),
        rate_schedules=rates,
        delay_policy=UniformRandomDelay(),
    )


class TestParameters:
    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            BoundedCatchUpAlgorithm(kappa=0.0)

    def test_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            BoundedCatchUpAlgorithm(mu=-1.0)

    def test_rejects_bad_compensation(self):
        with pytest.raises(ValueError):
            BoundedCatchUpAlgorithm(compensation=2.0).processes(line(3))


class TestBehavior:
    def test_fast_mode_engages(self):
        alg = BoundedCatchUpAlgorithm(period=0.5, kappa=1.0, mu=0.5)
        ex = run_drifted(alg)
        rate_events = ex.trace.of_kind("rate")
        assert rate_events, "fast mode should have engaged at least once"
        assert any(e.detail == pytest.approx(1.5) for e in rate_events)

    def test_never_jumps(self):
        """Pure rate control: the blocking algorithm takes no jumps."""
        alg = BoundedCatchUpAlgorithm(period=0.5, kappa=1.0, mu=0.5)
        ex = run_drifted(alg)
        assert all(ex.logical[n].total_jump() == 0.0 for n in ex.topology.nodes)

    def test_tracks_drift_better_than_null(self):
        alg = BoundedCatchUpAlgorithm(period=0.5, kappa=0.5, mu=0.5)
        ex = run_drifted(alg)
        null = run_drifted(NullAlgorithm())
        assert ex.max_skew(80.0) < null.max_skew(80.0) / 2.0

    def test_validity(self):
        alg = BoundedCatchUpAlgorithm(period=0.5, kappa=1.0, mu=0.5)
        run_drifted(alg).check_validity()

    def test_no_distance_one_spike_on_delay_drop(self):
        """The Section 2 scenario that breaks max-based: rate control
        cannot produce a discontinuous distance-1 spike."""
        topo = line(3, comm_radius=2.0)
        rates = {0: PiecewiseConstantRate.constant(1.0 + RHO)}
        delays = PerPairDelay()
        delays.set(0, 1, 1.0)
        delays.set_after(0, 1, 30.0, 0.0)
        common = dict(
            rate_schedules=rates,
            delay_policy=delays,
        )
        config = SimConfig(duration=45.0, rho=RHO, seed=0)
        bcu = run_simulation(
            topo,
            BoundedCatchUpAlgorithm(period=0.5, kappa=1.0, mu=0.5).processes(topo),
            config,
            **common,
        )
        mx = run_simulation(
            topo, MaxBasedAlgorithm(period=0.5).processes(topo), config, **common
        )

        def spike(ex):
            pre = max(abs(ex.skew(1, 2, t)) for t in (28.0, 29.0, 29.9))
            post = max(abs(ex.skew(1, 2, t)) for t in (30.1, 30.3, 30.6, 31.0))
            return post - pre

        assert spike(bcu) < spike(mx)

    def test_local_skew_bounded_under_heavy_drift(self):
        alg = BoundedCatchUpAlgorithm(period=0.5, kappa=0.5, mu=0.5)
        ex = run_drifted(alg, duration=120.0)
        profile = ex.gradient_profile()
        # Local skew should stay near kappa + estimate error, far below
        # the free-drift accumulation (2*RHO/8 per unit distance * 120s).
        assert profile[1.0] < 3.0
        # kappa trades local smoothness for global tightness: a larger
        # budget never buys a tighter f(1).
        loose = run_drifted(
            BoundedCatchUpAlgorithm(period=0.5, kappa=4.0, mu=0.5),
            duration=120.0,
        ).gradient_profile()
        assert loose[1.0] >= profile[1.0] - 0.5


@pytest.mark.faults
class TestRecovery:
    """Crash-recovery of the blocking gradient candidate: the clock
    stays monotone, fast mode resets, and local skew re-converges to
    the algorithm's own (kappa-shaped) fault-free equilibrium."""

    def test_recovered_clock_never_jumps_backward(self):
        ex = run_crash_recovery(BoundedCatchUpAlgorithm(period=0.5))
        assert_monotone_logical(ex, 2)
        ex.check_validity()

    def test_reconverges_to_fault_free_equilibrium(self):
        alg = BoundedCatchUpAlgorithm(period=0.5)
        faulted = run_crash_recovery(alg)
        # The equilibrium is kappa-shaped (not near zero); compare to
        # the same scenario run fault-free rather than to a constant.
        from repro.sweep.families import spread_rates

        topo = line(5)
        baseline = run_simulation(
            topo,
            BoundedCatchUpAlgorithm(period=0.5).processes(topo),
            SimConfig(duration=40.0, rho=0.2, seed=0),
            rate_schedules=spread_rates(topo, rho=0.2),
        )
        assert faulted.max_skew(40.0) <= baseline.max_skew(40.0) + 0.5

    def test_recovery_resets_fast_mode(self):
        ex = run_crash_recovery(BoundedCatchUpAlgorithm(period=0.5))
        # The recovery itself records a rate event back to 1.0 if the
        # node was in fast mode; either way, the node must still be
        # able to re-engage fast mode afterwards to catch up.
        post_rates = [
            e for e in ex.trace.of_kind("rate")
            if e.node == 2 and e.real_time >= 16.0
        ]
        assert any(e.detail == pytest.approx(2.0) for e in post_rates)

    def test_still_never_jumps(self):
        ex = run_crash_recovery(BoundedCatchUpAlgorithm(period=0.5))
        assert all(ex.logical[n].total_jump() == 0.0 for n in ex.topology.nodes)
