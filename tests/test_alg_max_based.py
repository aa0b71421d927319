"""Tests for the max-based algorithm (Section 2's simplified Srikanth-Toueg)."""

import pytest

from _fault_helpers import assert_monotone_logical, run_crash_recovery
from repro.algorithms import MaxBasedAlgorithm, NullAlgorithm
from repro.sim.messages import PerPairDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.sim.trace import JUMP
from repro.topology.generators import line

RHO = 0.5


def run_with_fast_node(alg, n=5, duration=40.0, fast=4, period_check=True):
    topo = line(n)
    rates = {fast: PiecewiseConstantRate.constant(1.0 + RHO)}
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=0),
        rate_schedules=rates,
    )


class TestConvergence:
    def test_everyone_chases_fastest_clock(self):
        ex = run_with_fast_node(MaxBasedAlgorithm(period=0.5))
        null = run_with_fast_node(NullAlgorithm())
        assert ex.max_skew(40.0) < null.max_skew(40.0) / 2.0

    def test_skew_bounded_by_propagation_lag(self):
        # Steady state: node at distance d from the max lags at most
        # ~(d/2 delay + period) * fast rate + drift slack.
        ex = run_with_fast_node(MaxBasedAlgorithm(period=0.5), n=5)
        # distance-1 neighbor of the fast node
        lag = abs(ex.skew(4, 3, 40.0))
        assert lag < 2.5

    def test_clocks_never_jump_backward(self):
        ex = run_with_fast_node(MaxBasedAlgorithm())
        ex.check_validity()

    def test_period_validation(self):
        with pytest.raises(ValueError):
            MaxBasedAlgorithm(period=0.0).processes(line(3))


class TestGradientViolation:
    def test_distance_one_spike_after_delay_drop(self):
        """The Section 2 mechanism in miniature: y jumps, z lags."""
        topo = line(3, comm_radius=2.0)
        # x=0 runs fast and its messages to y=1 are maximally delayed,
        # then at t=20 the delay drops to zero.
        rates = {0: PiecewiseConstantRate.constant(1.5)}
        delays = PerPairDelay()
        delays.set(0, 1, 1.0)
        delays.set_after(0, 1, 20.0, 0.0)
        ex = run_simulation(
            topo,
            MaxBasedAlgorithm(period=0.5).processes(topo),
            SimConfig(duration=30.0, rho=RHO, seed=0),
            rate_schedules=rates,
            delay_policy=delays,
        )
        # Right after the drop, (1, 2) skew spikes above its pre-drop level.
        pre = max(abs(ex.skew(1, 2, t)) for t in (18.0, 19.0, 19.9))
        post = max(abs(ex.skew(1, 2, t)) for t in (20.1, 20.3, 20.5, 21.0))
        assert post > pre

    def test_ignores_foreign_payloads(self):
        from repro.algorithms.max_based import MaxProcess
        from repro.sim.simulator import Simulator
        from repro.sim.node import Process

        class Noise(Process):
            def on_start(self, api):
                api.send(1, ("garbage", 123.0))

        topo = line(2)
        procs = {0: Noise(), 1: MaxProcess(period=1.0)}
        ex = run_simulation(topo, procs, SimConfig(duration=5.0, seed=0))
        # Receiving garbage must not move the clock.
        assert all(e.node != 1 for e in ex.trace.of_kind(JUMP))


@pytest.mark.faults
class TestRecovery:
    """Crash-recovery semantics: the recovered clock stays monotone
    (Validity) and the network re-converges to its fault-free skew."""

    def test_recovered_clock_never_jumps_backward(self):
        ex = run_crash_recovery(MaxBasedAlgorithm(period=0.5))
        assert_monotone_logical(ex, 2)
        ex.check_validity()

    def test_reconverges_to_fault_free_skew(self):
        ex = run_crash_recovery(MaxBasedAlgorithm(period=0.5))
        # Elevated right after the outage, back to baseline by the end.
        assert ex.max_skew(16.5) > ex.max_skew(40.0)
        assert ex.max_skew(40.0) < 3.5

    def test_recovered_node_rejoins_gossip(self):
        ex = run_crash_recovery(MaxBasedAlgorithm(period=0.5))
        assert [
            e for e in ex.trace.of_kind("send")
            if e.node == 2 and e.real_time >= 16.0
        ]
