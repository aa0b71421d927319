"""Tests for Reference Broadcast Synchronization."""

import pytest

from repro.algorithms import RBSAlgorithm
from repro.sweep import drifted_rates
from repro.sim.messages import UniformRandomDelay
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import broadcast_cluster

RHO = 0.1


def run_cluster(n=6, duration=40.0, eps=0.01, seed=0):
    topo = broadcast_cluster(n, uncertainty=eps)
    alg = RBSAlgorithm(period=2.0)
    ex = run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=seed),
        rate_schedules=drifted_rates(topo, rho=RHO, seed=seed),
        delay_policy=UniformRandomDelay(),
    )
    return ex, alg


def receiver_spread(ex, beacon, t):
    values = [
        ex.logical_value(n, t) for n in ex.topology.nodes if n != beacon
    ]
    return max(values) - min(values)


class TestRBS:
    def test_receivers_converge_to_jitter_scale(self):
        ex, alg = run_cluster()
        # After a few pulses the receiver spread collapses to roughly the
        # drift accumulated within one period plus jitter — far below the
        # unsynchronized drift (~0.2 * 40 = 8).
        spread = max(receiver_spread(ex, alg.beacon, t) for t in (30.0, 35.0, 40.0))
        assert spread < 1.0

    def test_no_runaway_offsets(self):
        """Regression: offsets must converge, not grow once per pulse."""
        ex, alg = run_cluster(duration=60.0)
        early = receiver_spread(ex, alg.beacon, 20.0)
        late = receiver_spread(ex, alg.beacon, 60.0)
        assert late < early + 1.0
        # Logical clocks stay within a sane envelope of real time.
        for node in ex.topology.nodes:
            assert ex.logical_value(node, 60.0) < 60.0 * 1.5

    def test_validity(self):
        ex, _ = run_cluster()
        ex.check_validity()

    def test_beacon_emits_numbered_pulses(self):
        ex, alg = run_cluster()
        pulses = [
            e.detail[1][1]
            for e in ex.trace.of_kind("send")
            if e.node == alg.beacon and e.detail[1][0] == "pulse"
        ]
        per_receiver = len(ex.topology.nodes) - 1
        assert len(pulses) >= 2 * per_receiver
        # Pulse numbers increase.
        distinct = sorted(set(pulses))
        assert distinct == list(range(1, len(distinct) + 1))

    def test_observation_exchange_happens(self):
        ex, alg = run_cluster()
        obs = [
            e
            for e in ex.trace.of_kind("send")
            if e.node != alg.beacon and e.detail[1][0] == "obs"
        ]
        assert obs
