"""Tests for external (source-tree) synchronization."""

import numpy as np
import pytest

from repro.algorithms import ExternalSyncAlgorithm, NullAlgorithm
from repro.errors import TopologyError
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.sim.trace import JUMP
from repro.topology.base import Topology
from repro.topology.generators import line

RHO = 0.3


def run_line(n=6, duration=60.0, source=0, source_rate=1.0, seed=0):
    topo = line(n)
    alg = ExternalSyncAlgorithm(period=0.5, source=source)
    rates = {source: PiecewiseConstantRate.constant(source_rate)}
    for node in topo.nodes:
        if node != source:
            rates[node] = PiecewiseConstantRate.constant(
                1.0 + RHO * (0.5 if node % 2 else -0.5)
            )
    ex = run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=RHO, seed=seed),
        rate_schedules=rates,
    )
    return ex, alg


def external_error(ex, source, t):
    return max(
        abs(ex.logical_value(n, t) - ex.logical_value(source, t))
        for n in ex.topology.nodes
    )


class TestExternal:
    def test_followers_track_fast_source(self):
        ex, alg = run_line(source_rate=1.0 + RHO)
        null, _ = run_line(source_rate=1.0 + RHO, seed=1)
        err = external_error(ex, alg.source, 60.0)
        drift_err = 60.0 * RHO  # what free-running clocks would show
        assert err < drift_err / 2.0

    def test_followers_track_slow_source_via_slow_mode(self):
        ex, alg = run_line(source_rate=1.0 - RHO / 2)
        err = external_error(ex, alg.source, 60.0)
        # Followers can slow to ~0.71 * h; they track a 0.85-rate source
        # much better than free-running (which would be ~9+).
        assert err < 6.0

    def test_validity_holds_despite_slow_mode(self):
        ex, _ = run_line(source_rate=1.0 - RHO / 2)
        ex.check_validity()

    def test_unreachable_source_raises(self):
        # Two disconnected pairs: BFS from 0 cannot reach 2, 3.
        d = np.array(
            [
                [0.0, 1.0, 9.0, 9.0],
                [1.0, 0.0, 9.0, 9.0],
                [9.0, 9.0, 0.0, 1.0],
                [9.0, 9.0, 1.0, 0.0],
            ]
        )
        topo = Topology(
            d,
            frozenset({(0, 1), (2, 3)}),
            name="split",
        )
        with pytest.raises(TopologyError):
            ExternalSyncAlgorithm(source=0).processes(topo)

    def test_bad_source_raises(self):
        with pytest.raises(TopologyError):
            ExternalSyncAlgorithm(source=99).processes(line(4))

    def test_source_never_adjusts(self):
        ex, alg = run_line()
        assert all(e.node != alg.source for e in ex.trace.of_kind(JUMP))
