"""Tests for the executable indistinguishability checker."""

from dataclasses import replace

import pytest

from repro.algorithms import MaxBasedAlgorithm
from repro.errors import IndistinguishabilityError
from repro.gcs.indistinguishability import (
    assert_indistinguishable_prefix,
    assert_same_local_view,
    local_view,
)
from repro.gcs.schedule import AdversarySchedule
from repro.sim.messages import FixedFractionDelay
from repro.topology.generators import line

RHO = 0.5


def quiet_run(duration=12.0, seed=0, delay=None):
    topo = line(5)
    schedule = AdversarySchedule.quiet(topo.nodes, duration)
    if delay is not None:
        schedule = replace(schedule, delay_oracle=delay)
    return schedule.run(topo, MaxBasedAlgorithm(), rho=RHO, seed=seed)


class TestLocalView:
    def test_drops_start_events(self):
        ex = quiet_run()
        view = local_view(ex, 0)
        assert all(entry[1] != "start" for entry in view)

    def test_horizon_truncates(self):
        ex = quiet_run()
        full = local_view(ex, 0)
        half = local_view(ex, 0, hardware_horizon=6.0)
        assert len(half) < len(full)
        assert all(entry[0] <= 6.0 for entry in half)

    def test_detail_floats_rounded(self):
        ex = quiet_run()
        view = local_view(ex, 0, digits=2)
        for _, _, detail in view:
            if isinstance(detail, tuple):
                for x in detail:
                    if isinstance(x, float):
                        assert round(x, 2) == x


class TestSameView:
    def test_identical_runs_indistinguishable(self):
        ex1 = quiet_run()
        ex2 = quiet_run()
        assert_indistinguishable_prefix(ex1, ex2)

    def test_shorter_run_is_prefix(self):
        long = quiet_run(duration=12.0)
        short = quiet_run(duration=8.0)
        assert_indistinguishable_prefix(long, short)

    def test_different_delays_distinguishable(self):
        ex1 = quiet_run()
        ex2 = quiet_run(delay=FixedFractionDelay(0.25))
        with pytest.raises(IndistinguishabilityError):
            assert_indistinguishable_prefix(ex1, ex2)

    def test_single_node_check(self):
        ex1 = quiet_run()
        ex2 = quiet_run()
        assert_same_local_view(ex1, ex2, 3, hardware_horizon=10.0)

    def test_warped_rerun_indistinguishable(self, add_skew_pair):
        alpha, beta, plan = add_skew_pair
        assert_indistinguishable_prefix(alpha, beta)

    def test_node_subset(self):
        ex1 = quiet_run()
        ex2 = quiet_run()
        assert_indistinguishable_prefix(ex1, ex2, nodes=[0, 4])
