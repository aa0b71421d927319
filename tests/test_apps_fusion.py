"""Tests for the data fusion overlay (apps.fusion)."""

import pytest

from repro.algorithms import NullAlgorithm
from repro.apps.fusion import evaluate_fusion, fusion_groups
from repro.errors import ExperimentError
from repro.sweep import drifted_rates
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import balanced_tree, line


def tree_execution(rho=0.0, duration=20.0, seed=0):
    topo = balanced_tree(3, 2)
    rates = drifted_rates(topo, rho=rho, seed=seed) if rho else None
    return run_simulation(
        topo,
        NullAlgorithm().processes(topo),
        SimConfig(duration=duration, rho=max(rho, 0.0), seed=seed),
        rate_schedules=rates,
    )


class TestGroups:
    def test_tree_groups(self):
        topo = balanced_tree(3, 2)
        groups = fusion_groups(topo, root=0)
        # root + 3 internal nodes each with 3 children
        assert len(groups) == 4
        root_group = [g for g in groups if g.parent == 0][0]
        assert len(root_group.children) == 3

    def test_line_has_no_groups(self):
        with pytest.raises(ExperimentError):
            evaluate_fusion(
                run_simulation(
                    line(4),
                    NullAlgorithm().processes(line(4)),
                    SimConfig(duration=5.0, seed=0),
                ),
                tolerance=1.0,
            )

    def test_bad_root(self):
        topo = balanced_tree(2, 2)
        with pytest.raises(ExperimentError):
            fusion_groups(topo, root=99)


class TestEvaluation:
    def test_perfect_clocks_fuse_everything(self):
        ex = tree_execution(rho=0.0)
        report = evaluate_fusion(ex, tolerance=0.1, n_events=20)
        assert report.misfusion_rate == 0.0
        assert report.worst_spread == pytest.approx(0.0, abs=1e-9)

    def test_drifted_clocks_misfuse_with_tight_tolerance(self):
        ex = tree_execution(rho=0.4, duration=40.0)
        tight = evaluate_fusion(ex, tolerance=0.05, n_events=20, warmup=20.0)
        loose = evaluate_fusion(ex, tolerance=1e6, n_events=20, warmup=20.0)
        assert tight.misfusion_rate > 0.0
        assert loose.misfusion_rate == 0.0

    def test_spread_grows_with_time_under_drift(self):
        ex = tree_execution(rho=0.4, duration=40.0)
        early = evaluate_fusion(ex, tolerance=1.0, event_times=[1.0])
        late = evaluate_fusion(ex, tolerance=1.0, event_times=[39.0])
        assert late.worst_spread > early.worst_spread

    def test_rejects_bad_tolerance(self):
        ex = tree_execution()
        with pytest.raises(ExperimentError):
            evaluate_fusion(ex, tolerance=0.0)

    def test_report_accounting(self):
        ex = tree_execution(rho=0.2, duration=30.0)
        report = evaluate_fusion(ex, tolerance=0.5, n_events=10)
        assert report.events == 10
        assert report.groups == 4
        assert 0 <= report.fused_correctly <= 40
        assert report.mean_spread <= report.worst_spread + 1e-12
