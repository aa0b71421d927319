"""Tests for analysis utilities (reporting, skew, gradient_profile)."""

import numpy as np
import pytest

from repro.algorithms import NullAlgorithm
from repro.analysis.field import SkewField
from repro.analysis.gradient_profile import fit_linear
from repro.analysis.reporting import Table
from repro.analysis.skew import summarize
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line


class TestTable:
    def test_render_alignment(self):
        t = Table(title="T", headers=["a", "long-header"], caption="cap")
        t.add_row(1, 2.5)
        t.add_row("xyz", 1e-8)
        out = t.render()
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "cap"
        assert "a" in lines[2] and "long-header" in lines[2]
        assert len(set(len(l) for l in lines[2:])) <= 2  # aligned widths

    def test_row_arity_checked(self):
        t = Table(title="T", headers=["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_float_formatting(self):
        t = Table(title="T", headers=["x"])
        t.add_row(float("nan"))
        t.add_row(0.5)
        t.add_row(123456.0)
        rendered = t.render()
        assert "-" in rendered
        assert "0.5" in rendered

    def test_extend(self):
        t = Table(title="T", headers=["a"])
        t.extend([[1], [2]])
        assert len(t.rows) == 2


class TestFitLinear:
    def test_exact_linear_recovered(self):
        profile = {1.0: 3.0, 2.0: 5.0, 3.0: 7.0}
        fit = fit_linear(profile)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_single_point_degenerates(self):
        fit = fit_linear({2.0: 5.0})
        assert fit.slope == 0.0
        assert fit.intercept == 5.0

    def test_empty_profile_is_a_value_error(self):
        with pytest.raises(ValueError, match="empty profile"):
            fit_linear({})

    def test_max_over_linear(self):
        profile = {1.0: 2.0, 2.0: 4.0, 3.0: 9.0}  # last point above trend
        fit = fit_linear(profile)
        assert fit.max_over_linear > 1.0


class TestSkewSummaries:
    @pytest.fixture()
    def drift_exec(self):
        topo = line(4)
        rates = {3: PiecewiseConstantRate.constant(1.5)}
        return run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=10.0, rho=0.5, seed=0),
            rate_schedules=rates,
        )

    def test_summarize(self, drift_exec):
        s = summarize(drift_exec, step=1.0)
        assert s.max_skew == pytest.approx(5.0)
        assert s.final_skew == pytest.approx(5.0)
        assert s.max_adjacent_skew == pytest.approx(5.0)
        assert s.mean_abs_skew > 0

    def test_time_series(self, drift_exec):
        field = SkewField(drift_exec, [0.0, 5.0, 10.0])
        peaks = field.max_skew_series()
        assert list(peaks) == pytest.approx([0.0, 2.5, 5.0])
        adj = field.max_adjacent_series()
        assert list(adj) == pytest.approx([0.0, 2.5, 5.0])

    def test_heatmap_shape(self, drift_exec):
        hm = SkewField(drift_exec, [0.0, 5.0]).heatmap()
        assert hm.shape == (2, 4, 4)
        assert np.allclose(hm[0], 0.0)


class TestSkewField:
    @pytest.fixture()
    def drift_exec(self):
        topo = line(4)
        rates = {3: PiecewiseConstantRate.constant(1.5)}
        return run_simulation(
            topo,
            NullAlgorithm().processes(topo),
            SimConfig(duration=10.0, rho=0.5, seed=0),
            rate_schedules=rates,
        )

    def test_matrix_shape_and_values(self, drift_exec):
        field = SkewField(drift_exec, step=1.0)
        assert field.values.shape == (4, 11)
        # Node 3 runs at 1.5, everyone else at 1.0.
        assert field.values[3, -1] == pytest.approx(15.0)
        assert field.values[0, -1] == pytest.approx(10.0)

    def test_series_queries(self, drift_exec):
        field = SkewField(drift_exec, step=1.0)
        assert field.max_skew() == pytest.approx(5.0)
        assert field.max_adjacent_skew() == pytest.approx(5.0)
        t, s = field.peak_adjacent_skew()
        assert (t, s) == (pytest.approx(10.0), pytest.approx(5.0))

    def test_skew_matrix_column(self, drift_exec):
        field = SkewField(drift_exec, [0.0, 8.0])
        assert np.allclose(field.skew_matrix(1), drift_exec.skew_matrix(8.0))

    def test_pair_series(self, drift_exec):
        field = SkewField(drift_exec, [0.0, 5.0, 10.0])
        assert field.pair_series(3, 0) == pytest.approx([0.0, 2.5, 5.0])

    def test_mean_abs_matches_matrix_mean(self, drift_exec):
        field = SkewField(drift_exec, step=2.0)
        scalar = []
        for t in drift_exec.sample_times(2.0):
            m = np.abs(drift_exec.skew_matrix(t))
            scalar.append(m.sum() / (m.size - m.shape[0]))
        assert field.mean_abs_series() == pytest.approx(scalar, abs=1e-9)

    def test_gradient_profile_matches_execution(self, drift_exec):
        # Node 3 gains 0.5 per unit on every other node: each distance's
        # worst pair ends 5.0 apart.
        field = SkewField(drift_exec, drift_exec.sample_times())
        assert field.gradient_profile() == pytest.approx(
            {1.0: 5.0, 2.0: 5.0, 3.0: 5.0}
        )

    def test_summary_matches_summarize(self, drift_exec):
        field = SkewField(drift_exec, step=1.0)
        assert field.summary() == summarize(drift_exec, step=1.0)

    def test_rejects_empty_grid(self, drift_exec):
        with pytest.raises(ValueError):
            SkewField(drift_exec, [])
