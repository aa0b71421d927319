"""Tests for time-series helpers (analysis.timeseries)."""

import pytest

from repro.algorithms import NullAlgorithm
from repro.analysis.field import SkewField
from repro.analysis.timeseries import render_csv, sparkline, write_csv
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line


@pytest.fixture()
def drift_exec():
    topo = line(4)
    rates = {3: PiecewiseConstantRate.constant(1.5)}
    return run_simulation(
        topo,
        NullAlgorithm().processes(topo),
        SimConfig(duration=10.0, rho=0.5, seed=0),
        rate_schedules=rates,
    )


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_accepts_the_arrays_a_skew_field_returns(self, drift_exec):
        series = SkewField(drift_exec).max_skew_series()
        assert sparkline(series) == sparkline(list(series))
        assert sparkline(series[:0]) == ""

    def test_constant_is_flat(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_monotone_rises(self):
        s = sparkline([0.0, 1.0, 2.0, 3.0])
        assert s[0] == "▁" and s[-1] == "█"
        assert len(s) == 4

    def test_pinned_scale(self):
        s = sparkline([5.0], lo=0.0, hi=10.0)
        assert s not in ("▁", "█")


class TestSeries:
    def test_skew_series_grows_with_drift(self, drift_exec):
        field = SkewField(drift_exec, step=2.0)
        values = field.pair_series(3, 0)
        assert len(field.times) == len(values)
        assert values[0] == pytest.approx(0.0)
        assert values[-1] == pytest.approx(5.0)

    def test_adjacent_series(self, drift_exec):
        values = SkewField(drift_exec, step=5.0).max_adjacent_series()
        assert values[-1] == pytest.approx(5.0)


class TestCSV:
    def test_write_and_read_back(self, drift_exec, tmp_path):
        field = SkewField(drift_exec, step=5.0)
        times = field.times.tolist()
        values = field.pair_series(3, 0).tolist()
        path = write_csv(tmp_path / "skew.csv", times, {"skew30": values})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,skew30"
        assert len(lines) == len(times) + 1

    def test_render_csv(self):
        out = render_csv([0.0, 1.0], {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        lines = out.strip().splitlines()
        assert lines[0] == "time,a,b"
        assert lines[1].startswith("0.0,1.0,3.0")

    def test_length_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", [0.0, 1.0], {"a": [1.0]})

    @pytest.mark.parametrize("column", [[1.0], [1.0, 2.0, 3.0]],
                             ids=["short", "long"])
    def test_render_csv_rejects_a_mismatched_column(self, column):
        # A long column used to be truncated silently, a short one to
        # raise a bare IndexError.
        with pytest.raises(ValueError, match=r"column 'a' has \d values for 2"):
            render_csv([0.0, 1.0], {"a": column})

    def test_file_holds_render_csv_bytes(self, tmp_path):
        times, columns = [0.0, 0.5], {"b": [3.0, 4.0], "a": [1.0, 2.0]}
        path = write_csv(tmp_path / "out.csv", times, columns)
        assert path.read_bytes() == render_csv(times, columns).encode()
        assert path.read_bytes() == b"time,a,b\r\n0.0,1.0,3.0\r\n0.5,2.0,4.0\r\n"
