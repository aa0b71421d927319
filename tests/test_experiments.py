"""Tests for the experiment registry and runners (smoke level).

Each experiment runs at quick scale with reduced parameters where the
runner supports it; assertions check the *shape* claims the paper makes,
not absolute numbers — except :class:`TestGoldenTables`, which pins the
quick tables of the experiments whose cells became a ``Scenario`` (or an
``AdversarySchedule``) to the rows captured before that change.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments import REGISTRY, run_experiment
from repro.experiments.cli import main as cli_main

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_experiment_tables.json").read_text()
)

#: E15's stopwatch columns: wall time, the one thing a table may not pin.
STOPWATCH = ("sim s", "field s", "query s")


@functools.lru_cache(maxsize=None)
def quick(experiment_id):
    """One quick-scale run per experiment per session, shared by the
    shape tests and the golden tables."""
    return run_experiment(experiment_id)


class TestRegistry:
    def test_all_experiments_present(self):
        # E01-E11 reproduce the paper; E12 (Section 9 candidates), E13
        # (fault robustness), E14 (sim-vs-live), E15 (gradient profiles
        # at scale), and E16 (mobility) are the extensions.
        assert sorted(REGISTRY) == [f"E{k:02d}" for k in range(1, 17)]

    def test_unknown_id_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("E99")

    def test_case_insensitive(self):
        result = run_experiment("e03")
        assert result.experiment_id == "E03"

    def test_bad_scale_raises(self):
        with pytest.raises(ExperimentError):
            run_experiment("E01", scale="huge")


class TestRunners:
    def test_e01_linear_growth(self):
        result = quick("E01")
        series = result.data["series"]["max-based"]
        ds = sorted(series)
        assert series[ds[-1]] > series[ds[0]]
        # Omega(d): at least the d/12 guarantee scale.
        for d, skew in series.items():
            assert skew >= d / 12.0 - 1e-6

    def test_e03_figure_shape(self):
        result = quick("E03")
        windows = result.data["windows"]
        knees = [w[0] for w in windows.values()]
        assert knees == sorted(knees)

    def test_e04_linear_in_d(self):
        result = quick("E04")
        for algorithm, series in result.data["series"].items():
            ds = sorted(series)
            assert series[ds[-1]] > series[ds[0]], algorithm
            # peak ~ D: within a small constant factor
            for d in ds:
                assert series[d] > 0.5 * d, algorithm

    def test_e08_cluster_beats_multihop(self):
        result = quick("E08")
        assert result.data["cluster_skew"] < result.data["line_skew"]

    def test_e09_sync_beats_null(self):
        result = quick("E09")
        series = result.data["series"]
        tolerances = sorted(series["max-based"])
        mid = tolerances[len(tolerances) // 2]
        assert series["max-based"][mid] < series["null"][mid]

    def test_e10_budget_grows_linearly(self):
        result = quick("E10")
        series = result.data["series"]["max-based"]
        assert len(series) >= 3

    def test_e11_renders(self):
        result = quick("E11")
        rendered = result.render()
        assert "validity" in rendered
        for row in result.tables[0].as_dicts():
            assert row["validity"] == "ok", row["algorithm"]
        profiles = result.data["profiles"]
        assert set(profiles) == {
            "max-based",
            "srikanth-toueg",
            "averaging",
            "bounded-catch-up",
            "slewing-max",
            "external",
        }

    def test_e15_scale_cells_and_timings(self):
        result = quick("E15")
        profiles = result.data["profiles"]
        # Three topology families per diameter, profiles rising to D=128.
        assert {c.split(":")[0] for c in profiles} == {
            "line",
            "grid",
            "geometric",
        }
        assert "line:128" in profiles
        for cell, profile in profiles.items():
            assert profile, cell
            assert all(v >= 0.0 for v in profile.values())
        # The batched analysis must not dominate the simulation: the
        # whole point is that big-D cells are simulation-bound now.
        for cell, timing in result.data["timings"].items():
            assert timing["field_s"] + timing["query_s"] < max(
                timing["sim_s"], 1.0
            ), cell

    def test_result_render_contains_tables(self):
        result = quick("E03")
        out = result.render()
        assert "E03" in out
        assert "paper artifact" in out


@pytest.mark.slow
class TestSlowRunners:
    def test_e02_growth_with_diameter(self):
        result = quick("E02")
        for algorithm, series in result.data["series"].items():
            ds = sorted(series)
            assert series[ds[-1]] >= series[ds[0]] - 1e-9, algorithm

    def test_e05_all_verified(self):
        result = quick("E05")
        for row in result.tables[0].as_dicts():
            assert row["indist."] == "yes"
            assert row["delays in [d/4,3d/4]"] == "yes"

    def test_e06_within_bound(self):
        result = quick("E06")
        for row in result.tables[0].as_dicts():
            assert row["within bound"] == "yes"

    def test_e07_adversarial_collisions_appear(self):
        result = quick("E07")
        adv = result.data["series"]["adversarial"]
        quiet = result.data["series"]["quiet"]
        assert all(v == 0 for v in quiet.values())
        assert any(v > 0 for v in adv.values())

    def test_e12_candidates_flat_spikes(self):
        result = quick("E12")
        spikes = result.data["spikes"]
        ds = sorted(spikes["max-based"])
        assert spikes["max-based"][ds[-1]] > 2.0 * spikes["max-based"][ds[0]]
        for name in ("slewing-max", "bounded-catch-up"):
            assert spikes[name][ds[-1]] < spikes["max-based"][ds[-1]] / 2.0


class TestGoldenTables:
    """Same tables: every cell of every row, as captured at the parent
    commit (strings as printed, no tolerance)."""

    @pytest.mark.parametrize("experiment_id", sorted(GOLDEN))
    def test_quick_tables_are_the_captured_ones(self, experiment_id):
        tables = []
        for table in quick(experiment_id).tables:
            keep = [
                k for k, header in enumerate(table.headers)
                if not (experiment_id == "E15" and header in STOPWATCH)
            ]
            tables.append({
                "title": table.title,
                "headers": [table.headers[k] for k in keep],
                "rows": [[row[k] for k in keep] for row in table.rows],
            })
        assert tables == GOLDEN[experiment_id]


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E11" in out and "E12" in out
        # The listing names every registered experiment plus its scale
        # knobs, and E14 (the live runtime) is present.
        assert "E14" in out
        assert "scales: quick, full" in out
        assert "workers" in out  # E13/E14 expose the workers knob

    def test_list_covers_whole_registry(self, capsys):
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        for key in REGISTRY:
            assert f"{key}:" in out

    def test_verbs_must_come_first(self, capsys):
        assert cli_main(["E03", "live"]) == 2
        assert "'live' verb must come first" in capsys.readouterr().err

    def test_run_single(self, capsys):
        assert cli_main(["E03"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out

    def test_run_multiple(self, capsys):
        assert cli_main(["E03", "E01"]) == 0
        out = capsys.readouterr().out
        assert "E03" in out and "E01" in out

    def test_unknown_id_exits_nonzero(self, capsys):
        assert cli_main(["E99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
