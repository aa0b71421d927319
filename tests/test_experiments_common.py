"""Tests for the experiment helpers (experiments.common)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments.common import ExperimentResult, pick
from repro.analysis.reporting import Table


class TestPick:
    def test_quick_and_full(self):
        assert pick("quick", 1, 2) == 1
        assert pick("full", 1, 2) == 2

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            pick("enormous", 1, 2)


class TestExperimentResult:
    def test_render_includes_everything(self):
        t = Table(title="T", headers=["a"])
        t.add_row(1)
        result = ExperimentResult(
            experiment_id="EXX",
            title="demo",
            paper_artifact="none",
            tables=[t],
            notes=["a note"],
        )
        out = result.render()
        assert "EXX" in out
        assert "paper artifact: none" in out
        assert "note: a note" in out
        assert "T" in out
