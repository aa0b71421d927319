"""Smoke tests: every example script runs to completion.

Examples are documentation that executes; if one breaks, the README's
promises break.  Heavy ones are marked slow.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=EXAMPLES.parent,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert "quickstart.py" in names
    assert len(names) >= 3, "the deliverable requires at least 3 examples"


def test_quickstart():
    out = run_example("quickstart.py")
    assert "gradient profile" in out
    assert "forced distance-1 skew" in out


def test_sensor_fusion():
    out = run_example("sensor_fusion.py")
    assert "mis-fusion rate" in out


def test_target_tracking():
    out = run_example("target_tracking.py")
    assert "skew budget" in out


def test_scenario_sweep():
    out = run_example("scenario_sweep.py")
    assert "metrics identical at 1 and 2 workers: True" in out
    assert "cache hits" in out


@pytest.mark.rt
def test_live_run():
    out = run_example("live_run.py")
    assert "live-virtual" in out
    assert "identical executions" in out
    assert "passes the model-compliance checks" in out


@pytest.mark.slow
def test_lower_bound_tour():
    out = run_example("lower_bound_tour.py")
    assert "Claim 6.5" in out
    assert "Theorem 8.1" in out


@pytest.mark.slow
def test_tdma_scaling():
    out = run_example("tdma_scaling.py")
    assert "TDMA collisions" in out


@pytest.mark.slow
def test_skew_timeline():
    # Runs in repo root; clean up the CSV it writes, pass or fail.
    csv = EXAMPLES.parent / "skew_timeline.csv"
    try:
        out = run_example("skew_timeline.py")
        assert "max adjacent skew" in out
        assert csv.read_text().startswith("time,final_pair,max_adjacent")
    finally:
        csv.unlink(missing_ok=True)


def test_mobile_field():
    out = run_example("mobile_field.py")
    assert "rewirings" in out
    assert "adj skew" in out
    assert "time-varying" in out


@pytest.mark.slow
def test_sensor_field():
    out = run_example("sensor_field.py")
    assert "gradient" in out
