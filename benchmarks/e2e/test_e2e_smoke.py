"""Smoke test of the end-to-end benchmark (tier-1 collects it; < 10 s).

Checks the declared shape (``BENCHMARK.json`` against the catalogue and
the benchmark contract's limits, the "moves" table against the names it
points at) and drives every workload once at ``--smoke`` sizes in the
form the benchmark driver calls, untraced and traced.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalogue  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_catalogue():
    assert SPEC == catalogue.benchmark_spec()


def test_declared_shape_is_within_the_contract():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_moves_entry_names_a_metric_and_a_workload():
    metrics = {m.name for m in catalogue.END_TO_END}
    workloads = {w.name for w in catalogue.WORKLOADS}
    for layer_metric in catalogue.PER_LAYER:
        for metric, workload in layer_metric.moves:
            assert metric in metrics, (layer_metric.name, metric)
            assert workload in workloads, (layer_metric.name, workload)


def _drive(workload: str, trace: int) -> tuple[dict, dict]:
    """One driver-form run at smoke sizes: ``(result line, detail line)``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--workload", workload, "--seed", "5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in lines if line.startswith("detail: "))
    return json.loads(lines[-1]), json.loads(detail[len("detail: "):])


def _check_result(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # failed_share is failed / attempted, and it must be 0.
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {name: reading["unit"] for name, reading in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", [w.name for w in catalogue.WORKLOADS])
def test_smoke_run_reports_every_metric(workload):
    # A traced run alternates untraced and traced passes, so one start of
    # the interpreter yields both metric sets.
    result, detail = _drive(workload, trace=1)
    _check_result(result, SPEC["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] > 0.5
    assert detail["failed_share"] == 0
    assert set(detail["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in detail["end_to_end"].values())


def test_untraced_run_prints_the_end_to_end_metrics():
    result, _ = _drive("scale_large", trace=0)
    _check_result(result, SPEC["end_to_end"])
    assert all(r["value"] > 0 for r in result["metrics"].values())
