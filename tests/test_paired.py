"""``scripts/paired.py`` against a fake benchmark runner: no benchmark
runs, only the pairing, the kept output and the report's arithmetic."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired.py"
spec = importlib.util.spec_from_file_location("paired", SCRIPT)
paired = sys.modules["paired"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)


def result_line(correct: bool, **metrics: float) -> str:
    return json.dumps({
        "correct": correct, "attempted": 3, "failed": 0 if correct else 1,
        "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()},
    })


class FakeRunner:
    """``op_p50_ms`` 10 + seed on the base side, 8 + seed on the change
    side; ``ops_per_s`` (higher is better) falls on the change side;
    ``wall_s`` halves and ``peak_rss_mb`` grows by ten on the change
    side; the change side's seed 3 fails one check."""

    def __init__(self):
        self.calls = []
        self.envs = []

    def __call__(self, tree, workload, seed, seconds, env):
        side = tree.name
        self.calls.append((side, workload, seed, seconds))
        self.envs.append((side, seed, env))
        p50 = (10.0 if side == "base" else 8.0) + seed
        ops = 100.0 - (side == "change")
        metrics = dict(
            op_p50_ms=p50, ops_per_s=ops,
            wall_s=(1.0 if side == "base" else 0.5) + 0.01 * seed,
            peak_rss_mb=(50.0 if side == "base" else 60.0) + seed,
        )
        if side == "change" and seed == 3:
            stdout = "\n".join([
                "workload w: seed 3",
                "  FAILED: line:128: a worker missed the start epoch",
                "detail: {}",
                result_line(False, **metrics),
            ])
            return 1, stdout, "warning: late\n"
        return 0, "detail: {}\n" + result_line(True, **metrics), ""


def test_pairs_alternate_keep_output_and_report(tmp_path):
    fake = FakeRunner()
    trees = {"base": tmp_path / "base", "change": tmp_path / "change"}
    runs = paired.run_pairs(trees, "w", [1, 2, 3, 4], tmp_path / "runs",
                            seconds=5.0, runner=fake)
    # Which side goes first alternates seed by seed.
    assert [(side, seed) for side, _, seed, _ in fake.calls] == [
        ("base", 1), ("change", 1), ("change", 2), ("base", 2),
        ("base", 3), ("change", 3), ("change", 4), ("base", 4),
    ]
    assert {call[3] for call in fake.calls} == {5.0}
    # Every run's stdout and stderr are kept.
    kept = sorted(p.name for p in (tmp_path / "runs").iterdir())
    assert len(kept) == 16
    assert (tmp_path / "runs" / "change-s3.err").read_text() == "warning: late\n"
    assert "FAILED" in (tmp_path / "runs" / "change-s3.out").read_text()

    text = paired.report(runs, {"op_p50_ms": "lower", "ops_per_s": "higher"})
    lines = text.splitlines()
    assert lines[0] == "4 pair(s)"
    (p50,) = [line for line in lines if line.strip().startswith("op_p50_ms")]
    # base 11..14: median 12.5, quartiles (exclusive rule) 11.25 / 13.75.
    assert "12.5 [11.25, 13.75]" in p50 and "10.5 [9.25, 11.75]" in p50
    assert p50.split()[-2:] == [f"{10.5 / 12.5:.3f}", "4/4"]
    (ops,) = [line for line in lines if line.strip().startswith("ops_per_s")]
    assert ops.split()[-1] == "0/4"
    # The failing run is listed with its FAILED line, then tallied.
    tail = lines[lines.index("1 run(s) not correct"):]
    assert tail == [
        "1 run(s) not correct",
        "  change seed 3 (exit 1)",
        "    FAILED: line:128: a worker missed the start epoch",
        "not correct, by cause (topology stripped)",
        "  a worker missed the start epoch: base 0/4, change 1/4",
    ]


class FlakyRunner(FakeRunner):
    """:class:`FakeRunner`, and the start-epoch flake on other
    topologies: base seed 2 (twice in one run), change seed 4; base
    seed 5 dies without a result line."""

    def __call__(self, tree, workload, seed, seconds, env):
        code, stdout, stderr = super().__call__(tree, workload, seed,
                                                seconds, env)
        side = tree.name
        if (side, seed) in (("base", 2), ("change", 4)):
            stdout = "\n".join([
                "  FAILED: grid:16,8: a worker missed the start epoch",
                "  FAILED: line:512: a worker missed the start epoch",
                "  FAILED: line:512: final skew 9.000 above bound 8",
                result_line(False, op_p50_ms=1.0),
            ])
            return 1, stdout, stderr
        if (side, seed) == ("base", 5):
            return -9, "Traceback (most recent call last):\n", stderr
        return code, stdout, stderr


def test_not_correct_runs_are_tallied_by_cause(tmp_path):
    runs = paired.run_pairs(
        {"base": tmp_path / "base", "change": tmp_path / "change"}, "w",
        range(1, 6), tmp_path / "runs", runner=FlakyRunner(),
    )
    # One count per run and cause, whatever the topology: base seed 2
    # missed the epoch on two topologies and counts once.
    assert paired.causes(runs) == [
        "(no FAILED line): base 1/5, change 0/5",
        "a worker missed the start epoch: base 1/5, change 2/5",
        "final skew 9.000 above bound 8: base 1/5, change 1/5",
    ]
    text = paired.report(runs, {"op_p50_ms": "lower"})
    tail = text.splitlines()[-4:]
    assert tail[0] == "not correct, by cause (topology stripped)"
    assert tail[1:] == [f"  {line}" for line in paired.causes(runs)]
    # Correct runs make no section.
    assert "by cause" not in paired.report(
        [run for run in runs if run.correct], {})


def test_each_pair_pads_the_environment_by_its_seed(tmp_path):
    fake = FakeRunner()
    paired.run_pairs({"base": tmp_path / "base", "change": tmp_path / "change"},
                     "w", range(1, 11), tmp_path / "runs", runner=fake)
    pads = {}
    for side, seed, env in fake.envs:
        assert set(env) == {paired.PAD_VARIABLE}
        pads.setdefault(seed, {})[side] = env[paired.PAD_VARIABLE]
    # The same padding on both sides of a pair ...
    assert all(p["base"] == p["change"] for p in pads.values())
    sizes = [len(p["base"]) for p in pads.values()]
    assert sizes == [paired.layout_pad(seed) for seed in range(1, 11)]
    # ... and a different one in every pair.
    assert len(set(sizes)) == len(sizes)
    assert all(0 <= size < 4096 for size in sizes)


def test_each_verdict_against_its_bound(tmp_path):
    runs = paired.run_pairs(
        {"base": tmp_path / "base", "change": tmp_path / "change"}, "w",
        range(1, 11), tmp_path / "runs", runner=FakeRunner(),
    )
    text = paired.report(
        runs,
        {"op_p50_ms": "lower", "ops_per_s": "higher", "wall_s": "lower",
         "peak_rss_mb": "lower"},
        {"op_p50_ms": 0.25, "ops_per_s": 0.25, "wall_s": 0.25,
         "peak_rss_mb": 0.1},
    )
    lines = text.splitlines()
    verdicts = lines[lines.index(next(l for l in lines
                                      if l.startswith("verdict"))) + 1:
                     lines.index("1 run(s) not correct")]
    # Each line: the verdict in a 13-wide column, the metric, its bound.
    assert {(line[2:15].strip(), line.split()[-3]) for line in verdicts} == {
        # 10/10 wins, but the gap 2 is inside the base IQR 5.5.
        ("unresolved", "op_p50_ms"),
        # 1 % worse, resolved (the base runs do not spread): inside 25 %.
        ("within bound", "ops_per_s"),
        # 10/10 wins and a gap 0.5 far above the base IQR 0.055.
        ("better", "wall_s"),
        # Median 55.5 -> 65.5: 18 % worse, beyond its 10 % bound.
        ("worse", "peak_rss_mb"),
    }
    # In name order, each with the bound it was judged against.
    assert [(line.split()[-3], line.split()[-1]) for line in verdicts] == [
        ("op_p50_ms", "0.25"), ("ops_per_s", "0.25"),
        ("peak_rss_mb", "0.1"), ("wall_s", "0.25"),
    ]


def test_better_needs_nine_wins_in_ten():
    base = [100.0 + k for k in range(10)]  # IQR 5.5
    nine = [b - 10.0 for b in base[:9]] + [base[9] + 1.0]
    eight = [b - 10.0 for b in base[:8]] + [base[8] + 1.0, base[9] + 1.0]
    assert paired.verdict(base, nine, "lower", 0.25) == "better"
    assert paired.verdict(base, eight, "lower", 0.25) == "within bound"
    # Higher is better: the same runs read the other way round.
    assert paired.verdict(nine, base, "higher", 0.25) == "better"
    # Beyond the bound is worse however the pairs fall.
    assert paired.verdict(base, [b * 1.3 for b in base], "lower", 0.25) == "worse"
    assert paired.verdict(base, [b * 0.7 for b in base], "higher", 0.25) == "worse"
    # Fewer than ten pairs never make a gain, however clean.
    assert paired.verdict(base[:9], nine[:9], "lower", 0.25) == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    base = [100.0, 60.0, 140.0, 80.0, 120.0] * 2  # IQR 50 of a median 100
    change = [b + 20.0 for b in base]  # 20 % worse, inside a 25 % bound
    assert paired.verdict(base, change, "lower", 0.25) == "unresolved"
    # With runs this noisy, only a clean sweep beyond the spread is better.
    assert paired.verdict(base, [b - 70.0 for b in base], "lower", 0.25) == "better"
    assert paired.verdict(base, base, "lower", None) == "unresolved"


def test_a_run_without_a_result_line_is_not_correct():
    run = paired.parse("base", 7, -9, "Traceback (most recent call last):\n")
    assert not run.correct and run.metrics == {} and run.failed == []
    text = paired.report([run], {})
    assert text.splitlines()[-4:] == [
        "  base seed 7 (exit -9)", "    (no FAILED line)",
        "not correct, by cause (topology stripped)",
        "  (no FAILED line): base 1/1, change 0/0"]


def test_seed_ranges():
    assert paired.seed_range("1-4") == [1, 2, 3, 4]
    assert paired.seed_range("5,9") == [5, 9]


def test_export_extracts_committed_files_only(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(git + ["init", "-q"], check=True)
    (repo / "a.txt").write_text("one")
    subprocess.run(git + ["add", "a.txt"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "one"], check=True)
    (repo / "a.txt").write_text("uncommitted")
    tree = paired.export("HEAD", tmp_path / "tree", repo=repo)
    assert (tree / "a.txt").read_text() == "one"
    with pytest.raises(subprocess.CalledProcessError):
        paired.export("no-such-rev", tmp_path / "other", repo=repo)


def test_main_writes_the_report(tmp_path, monkeypatch):
    monkeypatch.setattr(paired, "export",
                        lambda rev, dest: dest.mkdir(parents=True) or dest)
    code = paired.main(["x", "y", "--workload", "w", "--seeds", "1-2",
                        "--out", str(tmp_path / "o")], runner=FakeRunner())
    assert code == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    assert report.startswith("2 pair(s)") and "0 run(s) not correct" in report


def test_run_benchmark_adds_the_padding_to_the_environment(tmp_path,
                                                           monkeypatch):
    seen = {}

    def fake_run(command, **kwargs):
        seen.update(kwargs, command=command)
        return subprocess.CompletedProcess(command, 0, "out", "err")

    monkeypatch.setattr(paired.subprocess, "run", fake_run)
    monkeypatch.setenv("PAIRED_TEST_MARK", "kept")
    done = paired.run_benchmark(tmp_path, "w", 3, 0.0,
                                {paired.PAD_VARIABLE: "xxx"})
    assert done == (0, "out", "err")
    assert seen["cwd"] == tmp_path
    assert seen["env"][paired.PAD_VARIABLE] == "xxx"
    assert seen["env"]["PAIRED_TEST_MARK"] == "kept"
    assert seen["command"][-6:] == ["--workload", "w", "--seed", "3",
                                    "--trace", "0"]
