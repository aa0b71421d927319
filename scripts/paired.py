#!/usr/bin/env python3
"""Paired end-to-end runs of two revisions of this repository.

Each revision is exported with ``git archive`` into its own directory,
and ``benchmarks/e2e/run.py --workload W --seed s --trace 0`` runs once
per seed on each side.  The side that goes first alternates from seed
to seed, so a drift of the machine over the session lands on both sides
alike.  Every run's stdout and stderr are kept under ``--out``; the
report gives, per end-to-end metric, the median [Q1, Q3] of each side,
the ratio of the medians (change / base), and in how many pairs the
change was better (``BENCHMARK.json`` says which direction is better),
then a verdict per metric against ``BENCHMARK.json``'s bound (see
:func:`verdict`).  Every run whose result line says ``"correct": false``
(or that printed none) is listed with its ``FAILED:`` lines, and those
runs are tallied per side by cause (:func:`causes`), so that a failing
run can be matched to a known flake.

The memory layout varies from pair to pair: each pair's runs get an
environment padded by :func:`layout_pad` bytes of its seed, the same on
both sides.  A few-percent shift that follows the layout then shows as
spread, not as an effect of the change.

Usage::

    python scripts/paired.py BASE CHANGE --workload analyze_render \\
        --seeds 1-10 --out /tmp/pairs [--seconds 10]

``BASE`` and ``CHANGE`` are any revisions ``git archive`` accepts; an
uncommitted tree can be named by ``$(git stash create)`` after
``git add -A``.  Standard library only; nothing under ``benchmarks/`` is
changed or imported.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

REPO = Path(__file__).resolve().parents[1]

#: ``runner(tree, workload, seed, seconds, env) -> (exit code, stdout,
#: stderr)``; ``env`` is added to the child's environment.
Runner = Callable[[Path, str, int, float, "dict[str, str]"],
                  "tuple[int, str, str]"]

#: The environment variable that carries a pair's padding.
PAD_VARIABLE = "REPRO_LAYOUT_PAD"

#: A failure line's topology, as ``run.py`` prefixes it: ``line:128: ``.
_TOPOLOGY = re.compile(r"^[a-z]\w*:[0-9][0-9,.]*: ")


@dataclass
class Run:
    """One benchmark run of one side."""

    side: str
    seed: int
    code: int
    metrics: dict[str, float] = field(default_factory=dict)
    correct: bool = False
    failed: list[str] = field(default_factory=list)


def export(rev: str, dest: Path, *, repo: Path = REPO) -> Path:
    """Extract ``rev``'s committed files into ``dest`` (``git archive``)."""
    tar = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest


def layout_pad(seed: int) -> int:
    """Bytes of environment padding for a pair: a multiplicative hash of
    the seed into [0, 4096), so any 4096 consecutive seeds get distinct
    sizes.  The environment sits at the top of a process's stack, so its
    size shifts where the stack (and what the interpreter lays out from
    it) starts."""
    return seed * 2654435761 % 4096


def run_benchmark(tree: Path, workload: str, seed: int, seconds: float,
                  env: dict[str, str]) -> tuple[int, str, str]:
    """One ``benchmarks/e2e/run.py`` process in ``tree``."""
    command = [sys.executable, "benchmarks/e2e/run.py", "--workload",
               workload, "--seed", str(seed), "--trace", "0"]
    if seconds:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                          env={**os.environ, **env})
    return done.returncode, done.stdout, done.stderr


def parse(side: str, seed: int, code: int, stdout: str) -> Run:
    """A run's metrics, verdict and ``FAILED:`` lines from its stdout."""
    run = Run(side, seed, code)
    run.failed = [line.strip() for line in stdout.splitlines()
                  if line.strip().startswith("FAILED:")]
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            result = json.loads(line)
            run.correct = bool(result.get("correct")) and code == 0
            run.metrics = {name: float(entry["value"])
                           for name, entry in result.get("metrics", {}).items()}
            break
    return run


def run_pairs(trees: dict[str, Path], workload: str, seeds: Sequence[int],
              out: Path, *, seconds: float = 0.0,
              runner: Runner = run_benchmark) -> list[Run]:
    """Run every seed on both sides, alternating which goes first, with
    the seed's :func:`layout_pad`, and keep each run's output as
    ``out/<side>-s<seed>.{out,err}``."""
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for k, seed in enumerate(seeds):
        sides = ["base", "change"] if k % 2 == 0 else ["change", "base"]
        env = {PAD_VARIABLE: "x" * layout_pad(seed)}
        for side in sides:
            code, stdout, stderr = runner(trees[side], workload, seed,
                                          seconds, env)
            (out / f"{side}-s{seed}.out").write_text(stdout)
            (out / f"{side}-s{seed}.err").write_text(stderr)
            runs.append(parse(side, seed, code, stdout))
            print(f"seed {seed} {side}: exit {code}", file=sys.stderr, flush=True)
    return runs


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(Q1, median, Q3)``, the benchmark harness's quantile rule."""
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return value, value, value
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: Sequence[float], change: Sequence[float], better: str,
            bound: float | None) -> str:
    """One metric's paired runs judged against its relative ``bound``.

    * ``worse`` — the change's median is worse than the base's by more
      than ``bound`` (a fraction of the base median);
    * ``better`` — over at least ten pairs, the change wins at least
      nine in ten and its median is better by more than the base's
      interquartile range;
    * ``unresolved`` — the base's interquartile range exceeds the
      difference of the medians, or ``bound`` itself: the runs spread
      too widely to tell;
    * ``within bound`` — none of these: a resolved difference, not worse
      than the bound.
    """
    sign = -1.0 if better == "lower" else 1.0
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, _, q3 = quartiles(base)
    spread = q3 - q1
    gap = sign * (c_med - b_med)  # > 0: the change is better
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    if bound is not None and -gap > bound * abs(b_med):
        return "worse"
    if len(base) >= 10 and 10 * wins >= 9 * len(base) and gap > spread:
        return "better"
    if spread > abs(gap) or (bound is not None and spread > bound * abs(b_med)):
        return "unresolved"
    return "within bound"


def causes(runs: Sequence[Run]) -> list[str]:
    """The runs that are not correct, tallied per side by cause: each
    ``FAILED:`` text with its topology stripped, counted once per run,
    as ``cause: base k/N, change k/N`` (``N`` runs on that side)."""
    totals = {"base": 0, "change": 0}
    tally: dict[str, dict[str, int]] = {}
    for run in runs:
        totals[run.side] += 1
        if run.correct:
            continue
        texts = {_TOPOLOGY.sub("", line.removeprefix("FAILED:").strip())
                 for line in run.failed} or {"(no FAILED line)"}
        for text in texts:
            counts = tally.setdefault(text, {"base": 0, "change": 0})
            counts[run.side] += 1
    return [f"{text}: base {counts['base']}/{totals['base']}, "
            f"change {counts['change']}/{totals['change']}"
            for text, counts in sorted(tally.items())]


def report(runs: Sequence[Run], better: dict[str, str],
           bounds: dict[str, float] | None = None) -> str:
    """Per metric: each side's median [Q1, Q3], the ratio, the wins; then
    each metric's :func:`verdict` against its bound in ``bounds``."""
    by_seed: dict[int, dict[str, Run]] = {}
    for run in runs:
        by_seed.setdefault(run.seed, {})[run.side] = run
    pairs = [p for p in by_seed.values() if "base" in p and "change" in p]
    names = sorted({name for run in runs for name in run.metrics})
    lines = [f"{len(pairs)} pair(s)",
             f"  {'metric':<18} {'base median [Q1, Q3]':>32} "
             f"{'change median [Q1, Q3]':>32} {'ratio':>7} {'wins':>6}"]
    verdicts = []
    for name in names:
        both = [p for p in pairs
                if name in p["base"].metrics and name in p["change"].metrics]
        if not both:
            continue
        base = [p["base"].metrics[name] for p in both]
        change = [p["change"].metrics[name] for p in both]
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        cells = []
        for values in (base, change):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        b_med, c_med = statistics.median(base), statistics.median(change)
        ratio = c_med / b_med if b_med else float("nan")
        lines.append(f"  {name:<18} {cells[0]:>32} {cells[1]:>32} "
                     f"{ratio:>7.3f} {wins:>3}/{len(both)}")
        bound = (bounds or {}).get(name)
        label = verdict(base, change, better.get(name, "lower"), bound)
        verdicts.append(f"  {label:<13} {name:<18} bound "
                        f"{'none' if bound is None else f'{bound:g}'}")
    lines.append("verdict (worse: beyond the bound; better: >= 10 pairs, "
                 ">= 9/10 wins and a gap above the base IQR; unresolved: the "
                 "base IQR exceeds the gap or the bound)")
    lines.extend(verdicts)
    bad = [run for run in runs if not run.correct]
    lines.append(f"{len(bad)} run(s) not correct")
    for run in bad:
        lines.append(f"  {run.side} seed {run.seed} (exit {run.code})")
        lines.extend(f"    {line}" for line in run.failed or ["(no FAILED line)"])
    if bad:
        lines.append("not correct, by cause (topology stripped)")
        lines.extend(f"  {line}" for line in causes(runs))
    return "\n".join(lines)


def seed_range(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` as a list of seeds."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def metric_rules(repo: Path = REPO) -> tuple[dict[str, str], dict[str, float]]:
    """``({metric: "lower" | "higher"}, {metric: bound})`` from
    ``BENCHMARK.json``'s end-to-end metrics."""
    spec = json.loads((repo / "BENCHMARK.json").read_text())["end_to_end"]
    return ({m["name"]: m["better"] for m in spec},
            {m["name"]: m["bound"] for m in spec if "bound" in m})


def main(argv: Sequence[str] | None = None, *,
         runner: Runner = run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="base revision")
    parser.add_argument("change", help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="passed to run.py (default: its own)")
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the trees and every run's output")
    args = parser.parse_args(argv)
    trees = {side: export(rev, args.out / f"tree-{side}")
             for side, rev in (("base", args.base), ("change", args.change))}
    runs = run_pairs(trees, args.workload, args.seeds, args.out / "runs",
                     seconds=args.seconds, runner=runner)
    text = report(runs, *metric_rules())
    (args.out / "report.txt").write_text(text + "\n")
    print(text)
    return 0 if all(run.correct for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
