"""Measurement core: spans, noise discipline, the timed-pass loop.

A workload (see ``workloads_*.py``) knows how to set itself up, run one
*pass* of its timed body, and verify what the pass produced.  This
module owns everything the workloads share: the in-memory span
recorder, ``gc`` discipline around every timed pass, wall/CPU/RSS
sampling, the median/percentile arithmetic, and the loop that turns
passes into the end-to-end metric dict.  Timings are reported in seconds
at the speed of a reference program run between the operations of every
pass (``yardstick.py``), because the machines this runs on drift.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

import yardstick
from yardstick import SPAN as YARDSTICK_SPAN, Yardstick

__all__ = [
    "Tracer",
    "NULL_TRACER",
    "Pass",
    "Workload",
    "Sandbox",
    "measure",
    "end_to_end",
    "iqr",
    "percentile",
    "values_match",
    "cpu_times",
    "child_env",
]

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
SRC_DIR = HERE.parents[1] / "src"

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


# ----------------------------------------------------------------------
# spans


class Tracer:
    """In-memory span recorder; spans are written out when the run ends.

    A span is ``name, start, end, parent`` plus the pass it belongs to
    (the shared identifier of one "request").  Self time of a span is
    its duration minus the part its child spans cover.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        record = {
            "id": index,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    # -- queries over one pass -----------------------------------------

    def totals(self, pass_id: int) -> dict[str, float]:
        """Summed duration per span name within one pass."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["pass"] == pass_id and s["end"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def coverage(self, pass_id: int) -> float:
        """Share of the pass's root span covered by its direct children,
        the yardstick's slices left out of both."""
        roots = [s for s in self.spans
                 if s["pass"] == pass_id and s["parent"] is None]
        if not roots:
            return 0.0
        root = roots[0]
        yardstick = self.totals(pass_id).get(YARDSTICK_SPAN, 0.0)
        covered = sum(
            s["end"] - s["start"] for s in self.spans
            if s["parent"] == root["id"] and s["end"] is not None
            and s["name"] != YARDSTICK_SPAN
        )
        duration = root["end"] - root["start"] - yardstick
        return covered / duration if duration > 0 else 0.0

    def dump(self, workload: str) -> dict:
        """The trace file payload, with self time filled in."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None and s["end"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "workload": workload,
            "spans": [
                {
                    "id": s["id"],
                    "name": s["name"],
                    "parent": s["parent"],
                    "pass": s["pass"],
                    "start": s["start"] - origin,
                    "end": s["end"] - origin,
                    "self": (s["end"] - s["start"]) - child_time[s["id"]],
                }
                for s in self.spans if s["end"] is not None
            ],
        }


class _NullTracer:
    """Untraced passes run the same workload code with spans switched off."""

    enabled = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# arithmetic


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def iqr(values: list[float]) -> float:
    """Distance between the first and third quartile (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def values_match(got: Any, want: Any) -> bool:
    """Ints/strings/None exact, floats ``isclose(rel=1e-9, abs=1e-9)``."""
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(values_match(got[k], want[k]) for k in want)
        )
    if isinstance(want, (list, tuple)):
        return (
            isinstance(got, (list, tuple))
            and len(got) == len(want)
            and all(values_match(g, w) for g, w in zip(got, want))
        )
    return got == want


def cpu_times() -> tuple[float, float]:
    """``(self, reaped children)`` CPU seconds of this process so far."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports kilobytes


# ----------------------------------------------------------------------
# scratch space and child processes


class Sandbox:
    """Temp dirs and child processes of one run, released on every path.

    Everything lives under ``benchmarks/e2e/results/`` (git-ignored) so
    the benchmark never writes outside its checkout.  ``close`` is
    idempotent and is called from ``finally`` and ``atexit``.
    """

    def __init__(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS_DIR))
        self._children: list[subprocess.Popen] = []
        self._counter = 0

    def mkdir(self, stem: str) -> Path:
        self._counter += 1
        path = self.root / f"{stem}-{self._counter}"
        path.mkdir()
        return path

    def adopt(self, child: subprocess.Popen) -> subprocess.Popen:
        self._children.append(child)
        return child

    def reap(self, child: subprocess.Popen, *, grace: float = 10.0) -> None:
        """Wait for ``child`` to exit, killing it if it overstays."""
        try:
            child.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        if child in self._children:
            self._children.remove(child)

    def close(self) -> None:
        for child in list(self._children):
            if child.poll() is None:
                child.kill()
            child.wait()
        self._children.clear()
        shutil.rmtree(self.root, ignore_errors=True)


# ----------------------------------------------------------------------
# the workload interface


@dataclass
class Pass:
    """What one timed pass produced."""

    #: Latency samples of the operations, milliseconds.
    latencies_ms: list[float]
    #: Work units done (see ``catalogue.WORKLOADS``).
    units: int
    #: Raw outputs for ``verify`` (never inspected inside the timed region).
    outputs: Any = None
    #: CPU seconds without the yardstick's, when the workload counts
    #: only part of the pass or a process the harness cannot see.
    cpu_s: Optional[float] = None
    #: Layer counters gathered during a traced pass.
    counters: dict = field(default_factory=dict)
    #: Operations done, when that is not one per latency sample.
    ops: Optional[int] = None
    #: Wall of the pass without the yardstick slices that ran inside it.
    wall_s: float = 0.0
    #: Seconds of every yardstick slice around and inside the pass.
    yard_s: list = field(default_factory=list)

    @property
    def speed(self) -> float:
        """How fast the machine was during the pass, as a share of the
        yardstick's nominal speed (see ``yardstick.py``)."""
        return yardstick.speed(self.yard_s)


class Workload:
    """Base class; see the ``workloads_*`` modules for the six instances."""

    name = ""
    #: Packages the workload's user would import; set-up starts with a
    #: cold import of them in a fresh interpreter, so work moved to
    #: import time shows in ``setup_s``.  Empty where set-up starts a
    #: daemon, which is itself a cold interpreter.
    imports: tuple = ()
    #: A workload whose timed body needs a fresh set-up every pass
    #: (``serve_cold``: a daemon that has never seen the grid).
    setup_every_pass = False
    #: False where the oracle is differential only (served cells against
    #: an in-process ``run_jobs``), so no seed has committed values.
    has_expectation = True
    #: False where the wall of a pass is not CPU work (``live_router``
    #: sleeps out a fixed span), so scaling it by the yardstick would
    #: only add the yardstick's noise.
    normalise = True
    #: True where most of a pass is work of *other* processes (a daemon
    #: and its workers).  The virtual CPUs' speeds drift apart, so the
    #: yardstick in this process only measures the speed that work ran
    #: at if the whole process tree shares one CPU.
    one_cpu = False

    def __init__(self, *, seed: int, smoke: bool, sandbox: Sandbox,
                 expected: Optional[dict]):
        self.seed = seed
        self.smoke = smoke
        self.sandbox = sandbox
        #: Committed expectation for this (workload, seed), or ``None``.
        self.expected = expected
        #: Set by ``measure``; see ``tick``.
        self.yardstick: Optional[Yardstick] = None

    def tick(self) -> float:
        """Call between the operations of a pass: lets the yardstick run
        a slice when one is due.  Returns the seconds that took, which
        the caller keeps out of the latency it is timing."""
        return self.yardstick.tick()

    def prepare(self) -> None:
        """One-off reference work that is neither set-up nor timed."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo ``setup`` (stop daemons, drop state)."""

    def run_pass(self, tracer) -> Pass:
        raise NotImplementedError

    def verify(self, result: Pass) -> tuple[int, list[str]]:
        """``(attempted operations, one message per failed operation)``."""
        raise NotImplementedError

    def observed(self) -> Optional[dict]:
        """What ``--write-expected`` commits for this (workload, seed)."""
        return None

    def layer_metrics(self, traced: list[Pass], untraced: list[Pass],
                      totals: list[dict]) -> dict[str, float]:
        """Per-layer metrics this workload can fill (others report 0)."""
        return {}


# ----------------------------------------------------------------------
# the loop


@dataclass
class Measurement:
    #: The workload's ``normalise`` (see ``Workload``).
    normalise: bool = True
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: Set-up seconds as measured: most of a set-up is a cold interpreter
    #: importing from disk, which the yardstick does not resemble (scaling
    #: it tripled its spread).
    setup_samples: list[float] = field(default_factory=list)
    untraced: list[Pass] = field(default_factory=list)
    traced: list[Pass] = field(default_factory=list)

    def scale(self, p: Pass) -> float:
        """What turns a timing of pass ``p`` into the reported one."""
        return p.speed if self.normalise else 1.0


def _timed_pass(workload: Workload, tracer) -> Pass:
    """One pass under the noise discipline: collect, disable gc, time,
    with a yardstick slice before, after and (``tick``) in between."""
    yard = workload.yardstick
    gc.collect()
    gc.disable()
    try:
        yard.reset()
        yard.span = tracer.span
        yard.slice()
        cpu0 = cpu_times()
        start = time.perf_counter()
        with tracer.span(workload.name):
            result = workload.run_pass(tracer)
        result.wall_s = time.perf_counter() - start - yard.inside_s
        if workload.setup_every_pass:
            # The children this pass used are only charged once reaped.
            workload.teardown()
        cpu1 = cpu_times()
        yard.slice()
    finally:
        gc.enable()
    if result.cpu_s is None:
        # The slices inside the pass were CPU of this process.
        result.cpu_s = (
            (cpu1[0] - cpu0[0]) + (cpu1[1] - cpu0[1]) - yard.inside_s)
    result.yard_s = list(yard.slices)
    return result


def child_env() -> dict:
    """The environment for child interpreters: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _timed_setup(workload: Workload, samples: list[float]) -> None:
    start = time.perf_counter()
    if workload.imports and not workload.smoke:
        subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(workload.imports)],
            env=child_env(), check=True)
    workload.setup()
    samples.append(time.perf_counter() - start)


def measure(workload: Workload, *, seconds: float, repeats: int,
            trace: bool) -> tuple[Measurement, Optional[Tracer]]:
    """Set up, warm up, then run timed passes for ``seconds`` seconds
    (at least ``repeats`` of them).  With ``trace`` the timed passes
    alternate untraced / traced, so one run yields the per-layer numbers
    and the tracing overhead against its own untraced passes.
    """
    m = Measurement(normalise=workload.normalise)
    tracer = Tracer() if trace else None
    if workload.one_cpu:
        # Children inherit it; this interpreter runs one workload only.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload.yardstick = Yardstick()
    workload.prepare()

    def one_pass(active) -> Pass:
        if workload.setup_every_pass:
            _timed_setup(workload, m.setup_samples)
        result = _timed_pass(workload, active)
        attempted, failures = workload.verify(result)
        m.attempted += attempted
        m.failures.extend(failures)
        result.outputs = None  # free dashboards/replies before the next pass
        return result

    if not workload.setup_every_pass:
        for k in range(1 if workload.smoke else SETUP_REPEATS):
            if k:
                workload.teardown()
            _timed_setup(workload, m.setup_samples)
    try:
        if not workload.smoke:
            one_pass(NULL_TRACER)  # warm-up: caches fill, lazy imports finish
        # Only time inside timed passes counts towards ``seconds``.
        while (
            len(m.untraced) < repeats
            or sum(p.wall_s for p in m.untraced + m.traced) < seconds
        ):
            m.untraced.append(one_pass(NULL_TRACER))
            if tracer is not None:
                tracer.pass_id = len(m.traced)
                m.traced.append(one_pass(tracer))
    finally:
        if not workload.setup_every_pass:
            workload.teardown()
    return m, tracer


def end_to_end(m: Measurement, scale=None) -> dict[str, float]:
    """The end-to-end metrics of one run, from its untraced passes.

    Every timing of a pass is first multiplied by ``scale(pass)`` - by
    default ``m.scale``, the pass's yardstick speed, which turns it into
    seconds at the yardstick's nominal speed; the run then reports
    medians over its passes.  Every pass does the same operations in
    the same order, so an operation's latency is its median over the
    passes and the percentiles are taken over the operations.
    """
    passes = m.untraced
    speeds = [(scale or m.scale)(p) for p in passes]
    op_ms = [
        statistics.median(ms * s for ms, s in zip(samples, speeds))
        for samples in zip(*(p.latencies_ms for p in passes))
    ]
    wall_s = statistics.median(p.wall_s * s for p, s in zip(passes, speeds))
    ops = len(op_ms) if passes[0].ops is None else passes[0].ops
    # Only the live rungs' frame counts differ between passes.
    units = statistics.median(p.units for p in passes)
    return {
        "setup_s": statistics.median(m.setup_samples),
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "units_per_s": units / wall_s,
        "op_p50_ms": percentile(op_ms, 50),
        "op_p95_ms": percentile(op_ms, 95),
        "cpu_us_per_unit": statistics.median(
            p.cpu_s * s / p.units for p, s in zip(passes, speeds)) * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
