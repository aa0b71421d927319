"""``serve_cold`` and ``serve_warm``: the sweep daemon's write side and
read side, through one closed-loop client.

Both start a real ``python -m repro.serve start`` process with
``max(1, nproc - 1)`` workers and talk to it through ``ServeClient``.
Served metrics are compared, cell by cell, with an in-process
``run_jobs`` over the same jobs — fast but wrong must fail.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yardstick
from harness import NULL_TRACER, Pass, Workload, child_env, cpu_times
from workloads_sim import check_cells

from repro.serve import ContentStore, FrameBuffer, ServeClient
from repro.serve.protocol import encode_frame
from repro.sweep import SweepSpec, job_hash, run_jobs

__all__ = ["ServeCold", "ServeWarm", "daemon_workers"]

def daemon_workers() -> int:
    """``max(1, nproc - 1)``: leave one core to the client and the daemon."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    return max(1, cores - 1)


def _process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (``/proc/<pid>/stat``).

    ``getrusage(RUSAGE_CHILDREN)`` only counts children already reaped;
    a daemon that outlives the pass has to be read while it runs.
    """
    stat = Path(f"/proc/{pid}/stat").read_text()
    # Fields after the parenthesised command name, which may hold spaces.
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _tiny_grid(name: str, seeds, *, smoke: bool) -> SweepSpec:
    """Cells of a few milliseconds each, so daemon overhead per cell is
    a large share of what the client waits for."""
    if smoke:
        return SweepSpec(
            name=name, topologies=("line:5", "ring:6"),
            algorithms=("max-based",), rate_families=("drifted",),
            fault_families=("none", "loss:0.15"),
            seeds=tuple(seeds), duration=5.0)
    return SweepSpec(
        name=name,
        topologies=("line:5", "ring:6", "grid:2,3", "line:7"),
        algorithms=("max-based", "averaging", "bounded-catch-up"),
        rate_families=("drifted", "spread"),
        fault_families=("none", "loss:0.15"),
        seeds=tuple(seeds), duration=10.0)


class _ServeWorkload(Workload):
    has_expectation = False
    one_cpu = True

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.workers = daemon_workers()
        self.daemon = None
        self.client = None
        self.store_root = None
        self.daemon_start_s: list[float] = []

    def _start_daemon(self, store: Path) -> None:
        start = time.perf_counter()
        with open(store.parent / "daemon.log", "w") as log:
            self.daemon = self.sandbox.adopt(subprocess.Popen(
                [sys.executable, "-m", "repro.serve", "start",
                 "--store", str(store), "--workers", str(self.workers)],
                env=child_env(), stdout=log, stderr=subprocess.STDOUT,
            ))
        # Watch for the advert here: the client's own retry loop sleeps
        # 50 ms a turn, which would quantise ``setup_s``.
        advert = ContentStore(store)
        deadline = time.monotonic() + 30.0
        while advert.read_endpoint() is None and time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"repro.serve exited with code {self.daemon.returncode} "
                    f"before advertising; see {log.name}")
            time.sleep(0.002)
        self.client = ServeClient(store=store)
        self.client.ping()
        self.daemon_start_s.append(time.perf_counter() - start)

    def teardown(self) -> None:
        if self.client is not None:
            try:
                self.client.shutdown()
            finally:
                self.client.close()
                self.client = None
        if self.daemon is not None:
            self.sandbox.reap(self.daemon)
            self.daemon = None
        if self.store_root is not None:
            shutil.rmtree(self.store_root.parent, ignore_errors=True)
            self.store_root = None

    def _round_trip(self, spec: SweepSpec, tracer):
        with tracer.span("serve.submit"):
            receipt = self.client.submit(spec)
        with tracer.span("serve.wait"):
            final = self.client.wait(receipt["sweep"], timeout=120.0)
        with tracer.span("serve.fetch"):
            results = self.client.fetch(receipt["sweep"])
        return receipt, final, results

    def _common_layer_metrics(self, totals, *, round_trips: int) -> dict:
        """Daemon start-up and the mean cost of each request stage."""
        out = {"serve.daemon_start_s": statistics.median(self.daemon_start_s)}
        for stage in ("submit", "wait", "fetch"):
            out[f"serve.{stage}_ms"] = statistics.median(
                t.get(f"serve.{stage}", 0.0) * 1e3 for t in totals
            ) / round_trips
        return out


class ServeCold(_ServeWorkload):
    name = "serve_cold"
    setup_every_pass = True

    def prepare(self) -> None:
        base = 10 * self.seed
        n = 2 if self.smoke else 4
        self.grid_a = _tiny_grid("cold-a", range(base, base + n), smoke=self.smoke)
        self.grid_b = _tiny_grid(
            "cold-b", range(base + n // 2, base + n // 2 + n), smoke=self.smoke)
        jobs_a, jobs_b = self.grid_a.jobs(), self.grid_b.jobs()
        by_hash = {}
        for job in jobs_a + jobs_b:
            by_hash.setdefault(job_hash(job), job)
        # The in-process cost of the same cells, at nominal speed like
        # the passes it is compared with.
        yard = self.yardstick
        yard.reset()
        yard.slice()
        outcomes = run_jobs(list(by_hash.values()), workers=1,
                            progress=lambda *landed: yard.tick())
        yard.slice()
        metrics = {h: o.metrics for h, o in zip(by_hash, outcomes)}
        self.want_a = [metrics[job_hash(j)] for j in jobs_a]
        self.want_b = [metrics[job_hash(j)] for j in jobs_b]
        self.distinct = len(by_hash)
        self.inproc_ms_per_cell = (
            sum(o.elapsed for o in outcomes) / len(outcomes) * 1e3
            * yardstick.speed(yard.slices))

    def setup(self) -> None:
        self.store_root = self.sandbox.mkdir("cold") / "store"
        self._start_daemon(self.store_root)

    def run_pass(self, tracer) -> Pass:
        latencies, replies = [], []
        for grid in (self.grid_a, self.grid_b):
            self.tick()
            start = time.perf_counter()
            receipt, final, results = self._round_trip(grid, tracer)
            latencies.append((time.perf_counter() - start) * 1e3)
            replies.append((receipt, final, results))
        stats = self.client.stats()
        counters = {
            "serve.workers": self.workers,
            "serve.hits": sum(r["hits"] for r, _, _ in replies),
            "serve.queued": sum(r["queued"] for r, _, _ in replies),
            "serve.executed": stats["executed"],
        }
        if tracer.enabled:
            self._layer_probes(tracer, counters)
        served = [m for _, _, results in replies for m in results]
        return Pass(
            latencies_ms=latencies,
            ops=len(served),
            units=sum(m["messages"] for m in served),
            outputs=(replies, stats),
            counters=counters,
        )

    def _layer_probes(self, tracer, counters: dict) -> None:
        """Standalone costs of the stages a submit and a store write go
        through, on a scratch store of the same shape."""
        with tracer.span("sweep.expand"):
            jobs = self.grid_a.jobs()
        with tracer.span("sweep.hash"):
            hashes = [job_hash(job) for job in jobs]
        scratch = ContentStore(self.sandbox.mkdir("probe") / "store")
        with tracer.span("serve.manifest_write"):
            start = time.perf_counter()
            scratch.write_manifest(self.grid_a, hashes)
            counters["serve.manifest_write_ms"] = (
                time.perf_counter() - start) * 1e3
        with tracer.span("serve.store_put"):
            start = time.perf_counter()
            for digest, metrics in zip(hashes, self.want_a):
                scratch.put_hash(digest, metrics)
            counters["serve.store_put_us"] = (
                (time.perf_counter() - start) / len(hashes) * 1e6)
        shutil.rmtree(scratch.root.parent, ignore_errors=True)

    def verify(self, result: Pass):
        replies, stats = result.outputs
        failures = []
        for (receipt, final, results), want, label in zip(
            replies, (self.want_a, self.want_b), ("grid a", "grid b")
        ):
            failures += check_cells(results, want, f"served {label} vs run_jobs")
            counts = final["counts"]
            if counts["failed"] or counts["done"] != counts["total"]:
                failures.append(f"{label}: sweep did not settle clean: {counts}")
        if stats["executed"] != self.distinct or stats["failed"]:
            failures.append(
                f"daemon executed {stats['executed']} cells "
                f"({stats['failed']} failed), {self.distinct} distinct submitted")
        return len(self.want_a) + len(self.want_b), failures

    def layer_metrics(self, traced, untraced, totals):
        per_cell = statistics.median(
            p.wall_s * p.speed / self.distinct * 1e3 for p in untraced)
        return {
            **self._common_layer_metrics(totals, round_trips=2),
            "serve.overhead_ms_per_cell":
                per_cell - self.inproc_ms_per_cell / self.workers,
        }


class ServeWarm(_ServeWorkload):
    name = "serve_warm"

    def prepare(self) -> None:
        base = 10 * self.seed
        self.grid = _tiny_grid(
            "warm", range(base, base + (2 if self.smoke else 8)),
            smoke=self.smoke)
        self.jobs = self.grid.jobs()
        self.want = [o.metrics for o in run_jobs(self.jobs, workers=1)]
        self.requests = 3 if self.smoke else 40

    def setup(self) -> None:
        self.store_root = self.sandbox.mkdir("warm") / "store"
        store = ContentStore(self.store_root)
        for job, metrics in zip(self.jobs, self.want):
            store.put(job, metrics)
        self._start_daemon(self.store_root)
        # First submission writes the manifest; everything after is a read.
        self._round_trip(self.grid, NULL_TRACER)

    def run_pass(self, tracer) -> Pass:
        latencies, replies = [], []
        cpu0 = cpu_times()[0] + _process_cpu_s(self.daemon.pid)
        ticked = 0.0
        for k in range(self.requests):
            ticked += self.tick()
            start = time.perf_counter()
            if k % 10 == 9:
                # Every 10th request pays for a fresh connection.
                with tracer.span("serve.connect"):
                    self.client.close()
                    self.client = ServeClient(store=self.store_root)
            receipt, _, results = self._round_trip(self.grid, tracer)
            latencies.append((time.perf_counter() - start) * 1e3)
            replies.append((receipt, results))
        # Client plus daemon: its workers idle on an all-hits grid.
        cpu_s = cpu_times()[0] + _process_cpu_s(self.daemon.pid) - cpu0 - ticked
        counters = {
            "serve.workers": self.workers,
            "serve.hits": sum(r["hits"] for r, _ in replies),
            "serve.queued": sum(r["queued"] for r, _ in replies),
        }
        if tracer.enabled:
            self._layer_probes(tracer, counters, replies[-1][1])
        return Pass(
            latencies_ms=latencies,
            units=sum(len(results) for _, results in replies),
            cpu_s=cpu_s,
            outputs=replies,
            counters=counters,
        )

    def _layer_probes(self, tracer, counters: dict, results: list) -> None:
        """What one fetch costs at each stage, measured standalone."""
        reply = {"ok": True, "results": results}
        with tracer.span("serve.frame_encode"):
            start = time.perf_counter()
            frame = encode_frame(reply)
            counters["serve.frame_encode_us"] = (
                time.perf_counter() - start) * 1e6
        counters["serve.fetch_bytes"] = len(frame)
        with tracer.span("serve.frame_decode"):
            start = time.perf_counter()
            buffer = FrameBuffer()
            buffer.feed(frame)
            decoded = buffer.pop()
            counters["serve.frame_decode_us"] = (
                time.perf_counter() - start) * 1e6
        assert decoded == reply
        hashes = [job_hash(job) for job in self.jobs]
        store = ContentStore(self.store_root)
        with tracer.span("serve.store_get"):
            start = time.perf_counter()
            store.results(hashes)
            counters["serve.store_get_us"] = (
                (time.perf_counter() - start) / len(hashes) * 1e6)

    def verify(self, result: Pass):
        failures = []
        for k, (receipt, results) in enumerate(result.outputs):
            bad = check_cells(results, self.want, f"request {k} vs run_jobs")
            if receipt["queued"] or receipt["hits"] != len(self.want):
                bad.append(f"request {k}: warm grid was not all hits: {receipt}")
            if bad:
                failures.append("; ".join(bad[:3]))
        return len(result.outputs), failures

    def layer_metrics(self, traced, untraced, totals):
        return {
            **self._common_layer_metrics(totals, round_trips=self.requests),
            "serve.connect_ms": statistics.median(
                t.get("serve.connect", 0.0) * 1e3 for t in totals
            ) / max(self.requests // 10, 1),
        }
