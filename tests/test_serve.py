"""The sweep service: store/queue units, differential battery, crash/resume.

Three tiers, mirroring the repo's strongest pattern (the engine
trace-equivalence harness): fast in-process unit tests of the
content-addressed store and the dedup queue; ``serve``-marked
integration tests that run the real daemon as a subprocess and prove
the **differential contract** — any spec submitted through the daemon,
by 1, 2, or 4 concurrent clients, yields metrics bit-identical to an
in-process :func:`~repro.sweep.runner.run_jobs` call, with each
overlapping cell executed exactly once; and the **crash/resume
contract** — a SIGKILLed daemon leaves clients with a prompt named
error (<3s, the ``test_rt_router.py`` bound) and a store from which a
restarted daemon completes the sweep re-executing only missing cells.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import re
import selectors
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

from repro.errors import ServeError, SweepError
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon, SweepBook
from repro.serve.protocol import (
    FrameBuffer,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.sweep import store as store_mod
from repro.sweep.jobs import job_hash
from repro.sweep.pool import JobQueue, WorkerPool
from repro.sweep.runner import run_jobs
from repro.sweep.spec import SweepSpec, quick_spec
from repro.sweep.store import ContentStore, hashes_for, sweep_id_for

SRC = Path(__file__).resolve().parent.parent / "src"


def small_spec(name="unit", topologies=("line:5",), seeds=(0, 1), **kw):
    kw.setdefault("duration", 8.0)
    return SweepSpec(
        name=name, topologies=topologies, algorithms=("max-based",),
        seeds=seeds, **kw,
    )


# ----------------------------------------------------------------------
# fast in-process units: store, queue, book


class TestContentStore:
    def test_generalizes_result_cache(self, tmp_path):
        # One class under both names: a cache dir *is* a serve store.
        import repro.serve
        import repro.sweep

        assert repro.sweep.ResultCache is ContentStore
        assert repro.serve.ContentStore is ContentStore
        store = ContentStore(tmp_path / "store")
        spec = small_spec()
        job = spec.jobs()[0]
        digest = job_hash(job)
        assert not store.has_hash(digest)
        store.put(job, {"x": 1.5})
        assert store.has_hash(digest)
        assert store.get(job) == {"x": 1.5}
        assert store.get_hash(digest) == {"x": 1.5}
        # Objects live under objects/, content-addressed.
        assert (tmp_path / "store" / "objects" / f"{digest}.json").exists()

    def test_sweep_id_is_content_addressed(self):
        assert sweep_id_for(small_spec()) == sweep_id_for(small_spec())
        assert sweep_id_for(small_spec()) != sweep_id_for(
            small_spec(seeds=(0, 1, 2))
        )
        # The name is part of the spec, hence of the identity.
        assert sweep_id_for(small_spec()) != sweep_id_for(
            small_spec(name="other")
        )

    def test_manifest_roundtrip_and_missing(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        store.write_manifest(spec, hashes)
        [manifest] = store.manifests()
        assert manifest["jobs"] == hashes
        assert SweepSpec.from_dict(manifest["spec"]) == spec
        store.put_hash(hashes[0], {"m": 1})
        assert store.results(hashes) is None
        for digest in hashes[1:]:
            store.put_hash(digest, {"m": 2})
        assert store.results(hashes) == [{"m": 1}] + [{"m": 2}] * (
            len(hashes) - 1
        )

    def test_gather_returns_what_read_and_what_did_not(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        hashes = hashes_for(small_spec(seeds=(0, 1, 2)).jobs())
        store.put_hash(hashes[0], {"m": 0})
        store.put_hash(hashes[2], {"m": 2})
        store.path_for(hashes[2]).write_text('{"m": ')
        assert store.gather(hashes) == ([{"m": 0}], hashes[1:])

    def test_pack_roundtrip_binds_job_list_and_body(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        hashes = hashes_for(small_spec(seeds=(0, 1, 2)).jobs())
        results = [{"max_skew": 0.25, "name": "\u03c3"}, {"x": None}, {}]
        assert store.read_pack("s", hashes) is None  # none yet
        body = store.write_pack("s", hashes, results)
        assert body == json.dumps(results, separators=(",", ":")).encode()
        assert store.read_pack("s", hashes) == body
        # The header binds the ordered job list: another order misses.
        assert store.read_pack("s", hashes[::-1]) is None
        # Packs stay out of the directory the manifest scan globs.
        assert store.pack_path("s").parent == tmp_path / "store" / "packs"
        assert list(store.manifests()) == []

    def test_torn_manifest_is_ignored(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        (store.sweep_dir / "deadbeef.json").write_text('{"sweep": "dead')
        # Not a sweep, but not silent either: the scan yields a None the
        # daemon counts as a skipped manifest.
        assert list(store.manifests()) == [None]


class TestJobQueue:
    def test_offer_dedups_in_three_tiers(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        # Tier 1: object already on disk -> hit, never queued.
        store.put_hash(hashes[0], {"m": 0})
        assert queue.offer(hashes[0], jobs[0]) == "hit"
        # New work queues; a second sweep offering the same cell dedups.
        assert queue.offer(hashes[1], jobs[1]) == "queued"
        assert queue.offer(hashes[1], jobs[1]) == "dedup"
        assert queue.depth == 1
        # Running still dedups; done reports done.
        digest, job = queue.next_ready()
        assert digest == hashes[1]
        assert queue.offer(hashes[1], jobs[1]) == "dedup"
        queue.mark_done(digest, {"m": 1})
        assert queue.offer(hashes[1], jobs[1]) == "done"
        assert store.get_hash(hashes[1]) == {"m": 1}
        assert (queue.hits, queue.deduped, queue.executed) == (1, 2, 1)

    def test_requeue_caps_attempts_then_fails(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        spec = small_spec(seeds=(0,))
        job = spec.jobs()[0]
        digest = job_hash(job)
        queue.offer(digest, job)
        queue.next_ready()  # attempt 1
        queue.requeue(digest, reason="worker died")
        assert queue.state_of(digest) == "queued"
        queue.next_ready()  # attempt 2 == MAX_ATTEMPTS
        queue.requeue(digest, reason="worker died")
        assert queue.state_of(digest) == "failed"
        assert "worker died" in queue.error_of(digest)
        assert queue.failed == 1

    def test_book_counts_and_settlement(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        queue = JobQueue(store)
        book = SweepBook()
        spec = small_spec()
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        sweep_id = sweep_id_for(spec)
        book.register(
            sweep_id, spec.name, hashes, spec.payload(), queue
        )
        for digest, job in zip(hashes, jobs):
            queue.offer(digest, job)
        assert book.counts(sweep_id, queue)["queued"] == len(jobs)
        assert not book.settled(sweep_id, queue)
        while True:
            item = queue.next_ready()
            if item is None:
                break
            queue.mark_done(item[0], {"m": 1})
        assert book.settled(sweep_id, queue)

    def test_settling_a_large_sweep_costs_linear_lookups(self):
        # The daemon asks ``settled`` after every worker-pipe event, so
        # with one waiter a sweep of N cells asks N times.  A walk of
        # the sweep per question is N^2 queue lookups (4 * 10^8 here);
        # the budget below allows a constant number per cell.
        n = 20_000
        budget = 10 * n

        class CountingDict(dict):
            lookups = 0

            def _count(self):
                CountingDict.lookups += 1
                if CountingDict.lookups > budget:
                    raise AssertionError(f"over {budget} queue lookups")

            def __getitem__(self, key):
                self._count()
                return super().__getitem__(key)

            def get(self, key, default=None):
                self._count()
                return super().get(key, default)

        queue = JobQueue()
        queue._tracked = CountingDict()
        book = SweepBook()
        hashes = [f"{i:064x}" for i in range(n)]
        for digest in hashes:
            queue.offer(digest, None)
        book.register("big", "big", hashes, {}, queue)
        while (item := queue.next_ready()) is not None:
            assert not book.settled("big", queue)
            queue.mark_done(item[0], {})
        assert book.settled("big", queue)
        assert CountingDict.lookups <= budget

    def test_group_tallies_equal_a_walk_through_every_transition(self):
        # The tallies _move keeps must always equal counting each cell's
        # state: duplicates count per occurrence, and a cell watched
        # before it is offered counts as queued.
        import random

        rng = random.Random(7)
        queue = JobQueue()
        cells = [f"{i:x}" for i in range(12)]
        groups = {
            "early": cells[:8] + cells[:2],
            "late": cells[4:],
        }
        queue.watch("early", groups["early"])

        def check():
            for group, digests in groups.items():
                if group not in queue._tallies:
                    continue
                walk = dict.fromkeys(("queued", "running", "done", "failed"), 0)
                for digest in digests:
                    walk[queue.state_of(digest) or "queued"] += 1
                assert queue.tally(group) == walk
                assert queue.unsettled(group) == walk["queued"] + walk["running"]

        for digest in cells[:6]:
            queue.offer(digest, None)
        queue.watch("late", groups["late"])
        for digest in cells[6:]:
            queue.offer(digest, None)
        check()
        running = []
        for _ in range(200):
            step = rng.randrange(5)
            if step == 0 and (item := queue.next_ready()) is not None:
                running.append(item[0])
            elif step == 1 and running:
                queue.mark_done(running.pop(rng.randrange(len(running))), {})
            elif step == 2 and running:
                queue.mark_failed(running.pop(rng.randrange(len(running))), "x")
            elif step == 3 and running:
                queue.requeue(running.pop(rng.randrange(len(running))), reason="x")
            elif step == 4:
                digest = rng.choice(cells)
                if queue.state_of(digest) == "done":
                    queue.forget(digest)
            check()

    def test_forget_after_settle_unsettles_every_sweep_holding_the_cell(self):
        queue, book = JobQueue(), SweepBook()
        # Registered before and after its cells are offered, sharing one.
        book.register("early", "early", ["a", "b"], {}, queue)
        for digest in ("a", "b", "c"):
            queue.offer(digest, None)
        book.register("late", "late", ["b", "c"], {}, queue)
        drain(queue)
        assert book.settled("early", queue) and book.settled("late", queue)
        queue.forget("b")
        assert not book.settled("early", queue)
        assert not book.settled("late", queue)
        assert book.counts("early", queue)["queued"] == 1
        drain(queue)
        assert book.settled("early", queue) and book.settled("late", queue)


def bare_daemon(root: Path) -> ServeDaemon:
    """An unstarted daemon whose pool is a no-op: submit runs in-process."""
    daemon = ServeDaemon(root)
    daemon.pool = types.SimpleNamespace(pump=lambda: None)
    return daemon


def drain(queue: JobQueue, *, fail: int = 0) -> None:
    """Run every queued cell to done, failing the first ``fail`` of them."""
    while (item := queue.next_ready()) is not None:
        if fail:
            queue.mark_failed(item[0], "boom")
            fail -= 1
        else:
            queue.mark_done(item[0], {"m": 1})


class TestResubmission:
    """A resubmitted sweep is tallied from the book, never re-expanded,
    and its receipt equals the full-expansion path's in every state."""

    @pytest.mark.parametrize("state", [
        "stored", "done", "queued", "running", "failed",
    ])
    def test_book_receipt_equals_full_expansion_receipt(
        self, tmp_path, monkeypatch, state
    ):
        spec = small_spec(name="again", seeds=(0, 1, 2, 3))
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        request = {"op": "submit", "spec": spec.payload()}
        # Twins with one queue history: ``book`` learned the sweep from a
        # submit, ``full`` saw the same offers but never registered it,
        # so its next submit takes the full-expansion path.
        book, full = bare_daemon(tmp_path / "b"), bare_daemon(tmp_path / "f")
        for twin in (book, full):
            if state == "stored":
                for digest in hashes:
                    twin.store.put_hash(digest, {"m": 0})
        book._handle_submit(request)
        for digest, job in zip(hashes, jobs):
            full.queue.offer(digest, job)
        for twin in (book, full):
            if state in ("done", "failed"):
                drain(twin.queue, fail=int(state == "failed"))
            elif state == "running":
                twin.queue.next_ready()
                twin.queue.next_ready()
        assert not full.book.known(sweep_id_for(spec))

        def no_expansion(self):
            raise AssertionError("a known sweep was expanded again")

        with monkeypatch.context() as patch:
            patch.setattr(SweepSpec, "jobs", no_expansion)
            again = book._handle_submit(request)
        assert again == full._handle_submit(request)
        assert (book.queue.hits, book.queue.deduped) == (
            full.queue.hits, full.queue.deduped
        )
        # The manifest is rewritten from the book's hashes.
        manifest = json.loads(book.store.manifest_path(again["sweep"]).read_text())
        assert manifest["jobs"] == hashes
        for twin in (book, full):
            twin._selector.close()


class TestWarmResubmit:
    """A warm resubmission is a read: no store write, no re-encoded
    manifest, and its tallies cost a constant number of queue lookups."""

    @staticmethod
    def count_writes(monkeypatch) -> list:
        written = []
        real = store_mod._write_atomic

        def counting(path, data):
            written.append(path)
            real(path, data)

        monkeypatch.setattr(store_mod, "_write_atomic", counting)
        return written

    def test_resubmitting_a_warm_sweep_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(name="warm", seeds=(0, 1, 2))
        request = {"op": "submit", "spec": spec.payload()}
        daemon = bare_daemon(tmp_path / "s")
        for digest in hashes_for(spec.jobs()):
            daemon.store.put_hash(digest, {"m": 0})
        first = daemon._handle_submit(request)
        path = daemon.store.manifest_path(first["sweep"])
        intact, inode = path.read_bytes(), path.stat().st_ino
        written = self.count_writes(monkeypatch)
        for _ in range(5):
            assert daemon._handle_submit(request)["hits"] == first["total"]
        assert written == []
        assert path.read_bytes() == intact and path.stat().st_ino == inode
        daemon._selector.close()

    def test_a_resumed_sweep_resubmits_without_a_write(
        self, tmp_path, monkeypatch
    ):
        spec = small_spec(name="resumed")
        request = {"op": "submit", "spec": spec.payload()}
        before = bare_daemon(tmp_path / "s")
        before._handle_submit(request)
        before._selector.close()
        # A new lifetime learns the sweep from its manifest, not a submit.
        after = bare_daemon(tmp_path / "s")
        after._resume()
        written = self.count_writes(monkeypatch)
        for _ in range(3):
            after._handle_submit(request)
        assert written == []
        after._selector.close()

    @pytest.mark.parametrize("damage", ["deleted", "truncated", "bit flip"])
    def test_a_damaged_manifest_heals_byte_identical(self, tmp_path, damage):
        spec = small_spec(name="heal")
        request = {"op": "submit", "spec": spec.payload()}
        daemon = bare_daemon(tmp_path / "s")
        sweep_id = daemon._handle_submit(request)["sweep"]
        path = daemon.store.manifest_path(sweep_id)
        intact = path.read_bytes()
        if damage == "deleted":
            path.unlink()
        elif damage == "truncated":
            path.write_bytes(intact[: len(intact) // 2])
        else:
            flipped = bytearray(intact)
            flipped[len(intact) // 2] ^= 0x01
            path.write_bytes(bytes(flipped))
        daemon._handle_submit(request)
        assert path.read_bytes() == intact
        daemon._selector.close()

    @pytest.mark.parametrize("spec, sweep_id", [
        (quick_spec(), "516d98ad077146ae"),
        (SweepSpec(
            name="every", topologies=("line:5", "ring:6"),
            algorithms=("max-based", "averaging"),
            rate_families=("drifted", "spread"),
            delay_policies=("uniform", "half"),
            fault_families=("none", "loss:0.1"),
            mobilities=("static", "waypoint:0.5"),
            transports=("sim", "virtual"), seeds=(0, 3),
            duration=12.5, rho=0.1, step=0.5, time_scale=0.02,
        ), "6da4f4b62a002204"),
    ], ids=["quick", "every-axis"])
    def test_payload_is_the_json_of_the_spec_and_ids_are_pinned(
        self, spec, sweep_id
    ):
        # The encoding every caller once parsed back: deep copy, indented.
        legacy = json.loads(
            json.dumps(dataclasses.asdict(spec), sort_keys=True, indent=2)
        )
        assert spec.payload() == legacy
        assert list(spec.payload()) == list(legacy)  # key order: frame bytes
        assert sweep_id_for(spec) == sweep_id

    def test_a_large_resubmit_and_its_counts_cost_constant_lookups(
        self, tmp_path
    ):
        # Each resubmission once revisited every hash and each ``counts``
        # walked the sweep; both are now one lookup of the queue's tally.
        n, budget = 20_000, 10
        spec = small_spec(name="big")
        sweep_id = sweep_id_for(spec)
        hashes = [f"{i:064x}" for i in range(n)]
        daemon = bare_daemon(tmp_path / "s")
        daemon.book.register(
            sweep_id, spec.name, hashes, spec.payload(), daemon.queue,
            daemon.store.write_manifest(spec, hashes),
        )
        for digest in hashes:
            daemon.queue.offer(digest, None)
        for _ in range(n // 2):  # half done, one running, the rest queued
            daemon.queue.mark_done(daemon.queue.next_ready()[0], {})
        daemon.queue.next_ready()

        class CountingDict(dict):
            lookups = 0

            def __getitem__(self, key):
                CountingDict.lookups += 1
                return super().__getitem__(key)

            def get(self, key, default=None):
                CountingDict.lookups += 1
                return super().get(key, default)

        daemon.queue._tracked = CountingDict(daemon.queue._tracked)
        deduped = daemon.queue.deduped
        receipt = daemon._handle_submit({"op": "submit", "spec": spec.payload()})
        assert CountingDict.lookups <= budget
        CountingDict.lookups = 0
        counts = daemon.book.counts(sweep_id, daemon.queue)
        assert CountingDict.lookups <= budget
        assert receipt["hits"] == n // 2
        assert receipt["deduped"] == n - n // 2
        assert daemon.queue.deduped - deduped == receipt["deduped"]
        assert receipt["counts"] == counts == {
            "queued": n - n // 2 - 1, "running": 1, "done": n // 2,
            "failed": 0, "total": n,
        }
        daemon._selector.close()


# ----------------------------------------------------------------------
# the real daemon, as a subprocess


def start_daemon(store: Path, *, workers: int = 2) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "start",
            "--store", str(store), "--workers", str(workers),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the ``(comm)`` field: state, ppid, ..."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def worker_pids(daemon_pid: int) -> list[int]:
    """The daemon's forked pool workers: its direct children."""
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None and int(fields[1]) == daemon_pid:
                pids.append(int(entry.name))
    return sorted(pids)


def outliving(pids: list[int], *, within: float) -> list[int]:
    """The ``pids`` still running (not gone, not zombies) after ``within`` s."""
    deadline = time.monotonic() + within
    while True:
        left = [
            pid for pid in pids
            if (fields := _stat_fields(pid)) is not None and fields[0] != "Z"
        ]
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.05)


def processes_naming(needle: str) -> list[int]:
    """Running (not zombie) processes whose command line holds ``needle``."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        fields = _stat_fields(int(entry.name))
        if needle.encode() in cmdline and fields is not None and fields[0] != "Z":
            pids.append(int(entry.name))
    return pids


@pytest.fixture()
def daemon(tmp_path):
    """A live daemon over a fresh store; killed at teardown if needed.

    Teardown fails the test if a pool worker outlives its daemon —
    SIGKILLed or shut down in order, the pool must be gone within 3 s.
    """
    store = tmp_path / "store"
    proc = start_daemon(store)
    try:
        with ServeClient(store=store) as client:
            client.ping()  # advert written => the pool is already forked
        workers = worker_pids(proc.pid)
        yield store, proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
    assert outliving(workers, within=3.0) == [], "orphaned pool workers"


@pytest.mark.serve
class TestServeDifferential:
    """Served metrics are bit-identical to in-process run_jobs."""

    def test_single_client_roundtrip_matches_run_jobs(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="single", seeds=(0, 1, 2))
        with ServeClient(store=store) as client:
            receipt = client.submit(spec)
            assert receipt["total"] == 3
            final = client.wait(receipt["sweep"], timeout=120)
            assert final["counts"]["done"] == 3
            served = client.fetch(receipt["sweep"])
        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        assert served == expected

    @pytest.mark.parametrize("n_clients", [2, 4])
    def test_concurrent_overlapping_clients(self, daemon, n_clients):
        store, _proc = daemon
        # Ring-overlapping grids: client k shares its second topology
        # with client k+1's first, so every cell but the endpoints is
        # submitted by two clients concurrently.
        pool = ["line:5", "ring:6", "grid:3,3", "line:6", "ring:7"]
        specs = [
            small_spec(
                name=f"client{k}",
                topologies=(pool[k], pool[k + 1]),
                seeds=(0, 1),
            )
            for k in range(n_clients)
        ]
        served: dict[int, list] = {}
        errors: list[BaseException] = []

        def submit_and_fetch(k: int) -> None:
            try:
                with ServeClient(store=store) as client:
                    receipt = client.submit(specs[k])
                    client.wait(receipt["sweep"], timeout=120)
                    served[k] = client.fetch(receipt["sweep"])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=submit_and_fetch, args=(k,))
            for k in range(n_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors, errors

        # Bit-identical to one in-process run_jobs call per spec.
        for k, spec in enumerate(specs):
            expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
            assert served[k] == expected

        distinct = {
            digest for spec in specs for digest in hashes_for(spec.jobs())
        }
        with ServeClient(store=store) as client:
            stats = client.stats()
        # The dedup proof: overlapping cells executed exactly once.
        assert stats["executed"] == len(distinct)
        assert stats["failed"] == 0
        objects = list((store / "objects").glob("*.json"))
        assert len(objects) == len(distinct)

    @pytest.mark.rt
    def test_served_live_grid_matches_run_jobs(self, daemon):
        # A live cell is a cell like any other: a pool worker runs the
        # router cell, forking its shards, beside the sim and virtual ones.
        store, _proc = daemon
        spec = small_spec(
            name="live", topologies=("line:4",), seeds=(0,), duration=4.0,
            transports=("sim", "virtual", "router"), time_scale=0.05,
        )
        with ServeClient(store=store) as client:
            receipt = client.submit(spec)
            final = client.wait(receipt["sweep"], timeout=120)
            assert final["counts"]["done"] == receipt["total"] == 3
            served = client.fetch(receipt["sweep"])
        # Every key but the virtual row's stopwatch reading.
        rows = {row["transport"]: row for row in served}
        rows["virtual"].pop("wall_elapsed")
        in_process = [o.metrics for o in run_jobs(spec.jobs()[:2], workers=1)]
        in_process[1].pop("wall_elapsed")
        assert [rows["sim"], rows["virtual"]] == in_process
        router, sim = rows["router"], rows["sim"]
        assert router["workers"] >= 1
        for key in ("topology", "algorithm", "rates", "delays", "faults",
                    "mobility", "seed", "n_nodes", "diameter",
                    "settle_threshold", "rewirings"):
            assert router[key] == sim[key], key

    def test_resubmission_is_all_hits(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="twice")
        with ServeClient(store=store) as client:
            first = client.submit(spec)
            client.wait(first["sweep"], timeout=120)
            again = client.submit(spec)
            assert again["sweep"] == first["sweep"]
            assert again["hits"] == again["total"]
            assert again["queued"] == 0
            stats = client.stats()
        assert stats["executed"] == first["total"]


    def test_a_run_jobs_cache_dir_is_a_warm_serve_store(self, tmp_path):
        store = tmp_path / "store"
        spec = small_spec(name="shared", seeds=(0, 1, 2))
        ran = run_jobs(spec.jobs(), workers=2, cache=ContentStore(store))
        proc = start_daemon(store, workers=1)
        try:
            with ServeClient(store=store) as client:
                receipt = client.submit(spec)
                assert receipt["queued"] == 0
                assert receipt["hits"] == receipt["total"] == 3
                assert client.fetch(receipt["sweep"]) == [
                    o.metrics for o in ran
                ]
                assert client.stats()["executed"] == 0
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


@pytest.mark.serve
class TestServeCrashResume:
    def test_sigkill_mid_sweep_then_resume_executes_only_missing(
        self, tmp_path
    ):
        store = tmp_path / "store"
        # ~6 multi-second cells at one worker: the kill lands mid-sweep.
        spec = small_spec(
            name="resume", topologies=("line:9",),
            seeds=(0, 1, 2, 3, 4, 5), duration=1200.0,
        )
        total = len(spec.jobs())
        proc = start_daemon(store, workers=1)
        try:
            with ServeClient(store=store) as client:
                sweep = client.submit(spec)["sweep"]
                while True:
                    counts = client.status(sweep)["counts"]
                    if counts["done"] >= 1:
                        break
                    time.sleep(0.03)
                assert counts["queued"] + counts["running"] >= 2

                # A client blocked on the daemon must fail promptly and
                # by name when the daemon is SIGKILLed — not hang.
                box: dict = {}

                def blocked_wait() -> None:
                    with ServeClient(store=store, timeout=30) as waiter:
                        begin = time.perf_counter()
                        try:
                            waiter.wait(sweep, timeout=30)
                        except ServeError as exc:
                            box["error"] = str(exc)
                        box["elapsed"] = time.perf_counter() - begin

                thread = threading.Thread(target=blocked_wait)
                thread.start()
                time.sleep(0.1)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
                thread.join(timeout=5)
                assert box["elapsed"] < 3.0
                assert "repro-serve daemon" in box["error"]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

        survivors = len(list((store / "objects").glob("*.json")))
        assert 1 <= survivors < total

        # The twin resume: the in-process runner picks a copy of the
        # dead daemon's store up as is and executes only what is missing.
        twin = shutil.copytree(store, tmp_path / "twin")
        resumed = run_jobs(spec.jobs(), workers=2, cache=ContentStore(twin))
        assert [o.cached for o in resumed].count(True) == survivors

        proc2 = start_daemon(store, workers=1)
        try:
            with ServeClient(store=store) as client:
                final = client.wait(sweep, timeout=180)
                assert final["counts"]["done"] == total
                stats = client.stats()
                # Only the missing cells were re-executed.
                assert stats["resumed"] == survivors
                assert stats["executed"] == total - survivors
                served = client.fetch(sweep)
                client.shutdown()
        finally:
            if proc2.poll() is None:
                proc2.kill()
            proc2.wait(timeout=10)

        expected = [o.metrics for o in run_jobs(spec.jobs(), workers=1)]
        assert served == expected
        assert [o.metrics for o in resumed] == expected

    @pytest.mark.parametrize("damage", ["truncated", "empty", "bit-flipped"])
    def test_an_unreadable_object_is_rerun_not_served(self, tmp_path, damage):
        # offer()'s store probe is existence only, so a damaged object
        # counts as done until somebody reads it: fetch must notice,
        # re-run the cell and say "wait", not report the sweep lost.
        store = ContentStore(tmp_path / "store")
        spec = small_spec(name="rot", seeds=(0, 1, 2))
        jobs = spec.jobs()
        expected = [o.metrics for o in run_jobs(jobs, workers=1, cache=store)]
        victim = store.path_for(job_hash(jobs[1]))
        intact = victim.read_bytes()
        victim.write_bytes({
            "truncated": intact[: len(intact) // 2],
            "empty": b"",
            "bit-flipped": bytes([intact[0] ^ 0x80]) + intact[1:],
        }[damage])

        proc = start_daemon(store.root, workers=1)
        try:
            with ServeClient(store=store.root) as client:
                receipt = client.submit(spec)
                sweep = receipt["sweep"]
                assert receipt["queued"] == 0
                with pytest.raises(ServeError, match="incomplete.*wait on it"):
                    client.fetch(sweep)
                final = client.wait(sweep, timeout=60)
                assert final["counts"]["done"] == len(jobs)
                assert client.fetch(sweep) == expected
                assert client.stats()["executed"] == 1
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        assert victim.read_bytes() == intact

    def test_sigkill_while_a_respawned_worker_is_mid_cell(self, tmp_path):
        # A respawned worker is forked after the listener bound and the
        # clients connected.  Unless it closes the copies it inherited,
        # a busy one keeps the port accepting and the waiter's socket
        # open for as long as its cell runs (~10 s here).
        store = tmp_path / "store"
        spec = small_spec(
            name="respawn", topologies=("line:17",), seeds=(0,),
            duration=30000.0,
        )
        proc = start_daemon(store, workers=1)
        respawned: list[int] = []
        try:
            with ServeClient(store=store, timeout=30) as waiter:
                (first,) = worker_pids(proc.pid)
                os.kill(first, signal.SIGKILL)
                while not respawned:  # the dead one lingers as a zombie
                    time.sleep(0.03)
                    respawned = [
                        pid for pid in worker_pids(proc.pid) if pid != first
                    ]
                sweep = waiter.submit(spec)["sweep"]
                while not waiter.status(sweep)["counts"]["running"]:
                    time.sleep(0.03)

                box: dict = {}

                def blocked_wait() -> None:
                    try:
                        waiter.wait(sweep, timeout=30)
                    except ServeError as exc:
                        box["error"] = str(exc)

                thread = threading.Thread(target=blocked_wait, daemon=True)
                thread.start()
                time.sleep(0.1)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
                thread.join(timeout=3.0)
                assert not thread.is_alive(), "waiter saw no EOF within 3 s"
                assert "repro-serve daemon" in box["error"]
                with pytest.raises(ServeError, match="cannot reach"):
                    ServeClient(port=waiter.port, timeout=3.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            # The busy worker would only notice at its next pipe write.
            for pid in respawned:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    @pytest.mark.rt
    def test_a_worker_killed_mid_router_cell_is_noticed_at_once(self):
        # The shards a worker forks do not hold its pipe, and its exit
        # code is read without waiting on the sentinel they share: the
        # death is noticed while the orphaned shards still run, and the
        # cell runs again on a respawned worker.
        job = small_spec(
            name="kill", topologies=("line:8",), seeds=(0,), duration=16.0,
            transports=("router",), time_scale=0.25,
        ).jobs()[0]
        digest = job_hash(job)
        requeues: list[tuple[float, str]] = []

        class Recording(JobQueue):
            def requeue(self, digest, *, reason):
                requeues.append((time.perf_counter(), reason))
                super().requeue(digest, reason=reason)

        queue = Recording()
        queue.offer(digest, job)
        selector = selectors.DefaultSelector()
        pool = WorkerPool(queue, 1, selector)
        try:
            pool.pump()
            (worker,) = multiprocessing.active_children()
            deadline = time.monotonic() + 10.0
            while not (shards := worker_pids(worker.pid)):
                assert time.monotonic() < deadline, "the worker forked no shard"
                time.sleep(0.02)
            time.sleep(0.5)  # the run is under way
            killed = time.perf_counter()
            os.kill(worker.pid, signal.SIGKILL)
            results = list(pool.drain())
        finally:
            pool.close()
            selector.close()
        (noticed, reason), = requeues
        # Milliseconds: waiting on the sentinel the shards share cost a
        # whole second, and the shards' copy of the pipe several.
        assert noticed - killed < 0.5
        assert reason == "worker died (exit code -9)"
        assert queue.state_of(digest) == "done"
        assert [r["hash"] for r in results] == [digest]
        assert outliving(shards, within=10.0) == []

    def test_sigkilled_daemon_leaves_no_orphan_workers(self, tmp_path):
        # Each worker inherits, through the fork, the parent end of its
        # own pipe; unless it closes that copy its blocked recv() never
        # sees EOF and it idles forever under pid 1.
        store = tmp_path / "store"
        proc = start_daemon(store, workers=2)
        try:
            with ServeClient(store=store) as client:
                assert client.ping()["workers"] == 2
            workers = worker_pids(proc.pid)
            assert len(workers) == 2
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            assert outliving(workers, within=3.0) == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def raw_request(host: str, port: int, record: dict) -> bytes:
    """One request on a fresh connection; the reply frame's exact bytes."""
    with socket.create_connection((host, port), timeout=10) as sock:
        send_frame(sock, record)
        data = b""
        while len(data) < 4 or len(data) < 4 + struct.unpack(">I", data[:4])[0]:
            chunk = sock.recv(65536)
            assert chunk, "daemon closed the connection mid-reply"
            data += chunk
    return data


PACK_DAMAGE = [
    "truncated", "empty", "bit-flipped body", "other job list",
    "orphan tmp", "no packs dir",
]


@pytest.mark.serve
class TestServePacks:
    """A finished sweep's fetch is spliced from one packed file.

    The reply is byte for byte ``encode_frame`` of the full reply, and a
    pack that is missing or fails a digest is never served: fetch falls
    back to the objects and rewrites the pack, executing nothing.
    """

    def test_fetch_reply_is_encode_frame_of_the_full_reply(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        spec = small_spec(name="bytes \u2713", seeds=(0, 1, 2))
        expected = [
            o.metrics for o in run_jobs(spec.jobs(), workers=1, cache=store)
        ]
        proc = start_daemon(store.root, workers=1)
        try:
            with ServeClient(store=store.root) as client:
                sweep = client.submit(spec)["sweep"]
                request = {"op": "fetch", "sweep": sweep}
                first = raw_request(client.host, client.port, request)
                assert store.pack_path(sweep).exists()
                second = raw_request(client.host, client.port, request)
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        # The results as the objects hold them (keys sorted), which is
        # what the per-object path has always put on the wire.
        stored = store.results(hashes_for(spec.jobs()))
        assert stored == expected
        full_reply = {
            "ok": True, "sweep": sweep, "name": spec.name,
            "spec": spec.payload(), "results": stored,
        }
        assert first == second == encode_frame(full_reply)

    @pytest.mark.parametrize("damage", PACK_DAMAGE)
    def test_a_damaged_pack_is_rewritten_not_served(self, tmp_path, damage):
        store = ContentStore(tmp_path / "store")
        spec = small_spec(name="packed", seeds=(0, 1, 2))
        jobs = spec.jobs()
        expected = [o.metrics for o in run_jobs(jobs, workers=1, cache=store)]
        proc = start_daemon(store.root, workers=1)
        try:
            with ServeClient(store=store.root) as client:
                sweep = client.submit(spec)["sweep"]
                assert client.fetch(sweep) == expected
                pack = store.pack_path(sweep)
                intact = pack.read_bytes()
                orphan = pack.with_name(f"{pack.name}.99999.tmp")
                if damage == "truncated":
                    pack.write_bytes(intact[: len(intact) // 2])
                elif damage == "empty":
                    pack.write_bytes(b"")
                elif damage == "bit-flipped body":
                    flipped = bytearray(intact)
                    flipped[-2] ^= 0x01
                    pack.write_bytes(bytes(flipped))
                elif damage == "other job list":
                    store.write_pack(sweep, hashes_for(jobs)[::-1], expected)
                elif damage == "orphan tmp":
                    # A crash between temp-write and rename.
                    pack.unlink()
                    orphan.write_bytes(intact[:100])
                else:
                    shutil.rmtree(store.pack_dir)
                assert not pack.exists() or pack.read_bytes() != intact
                assert client.fetch(sweep) == expected
                assert pack.read_bytes() == intact
                assert client.stats()["executed"] == 0
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        left = sorted(path.name for path in store.pack_dir.iterdir())
        assert left == sorted(
            [pack.name] + ([orphan.name] if damage == "orphan tmp" else [])
        )

    def test_a_client_that_stops_reading_cannot_wedge_the_daemon(
        self, tmp_path
    ):
        store = ContentStore(tmp_path / "store")
        spec = small_spec(name="stall", seeds=(0, 1, 2))
        # Large objects: forty pipelined replies overflow every socket
        # buffer, and the cells never run, since their objects exist.
        for digest in hashes_for(spec.jobs()):
            store.put_hash(digest, {"pad": "x" * 100_000})
        proc = start_daemon(store.root, workers=1)
        stalled = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            with ServeClient(store=store.root) as client:
                sweep = client.submit(spec)["sweep"]
                host, port = client.host, client.port
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect((host, port))
            fetch = encode_frame({"op": "fetch", "sweep": sweep})
            stalled.sendall(fetch * 40)  # ... and never reads
            time.sleep(1.0)
            with ServeClient(store=store.root, timeout=3.0) as other:
                begin = time.perf_counter()
                assert other.ping()["ok"]
                assert time.perf_counter() - begin < 3.0
                stats = other.stats()
                assert stats["stalled_clients"] == 1
                assert len(other.fetch(sweep)) == 3
                other.shutdown()
        finally:
            stalled.close()
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


@pytest.mark.serve
class TestServeResumesRetiredSpecFields:
    """A store written before ``SweepSpec.engine`` was retired.

    Its manifests carry ``"engine": "scalar"`` and an id hashed over
    that payload; the daemon must still resume them under the old id,
    and must say so when it cannot parse a manifest — or cannot read one
    at all (torn, empty, bit-flipped) — instead of skipping it silently:
    both count in ``skipped_manifests``.  A readable manifest of another
    ``cache_version`` is the one uncounted skip, by design: a version
    bump retires it together with the objects it indexes.
    """

    def test_unreadable_manifests_are_counted_and_the_good_one_resumes(
        self, tmp_path
    ):
        spec = small_spec(name="good", seeds=(0, 1))
        jobs = spec.jobs()
        store = ContentStore(tmp_path / "store")
        good = sweep_id_for(spec)
        intact = store.write_manifest(spec, hashes_for(jobs))
        for stem, data in {
            "0" * 16: intact[: len(intact) // 2],
            "1" * 16: b"",
            "2" * 16: bytes([intact[0] ^ 0x80]) + intact[1:],
        }.items():
            store.manifest_path(stem).write_bytes(data)
        expected = [o.metrics for o in run_jobs(jobs, workers=1)]

        proc = start_daemon(store.root, workers=1)
        try:
            with ServeClient(store=store.root) as client:
                final = client.wait(good, timeout=60)
                assert final["counts"]["done"] == len(jobs)
                stats = client.stats()
                assert stats["skipped_manifests"] == 3
                assert stats["executed"] == len(jobs)
                assert client.fetch(good) == expected
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)

    def test_old_manifest_with_half_its_objects_resumes_the_rest(
        self, tmp_path
    ):
        import hashlib

        from repro.sweep.jobs import CACHE_VERSION

        spec = small_spec(name="old", seeds=(0, 1, 2, 3))
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        old_payload = {**spec.payload(), "engine": "scalar"}
        old_id = hashlib.sha256(
            json.dumps(
                {"spec": old_payload, "v": CACHE_VERSION},
                sort_keys=True, separators=(",", ":"),
            ).encode()
        ).hexdigest()[:16]
        assert old_id != sweep_id_for(spec)

        store = ContentStore(tmp_path / "store")

        def write_manifest(sweep_id, payload):
            store.manifest_path(sweep_id).write_text(json.dumps({
                "sweep": sweep_id, "name": payload["name"],
                "cache_version": CACHE_VERSION, "spec": payload,
                "jobs": hashes,
            }))

        write_manifest(old_id, old_payload)
        write_manifest("f" * 16, {**old_payload, "engine": "warp"})
        expected = [o.metrics for o in run_jobs(jobs, workers=1)]
        for digest, metrics in list(zip(hashes, expected))[:2]:
            store.put_hash(digest, metrics)

        proc = start_daemon(store.root, workers=1)
        try:
            with ServeClient(store=store.root) as client:
                final = client.wait(old_id, timeout=60)
                assert final["counts"]["done"] == len(jobs)
                stats = client.stats()
                assert stats["resumed"] == 2
                assert stats["executed"] == len(jobs) - 2
                assert stats["skipped_manifests"] == 1
                assert client.fetch(old_id) == expected
                client.shutdown()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)


@pytest.mark.serve
class TestServeProtocolErrors:
    def test_unknown_op_and_unknown_sweep_are_named_errors(self, daemon):
        store, _proc = daemon
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown op"):
                client._request({"op": "frobnicate"})
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown sweep"):
                client.fetch("no-such-sweep")

    def test_fetch_before_complete_is_a_named_error(self, daemon):
        store, _proc = daemon
        spec = small_spec(
            name="early", topologies=("line:9",), seeds=(0, 1, 2),
            duration=1200.0,
        )
        with ServeClient(store=store) as client:
            sweep = client.submit(spec)["sweep"]
            with pytest.raises(ServeError, match="incomplete"):
                client.fetch(sweep)
            client.shutdown()

    def test_malformed_spec_rejected_with_sweep_error_text(self, daemon):
        store, _proc = daemon
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown SweepSpec fields"):
                client._request(
                    {"op": "submit", "spec": {"no_such_axis": [1]}}
                )

    def test_mistyped_grids_are_named_errors_and_the_daemon_lives(self, daemon):
        # Each of these once escaped _handle_submit as a bare TypeError,
        # ValueError, TopologyError or DelayBoundError and ended the
        # daemon's event loop.
        store, _proc = daemon
        cases = [
            ({"seeds": 3}, "'seeds'"),
            ({"rate_families": 5}, "'rate_families'"),
            ({"duration": "x"}, "'duration'"),
            # NaN / Infinity are JSON tokens the frame decoder accepts;
            # a NaN duration once ran a cell that never ended.
            ({"duration": float("nan")}, "'duration'"),
            ({"duration": float("inf")}, "'duration'"),
            ({"time_scale": float("nan")}, "'time_scale'"),
            ({"seeds": ["a"]}, "seed 'a'"),
            ({"topologies": ["line:1"]}, "'line:1'"),
            ({"topologies": ["grid:0,3"]}, "'grid:0,3'"),
            ({"delay_policies": ["uniform:0.5,0.2"]}, "'uniform:0.5,0.2'"),
            ({"delay_policies": ["fraction:2"]}, "'fraction:2'"),
        ]
        with ServeClient(store=store) as client:
            for payload, named in cases:
                with pytest.raises(ServeError, match=re.escape(named)):
                    client._request({"op": "submit", "spec": payload})
            assert client.ping()["ok"]

    def test_wire_garbage_gets_error_reply_then_disconnect(self, daemon):
        store, _proc = daemon
        # Poke the daemon below ServeClient: a well-prefixed frame whose
        # body is not UTF-8 JSON must earn one error frame, then EOF.
        with ServeClient(store=store) as probe:
            host, port = probe.host, probe.port
        sock = socket.create_connection((host, port), timeout=10)
        try:
            body = b"\xff\xfe\x00\x01"
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(sock, FrameBuffer(), peer="daemon")
            assert reply["ok"] is False
            assert "UTF-8" in reply["error"]
            assert sock.recv(1) == b""  # connection dropped
        finally:
            sock.close()
        # The daemon survives and keeps serving.
        with ServeClient(store=store) as client:
            assert client.ping()["ok"]
            assert client.stats()["protocol_errors"] >= 1


@pytest.mark.serve
class TestServeCli:
    def run_cli(self, *args: str, timeout=120) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.serve", *args],
            env=env, capture_output=True, text=True, timeout=timeout,
        )

    def test_submit_status_fetch_stop_roundtrip(self, daemon):
        store, proc = daemon
        submitted = self.run_cli(
            "submit", "--store", str(store), "--topologies", "line:5",
            "--algorithms", "max-based", "--rates", "drifted",
            "--seeds", "2", "--duration", "8", "--name", "cli", "--wait",
        )
        assert submitted.returncode == 0, submitted.stdout + submitted.stderr
        assert "sweep " in submitted.stdout
        sweep = submitted.stdout.split("sweep ")[1].split(":")[0].split("'")[0].strip()

        status = self.run_cli("status", "--store", str(store), sweep)
        assert status.returncode == 0
        assert "2/2 done" in status.stdout

        fetched = self.run_cli("fetch", "--store", str(store), sweep)
        assert fetched.returncode == 0
        assert "max_skew" in fetched.stdout

        stopped = self.run_cli("stop", "--store", str(store))
        assert stopped.returncode == 0
        assert proc.wait(timeout=10) == 0

    def test_start_on_a_port_in_use_fails_fast_and_leaves_no_worker(
        self, tmp_path
    ):
        # The pool is forked before the listener binds.  Its workers are
        # daemonic to the parent, so a failed bind still ends the
        # process at once and the exit cleanup takes the workers along.
        store = tmp_path / "store"
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            begin = time.perf_counter()
            result = self.run_cli(
                "start", "--store", str(store), "--workers", "2",
                "--port", str(busy.getsockname()[1]), timeout=10,
            )
            elapsed = time.perf_counter() - begin
        assert result.returncode != 0
        assert "error" in result.stderr
        assert elapsed < 3.0
        assert processes_naming(str(store)) == []

    @pytest.mark.parametrize("flag, value", [
        ("--workers", "0"), ("--workers", "-3"),
        ("--port", "65536"), ("--port", "-1"),
    ])
    def test_start_with_a_bad_count_or_port_fails_by_name(
        self, tmp_path, flag, value
    ):
        # A zero-worker daemon used to queue sweeps it could never run,
        # and an out-of-range port died in bind() after the fork.
        store = tmp_path / "store"
        begin = time.perf_counter()
        result = self.run_cli(
            "start", "--store", str(store), flag, value, timeout=10,
        )
        elapsed = time.perf_counter() - begin
        assert result.returncode != 0
        assert flag in result.stderr and value in result.stderr
        assert "Traceback" not in result.stderr
        assert elapsed < 3.0
        assert processes_naming(str(store)) == []

    def test_experiments_verb_dispatches_to_serve(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments", "serve",
                "status", "--store", str(tmp_path / "empty"),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        # No daemon: the verb must route to serve and fail by name,
        # not fall through to the experiment-id parser.
        assert result.returncode == 2
        assert "repro-serve" in result.stderr


def test_a_pool_of_no_workers_and_an_unbindable_port_are_refused(tmp_path):
    store = ContentStore(tmp_path / "store")
    with selectors.DefaultSelector() as selector:
        for workers in (0, -1):
            with pytest.raises(SweepError, match=f"--workers.*{workers}"):
                WorkerPool(JobQueue(store), workers, selector)
        assert selector.get_map() == {}
    for port in (-1, 65536):
        with pytest.raises(ServeError, match=f"--port.*{port}"):
            ServeDaemon(tmp_path / "store", port=port)


def test_send_frame_recv_frame_roundtrip_over_socketpair():
    left, right = socket.socketpair()
    try:
        left.settimeout(5)
        right.settimeout(5)
        send_frame(left, {"op": "ping", "n": 1})
        assert recv_frame(right, FrameBuffer(), peer="left") == {
            "op": "ping", "n": 1,
        }
    finally:
        left.close()
        right.close()
