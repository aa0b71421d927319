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

import json
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve.client import ServeClient
from repro.serve.daemon import SweepBook
from repro.serve.protocol import FrameBuffer, recv_frame, send_frame
from repro.sweep.jobs import job_hash
from repro.sweep.pool import JobQueue
from repro.sweep.runner import run_jobs
from repro.sweep.spec import SweepSpec
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
        sweep_id = store.write_manifest(spec, hashes)
        manifest = store.read_manifest(sweep_id)
        assert manifest["jobs"] == hashes
        assert SweepSpec.from_dict(manifest["spec"]) == spec
        store.put_hash(hashes[0], {"m": 1})
        assert store.results(hashes) is None
        for digest in hashes[1:]:
            store.put_hash(digest, {"m": 2})
        assert store.results(hashes) == [{"m": 1}] + [{"m": 2}] * (
            len(hashes) - 1
        )

    def test_torn_manifest_is_ignored(self, tmp_path):
        store = ContentStore(tmp_path / "store")
        (store.sweep_dir / "deadbeef.json").write_text('{"sweep": "dead')
        assert store.read_manifest("deadbeef") is None
        assert list(store.manifests()) == []


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
        book.register(sweep_id, spec.name, hashes, json.loads(spec.to_json()))
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


@pytest.mark.serve
class TestServeResumesRetiredSpecFields:
    """A store written before ``SweepSpec.engine`` was retired.

    Its manifests carry ``"engine": "scalar"`` and an id hashed over
    that payload; the daemon must still resume them under the old id,
    and must say so when it cannot parse a manifest instead of skipping
    it silently.
    """

    def test_old_manifest_with_half_its_objects_resumes_the_rest(
        self, tmp_path
    ):
        import hashlib

        from repro.sweep.jobs import CACHE_VERSION

        spec = small_spec(name="old", seeds=(0, 1, 2, 3))
        jobs = spec.jobs()
        hashes = hashes_for(jobs)
        old_payload = {**json.loads(spec.to_json()), "engine": "scalar"}
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

    def test_forking_transports_rejected_at_submit(self, daemon):
        store, _proc = daemon
        spec = small_spec(name="forky", transports=("udp",), seeds=(0,))
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError) as refused:
                client.submit(spec)
        message = str(refused.value)
        assert "udp" in message and "'repro-experiments sweep'" in message
        assert "'virtual'" in message
        # run_jobs runs forking cells at any worker count (PR 17).
        assert "--workers" not in message

    def test_malformed_spec_rejected_with_sweep_error_text(self, daemon):
        store, _proc = daemon
        with ServeClient(store=store) as client:
            with pytest.raises(ServeError, match="unknown SweepSpec fields"):
                client._request(
                    {"op": "submit", "spec": {"no_such_axis": [1]}}
                )

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
    def run_cli(self, *args: str) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.serve", *args],
            env=env, capture_output=True, text=True, timeout=120,
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
