"""The ``repro-serve`` daemon: a long-running sweep service.

One process owns a localhost TCP listener, the sweep engine's worker
pool (:class:`~repro.sweep.pool.WorkerPool`, its pipes registered in
this event loop) and a :class:`~repro.sweep.store.ContentStore`.  Clients
speak the length-prefixed JSON frames of :mod:`repro.serve.protocol`;
each request is one frame carrying an ``op`` and each reply one frame
carrying ``ok`` — ``submit``, ``status``, ``wait``, ``fetch``,
``stats``, ``ping``, ``shutdown``.

Crash-safety choreography
-------------------------
* No worker holds the listening socket or a client socket: the first
  pool is forked *before* the listener binds, and a respawned worker
  closes the copies its fork inherited.  When the daemon is SIGKILLed
  the port closes immediately and a client mid-request gets a prompt
  EOF (surfaced as a named :class:`~repro.errors.ServeError` by the
  client) instead of a hang.
* Workers only compute; the parent alone writes to the store, and no
  worker outlives a SIGKILLed parent (:mod:`repro.sweep.pool`).
* Manifests are written before the first cell of a sweep runs, and each
  finished cell's object is written before it is marked done.  A
  restarted daemon therefore re-derives exactly the missing cells from
  (manifest, objects) and re-executes only those — the resume contract
  ``tests/test_serve.py`` kills a live daemon to verify.

Like the live runtime (:mod:`repro.rt`), this package is outside the
deterministic core: it reads wall clocks for uptime/throughput and
socket timeouts.  Determinism is preserved where it matters — the
*metrics* are produced by the same :func:`~repro.sweep.jobs.execute_job`
the in-process runner uses, so a served sweep is bit-identical to
``run_jobs``.
"""

from __future__ import annotations

import json
import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ServeError, SweepError
from repro.serve.protocol import PROTOCOL_VERSION, FrameBuffer, send_frame
from repro.sweep.families import forking_transports
from repro.sweep.pool import JobQueue, WorkerPool
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ContentStore, hashes_for

__all__ = ["ServeDaemon", "SweepBook"]


@dataclass
class _SweepEntry:
    name: str
    hashes: tuple[str, ...]
    spec_payload: dict = field(default_factory=dict)


class SweepBook:
    """Sweep-id -> ordered job hashes; per-sweep progress roll-ups.

    The split from :class:`~repro.sweep.pool.JobQueue` mirrors the
    store's layout (objects vs. manifests): cells are shared, sweeps are
    views over them.  Every cell of a registered sweep has been offered
    to the queue, so the queue knows each one's state.
    """

    def __init__(self) -> None:
        self._sweeps: Dict[str, _SweepEntry] = {}

    def register(
        self, sweep_id: str, name: str, hashes: list[str], spec_payload: dict
    ) -> None:
        self._sweeps[sweep_id] = _SweepEntry(
            name=name, hashes=tuple(hashes), spec_payload=dict(spec_payload)
        )

    def known(self, sweep_id: str) -> bool:
        return sweep_id in self._sweeps

    def ids(self) -> list[str]:
        return sorted(self._sweeps)

    def __getitem__(self, sweep_id: str) -> _SweepEntry:
        return self._sweeps[sweep_id]

    def counts(self, sweep_id: str, queue: JobQueue) -> dict:
        """Queued/running/done/failed tally over the sweep's cells."""
        entry = self._sweeps[sweep_id]
        tally = {"queued": 0, "running": 0, "done": 0, "failed": 0}
        errors = []
        for digest in entry.hashes:
            state = queue.state_of(digest)
            tally[state] += 1
            if state == "failed":
                error = queue.error_of(digest)
                if error and error not in errors:
                    errors.append(error)
        tally["total"] = len(entry.hashes)
        if errors:
            tally["errors"] = errors
        return tally

    def settled(self, sweep_id: str, queue: JobQueue) -> bool:
        """No cell still queued or running (done or failed throughout)."""
        counts = self.counts(sweep_id, queue)
        return counts["queued"] == 0 and counts["running"] == 0


class ServeDaemon:
    """The daemon: listener + worker pool + store, in one event loop."""

    def __init__(
        self,
        store_dir: str | os.PathLike,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.store = ContentStore(store_dir)
        self.queue = JobQueue(self.store)
        self.book = SweepBook()
        self.n_workers = workers
        self.host = host
        self.port = port
        self.resumed = 0
        #: Manifests found in the store whose spec no longer parses —
        #: their sweeps will not resume; surfaced by the ``stats`` op.
        self.skipped_manifests = 0
        self.clients_served = 0
        self.protocol_errors = 0
        self._listener: Optional[socket.socket] = None
        self._selector = selectors.DefaultSelector()
        self._clients: dict[socket.socket, FrameBuffer] = {}
        self._waiters: list[tuple[socket.socket, str]] = []
        self._started_at = 0.0
        self._stop = False

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> None:
        """Resume from the store, fork workers, bind, advertise."""
        self._resume()
        self.pool = WorkerPool(self.queue, self.n_workers, self._selector)
        # Bind only after forking: workers must not inherit the
        # listening socket, or a SIGKILLed daemon would leave the port
        # open and clients hanging instead of seeing a prompt EOF.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        listener.setblocking(False)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._selector.register(listener, selectors.EVENT_READ, "listener")
        self.store.write_endpoint(self.host, self.port, workers=self.n_workers)
        self._started_at = time.monotonic()
        self.pool.pump()

    def _resume(self) -> None:
        """Re-enqueue the missing cells of every manifested sweep."""
        for manifest in self.store.manifests():
            try:
                spec = SweepSpec.from_dict(manifest["spec"])
                jobs = spec.jobs()
            except SweepError:
                self.skipped_manifests += 1
                continue
            hashes = hashes_for(jobs)
            self.book.register(
                manifest["sweep"], spec.name, hashes, manifest["spec"]
            )
            for digest, job in zip(hashes, jobs):
                self.queue.offer(digest, job)
        # Cells found already on disk during the scan are the resumed
        # ones; later submissions' hits are ordinary cache hits.
        self.resumed = self.queue.hits

    def close(self) -> None:
        """Orderly teardown: advert gone first, then sockets, then pool."""
        self.store.clear_endpoint()
        for sock in list(self._clients):
            self._drop_client(sock)
        if self._listener is not None:
            try:
                self._selector.unregister(self._listener)
            except KeyError:
                pass
            self._listener.close()
            self._listener = None
        self.pool.close()
        self._selector.close()

    # ------------------------------------------------------------------
    # the event loop

    def run(self) -> None:
        """Serve until :meth:`stop` (or a ``shutdown`` request)."""
        try:
            while not self._stop:
                for key, _ in self._selector.select(timeout=0.2):
                    if key.data == "listener":
                        self._accept()
                    elif isinstance(key.data, tuple):
                        self.pool.on_readable(key.data[1])
                        self._flush_waiters()
                    else:
                        self._on_client_readable(key.fileobj)
        finally:
            self.close()

    def stop(self) -> None:
        self._stop = True

    # ------------------------------------------------------------------
    # client plumbing

    def _accept(self) -> None:
        try:
            sock, _ = self._listener.accept()
        except OSError:  # pragma: no cover - accept race
            return
        sock.setblocking(False)
        self._clients[sock] = FrameBuffer()
        self._selector.register(sock, selectors.EVENT_READ, "client")
        self.clients_served += 1

    def _drop_client(self, sock: socket.socket) -> None:
        try:
            self._selector.unregister(sock)
        except KeyError:
            pass
        self._clients.pop(sock, None)
        self._waiters = [(s, sid) for s, sid in self._waiters if s is not sock]
        sock.close()

    def _on_client_readable(self, sock: socket.socket) -> None:
        try:
            chunk = sock.recv(65536)
        except OSError:
            self._drop_client(sock)
            return
        if not chunk:
            self._drop_client(sock)
            return
        buffer = self._clients[sock]
        buffer.feed(chunk)
        while True:
            try:
                request = buffer.pop()
            except ServeError as exc:
                # Poisoned stream: name the problem, drop the client.
                self.protocol_errors += 1
                self._reply(sock, {"ok": False, "error": str(exc)})
                self._drop_client(sock)
                return
            if request is None:
                return
            reply = self._handle(sock, request)
            if reply is not None:
                if not self._reply(sock, reply):
                    return

    def _reply(self, sock: socket.socket, reply: dict) -> bool:
        try:
            sock.setblocking(True)
            send_frame(sock, reply)
            sock.setblocking(False)
            return True
        except OSError:
            self._drop_client(sock)
            return False

    # ------------------------------------------------------------------
    # request handling

    def _handle(self, sock: socket.socket, request: dict) -> Optional[dict]:
        op = request.get("op")
        if op == "ping":
            return {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "pid": os.getpid(),
                "workers": self.pool.size,
            }
        if op == "submit":
            return self._handle_submit(request)
        if op == "status":
            return self._handle_status(request)
        if op == "wait":
            return self._handle_wait(sock, request)
        if op == "fetch":
            return self._handle_fetch(request)
        if op == "stats":
            return self._handle_stats()
        if op == "shutdown":
            self._stop = True
            return {"ok": True, "stopping": True}
        self.protocol_errors += 1
        return {"ok": False, "error": f"unknown op {op!r}"}

    def _handle_submit(self, request: dict) -> dict:
        payload = request.get("spec")
        if not isinstance(payload, dict):
            return {"ok": False, "error": "submit needs a 'spec' object"}
        try:
            spec = SweepSpec.from_dict(payload)
            jobs = spec.jobs()
        except SweepError as exc:
            return {"ok": False, "error": str(exc)}
        # Cells that fork OS processes are impossible under daemonic
        # pool workers, so they are rejected at submit time.
        forking = forking_transports(spec.transports)
        if forking:
            return {
                "ok": False,
                "error": (
                    f"{'/'.join(forking)} transport cells spawn node "
                    "processes, which the daemon's pool workers may not "
                    "do; run them via 'repro-experiments sweep', or submit "
                    "the grid on the 'virtual' transport, which the daemon "
                    "runs (fault and mobility cells included)"
                ),
            }
        hashes = hashes_for(jobs)
        # Manifest before any cell runs: from this instant a kill at any
        # point leaves a resumable sweep on disk.
        sweep_id = self.store.write_manifest(spec, hashes)
        self.book.register(
            sweep_id, spec.name, hashes, json.loads(spec.to_json())
        )
        tally = {"hit": 0, "dedup": 0, "queued": 0, "done": 0, "failed": 0}
        for digest, job in zip(hashes, jobs):
            tally[self.queue.offer(digest, job)] += 1
        self.pool.pump()
        return {
            "ok": True,
            "sweep": sweep_id,
            "name": spec.name,
            "total": len(hashes),
            "hits": tally["hit"] + tally["done"],
            "deduped": tally["dedup"],
            "queued": tally["queued"],
            "counts": self.book.counts(sweep_id, self.queue),
        }

    def _handle_status(self, request: dict) -> dict:
        sweep_id = request.get("sweep")
        if sweep_id is None:
            listing = [
                {
                    "sweep": sid,
                    "name": self.book[sid].name,
                    "counts": self.book.counts(sid, self.queue),
                }
                for sid in self.book.ids()
            ]
            return {"ok": True, "sweeps": listing}
        if not self.book.known(sweep_id):
            return {"ok": False, "error": f"unknown sweep {sweep_id!r}"}
        return self._status_reply(sweep_id)

    def _status_reply(self, sweep_id: str) -> dict:
        return {
            "ok": True,
            "sweep": sweep_id,
            "name": self.book[sweep_id].name,
            "counts": self.book.counts(sweep_id, self.queue),
            "spec": self.book[sweep_id].spec_payload,
        }

    def _handle_wait(self, sock: socket.socket, request: dict) -> Optional[dict]:
        sweep_id = request.get("sweep")
        if not self.book.known(sweep_id):
            return {"ok": False, "error": f"unknown sweep {sweep_id!r}"}
        if self.book.settled(sweep_id, self.queue):
            return self._status_reply(sweep_id)
        self._waiters.append((sock, sweep_id))
        return None  # deferred: _flush_waiters replies at settle time

    def _flush_waiters(self) -> None:
        still = []
        for sock, sweep_id in self._waiters:
            if self.book.settled(sweep_id, self.queue):
                self._reply(sock, self._status_reply(sweep_id))
            else:
                still.append((sock, sweep_id))
        self._waiters = still

    def _handle_fetch(self, request: dict) -> dict:
        sweep_id = request.get("sweep")
        if not self.book.known(sweep_id):
            return {"ok": False, "error": f"unknown sweep {sweep_id!r}"}
        counts = self.book.counts(sweep_id, self.queue)
        if counts["failed"]:
            errors = counts.get("errors", [])
            summary = errors[0].strip().splitlines()[-1] if errors else "?"
            return {
                "ok": False,
                "error": (
                    f"sweep {sweep_id} has {counts['failed']} failed "
                    f"cell(s); first error: {summary}"
                ),
            }
        if counts["done"] == counts["total"]:
            hashes = self.book[sweep_id].hashes
            results = self.store.results(hashes)
            if results is not None:
                return {
                    "ok": True,
                    "sweep": sweep_id,
                    "name": self.book[sweep_id].name,
                    "spec": self.book[sweep_id].spec_payload,
                    "results": results,
                }
            # An object that exists but does not parse is not a result
            # (the queue's probe at offer time is existence only): run
            # those cells again and have the client wait on them.
            for digest in hashes:
                if self.store.get_hash(digest) is None:
                    self.queue.forget(digest)
            self.pool.pump()
            counts = self.book.counts(sweep_id, self.queue)
        return {
            "ok": False,
            "error": (
                f"sweep {sweep_id} is incomplete "
                f"({counts['done']}/{counts['total']} done); "
                "wait on it before fetching"
            ),
        }

    def _handle_stats(self) -> dict:
        uptime = time.monotonic() - self._started_at
        executed = self.queue.executed
        return {
            "ok": True,
            "executed": executed,
            "failed": self.queue.failed,
            "resumed": self.resumed,
            "skipped_manifests": self.skipped_manifests,
            "hits": self.queue.hits,
            "deduped": self.queue.deduped,
            "sweeps": len(self.book.ids()),
            "queue_depth": self.queue.depth,
            "workers": self.pool.size,
            "uptime_s": uptime,
            "jobs_per_sec": executed / uptime if uptime > 0 else 0.0,
            "clients_served": self.clients_served,
            "protocol_errors": self.protocol_errors,
        }
