"""The ``repro-serve`` daemon: a long-running sweep service.

One process owns a localhost TCP listener, the sweep engine's worker
pool (:class:`~repro.sweep.pool.WorkerPool`, its pipes registered in
this event loop) and a :class:`~repro.sweep.store.ContentStore`.  The
pool runs every cell a grid can name; a worker holding a live ``udp`` /
``router`` cell forks that cell's shards itself.  Clients
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
* A reply is sent within :data:`REPLY_TIMEOUT_S` or its client is
  dropped (and counted as stalled): one client that stops reading
  cannot wedge the event loop every other client shares.

The warm path
-------------
A resubmitted sweep is a read: :class:`SweepBook` already holds its
hashes and manifest bytes (no spec expansion, no re-hashing, no
manifest re-encode), the manifest on disk is rewritten only if it no
longer matches them, and the sweep's tallies come from the queue's
per-sweep counts, not a walk of its cells.  A finished sweep's fetch
reply is spliced from its digest-checked pack
(:mod:`repro.sweep.store`) — one file read, no per-cell parse and no
re-encode, yet byte-identical to encoding the full reply.

Like the live runtime (:mod:`repro.rt`), this package is outside the
deterministic core: it reads wall clocks for uptime/throughput and
socket timeouts.  Determinism is preserved where it matters — the
*metrics* are produced by the same :func:`~repro.sweep.jobs.execute_job`
the in-process runner uses, so a served sweep is bit-identical to
``run_jobs``.
"""

from __future__ import annotations

import os
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.errors import ServeError, SweepError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    FrameBuffer,
    encode_frame,
    splice_frame,
)
from repro.sweep.pool import JobQueue, WorkerPool
from repro.sweep.spec import SweepSpec
from repro.sweep.store import ContentStore, hashes_for, sweep_id_for

__all__ = ["REPLY_TIMEOUT_S", "ServeDaemon", "SweepBook"]

#: Longest one reply may take to send.  A client that stops reading
#: lets the socket buffers fill; past this bound it is dropped instead
#: of blocking the daemon's single event loop.
REPLY_TIMEOUT_S = 2.0


@dataclass
class _SweepEntry:
    name: str
    hashes: tuple[str, ...]
    spec_payload: dict = field(default_factory=dict)
    #: The manifest's bytes as this daemon wrote them; ``None`` for a
    #: sweep resumed from disk until its first resubmission encodes them.
    manifest: Optional[bytes] = None


class SweepBook:
    """Sweep-id -> ordered job hashes; per-sweep progress roll-ups.

    The split from :class:`~repro.sweep.pool.JobQueue` mirrors the
    store's layout (objects vs. manifests): cells are shared, sweeps are
    views over them.  Every cell of a registered sweep is offered to the
    queue, so the queue knows each one's state, and the queue watches
    each sweep, so :meth:`counts` and :meth:`settled` cost one lookup
    however large the sweep.
    """

    def __init__(self) -> None:
        self._sweeps: Dict[str, _SweepEntry] = {}

    def register(
        self,
        sweep_id: str,
        name: str,
        hashes: list[str],
        spec_payload: dict,
        queue: JobQueue,
        manifest: Optional[bytes] = None,
    ) -> None:
        self._sweeps[sweep_id] = _SweepEntry(
            name=name,
            hashes=tuple(hashes),
            spec_payload=dict(spec_payload),
            manifest=manifest,
        )
        queue.watch(sweep_id, hashes)

    def known(self, sweep_id: str) -> bool:
        return sweep_id in self._sweeps

    def ids(self) -> list[str]:
        return sorted(self._sweeps)

    def __getitem__(self, sweep_id: str) -> _SweepEntry:
        return self._sweeps[sweep_id]

    def counts(self, sweep_id: str, queue: JobQueue) -> dict:
        """Queued/running/done/failed tally over the sweep's cells; only
        a sweep with failed cells is walked, to list their errors."""
        entry = self._sweeps[sweep_id]
        tally = queue.tally(sweep_id)
        tally["total"] = len(entry.hashes)
        if tally["failed"]:
            errors = []
            for digest in entry.hashes:
                if queue.state_of(digest) == "failed":
                    error = queue.error_of(digest)
                    if error and error not in errors:
                        errors.append(error)
            if errors:
                tally["errors"] = errors
        return tally

    def settled(self, sweep_id: str, queue: JobQueue) -> bool:
        """No cell still queued or running (done or failed throughout)."""
        return queue.unsettled(sweep_id) == 0


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
        if not 0 <= port <= 65535:
            # bind() would raise a bare OverflowError, after the fork.
            raise ServeError(f"--port must be in 0-65535, got {port}")
        self.store = ContentStore(store_dir)
        self.queue = JobQueue(self.store)
        self.book = SweepBook()
        self.n_workers = workers
        self.host = host
        self.port = port
        self.resumed = 0
        #: Manifests found in the store that do not read or whose spec
        #: no longer parses — their sweeps will not resume; surfaced by
        #: the ``stats`` op.
        self.skipped_manifests = 0
        self.clients_served = 0
        #: Clients dropped because a reply to them outlasted
        #: :data:`REPLY_TIMEOUT_S`.
        self.stalled_clients = 0
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
            if manifest is None:  # torn, empty, not UTF-8 JSON
                self.skipped_manifests += 1
                continue
            try:
                sweep_id, payload = manifest["sweep"], manifest["spec"]
                spec = SweepSpec.from_dict(payload)
                jobs = spec.jobs()
            except (KeyError, SweepError):
                self.skipped_manifests += 1
                continue
            hashes = hashes_for(jobs)
            self.book.register(sweep_id, spec.name, hashes, payload, self.queue)
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

    def _reply(self, sock: socket.socket, reply: dict | bytes) -> bool:
        """Send a record, or a frame already spliced, within
        :data:`REPLY_TIMEOUT_S`; a client that fails it is dropped."""
        frame = reply if isinstance(reply, bytes) else encode_frame(reply)
        try:
            sock.settimeout(REPLY_TIMEOUT_S)
            sock.sendall(frame)
            sock.setblocking(False)
            return True
        except socket.timeout:
            self.stalled_clients += 1
            self._drop_client(sock)
            return False
        except OSError:
            self._drop_client(sock)
            return False

    # ------------------------------------------------------------------
    # request handling

    def _handle(
        self, sock: socket.socket, request: dict
    ) -> Optional[dict | bytes]:
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
        except SweepError as exc:
            return {"ok": False, "error": str(exc)}
        sweep_id = sweep_id_for(spec)
        tally = {"hit": 0, "dedup": 0, "queued": 0, "done": 0, "failed": 0}
        if self.book.known(sweep_id):
            # Resubmission: every cell was offered when the sweep was
            # registered, so the queue's tally of the sweep is its
            # dispositions.
            entry = self.book[sweep_id]
            hashes = entry.hashes
            # Read back, rewritten only if deleted or damaged.
            if entry.manifest is None:
                entry.manifest = self.store.write_manifest(spec, hashes)
            else:
                self.store.heal_manifest(sweep_id, entry.manifest)
            tally.update(self.queue.revisit_group(sweep_id))
        else:
            try:
                jobs = spec.jobs()
            except SweepError as exc:
                return {"ok": False, "error": str(exc)}
            hashes = hashes_for(jobs)
            # Manifest before any cell runs: from this instant a kill at
            # any point leaves a resumable sweep on disk.
            manifest = self.store.write_manifest(spec, hashes)
            self.book.register(
                sweep_id, spec.name, hashes, spec.payload(), self.queue, manifest
            )
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

    def _handle_fetch(self, request: dict) -> dict | bytes:
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
            frame = self._results_frame(sweep_id)
            if frame is not None:
                return frame
            counts = self.book.counts(sweep_id, self.queue)
        return {
            "ok": False,
            "error": (
                f"sweep {sweep_id} is incomplete "
                f"({counts['done']}/{counts['total']} done); "
                "wait on it before fetching"
            ),
        }

    def _results_frame(self, sweep_id: str) -> Optional[bytes]:
        """The fetch reply of a done sweep, spliced from its pack.

        A missing or damaged pack is rewritten from the objects.  An
        object that exists but does not parse is not a result (the
        queue's probe at offer time is existence only): those cells run
        again, and ``None`` tells the client to wait on them.
        """
        entry = self.book[sweep_id]
        body = self.store.read_pack(sweep_id, entry.hashes)
        if body is None:
            results, missing = self.store.gather(entry.hashes)
            if missing:
                for digest in missing:
                    self.queue.forget(digest)
                self.pool.pump()
                return None
            body = self.store.write_pack(sweep_id, entry.hashes, results)
        head = {
            "ok": True,
            "sweep": sweep_id,
            "name": entry.name,
            "spec": entry.spec_payload,
        }
        return splice_frame(head, "results", body)

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
            "stalled_clients": self.stalled_clients,
        }
