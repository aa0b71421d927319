"""The one sweep executor: a dedup queue drained onto forked pipe workers.

``run_jobs`` and the ``repro-serve`` daemon schedule the same work —
:class:`~repro.sweep.jobs.Job` → :func:`~repro.sweep.jobs.execute_job`
→ ``<sha256>.json`` — so they share one :class:`JobQueue` and one
:class:`WorkerPool`; ``run_jobs`` drives the pool until its jobs settle,
the daemon registers the pool's pipes in its own event loop.

Dedup happens at :meth:`JobQueue.offer` time, in three tiers —

1. the store already holds the object (a cache *hit*: a prior sweep, a
   prior daemon lifetime, a ``run_jobs`` over the same directory),
2. the hash is already tracked in-memory (*dedup*: another sweep this
   lifetime queued it, or it is running right now),
3. otherwise it is new and joins the ready deque.

So N clients submitting overlapping grids execute each overlapping
cell exactly once (``tests/test_serve.py`` counts ``executed``).

Crash safety: workers only compute, the parent alone writes to the
store.  A worker that dies mid-cell is noticed as EOF on its pipe: the
cell is requeued, the slot respawned, and after :data:`MAX_ATTEMPTS` the
cell fails by name instead of crash-looping the pool — nothing ever
waits on a dead process (and no worker outlives a dead parent, see
:func:`_worker_main`).  Needs the ``fork`` start method: the pipes and
the populated job-kind registry are inherited.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import SweepError
from repro.sweep.jobs import Job, execute_job
from repro.sweep.store import ContentStore

__all__ = ["JobQueue", "WorkerPool", "MAX_ATTEMPTS", "usable_cpus"]

#: A job whose worker died gets requeued this many times total before
#: the queue marks it failed instead of crash-looping the pool.
MAX_ATTEMPTS = 2

#: Total worker respawns tolerated before the pool stops replacing
#: crashed workers (a crash-looping job kind should fail its cells, not
#: spin the machine).
_RESPAWN_BUDGET = 8


#: The states a cell does not leave on its own.
_SETTLED = ("done", "failed")


def usable_cpus() -> int:
    """The CPUs this process may run on: the size of its affinity mask
    (what ``taskset`` or a container's cpuset leaves it), or the
    machine's count where the OS keeps no mask.  Auto worker counts
    read this, so a pinned process does not oversubscribe its CPUs."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - no affinity API (macOS)
        return os.cpu_count() or 1


@dataclass
class _Tracked:
    job: Job
    state: str = "queued"  # queued | running | done | failed
    error: Optional[str] = None
    attempts: int = 0


class JobQueue:
    """Hash-keyed dedup queue over an optional :class:`ContentStore`.

    A group of cells (a daemon sweep) can be :meth:`watch`-ed: every
    state change keeps the group's tally of cells per state, so a
    group's counts, whether it has settled, and a resubmission's
    dispositions are each one lookup, not a walk of its cells.
    """

    def __init__(self, store: Optional[ContentStore] = None):
        self.store = store
        self._tracked: Dict[str, _Tracked] = {}
        self._ready: deque[str] = deque()
        #: hash -> the watched groups holding it (once per occurrence).
        self._groups_of: Dict[str, list[str]] = {}
        #: group -> state -> its cells in that state.
        self._tallies: Dict[str, Dict[str, int]] = {}
        self.executed = 0
        self.failed = 0
        self.hits = 0
        self.deduped = 0

    # -- intake ---------------------------------------------------------

    def offer(self, digest: str, job: Job) -> str:
        """Admit one cell; returns its disposition: ``"hit"``, ``"dedup"``,
        ``"queued"`` (the three tiers above) or ``"done"`` / ``"failed"``
        (already settled this lifetime).

        The store probe is existence only (parsing every object of a
        warm grid per submission would double its cost); a caller that
        then finds an object unreadable says so with :meth:`forget`.
        """
        known = self.revisit(digest)
        if known is not None:
            return known
        self._tracked[digest] = _Tracked(job=job)
        if self.store is not None and self.store.has_hash(digest):
            self.hits += 1
            self._move(digest, "done")
            return "hit"
        self._ready.append(digest)
        return "queued"

    def revisit(self, digest: str) -> Optional[str]:
        """:meth:`offer`'s rule for a cell this queue already tracks —
        ``"done"`` / ``"failed"`` if settled, else ``"dedup"`` (counted) —
        or ``None`` for one it has never seen.  Needs no :class:`Job`, so
        a resubmitted sweep is tallied without expanding its spec."""
        tracked = self._tracked.get(digest)
        if tracked is None:
            return None
        if tracked.state in _SETTLED:
            return tracked.state
        self.deduped += 1
        return "dedup"

    def forget(self, digest: str) -> None:
        """A done cell's object did not parse, so it is not a result:
        queue the cell again; its re-execution overwrites the object."""
        if self._tracked[digest].state == "done":
            self._move(digest, "queued").attempts = 0
            self._ready.append(digest)

    # -- dispatch -------------------------------------------------------

    def next_ready(self) -> Optional[tuple[str, Job]]:
        if not self._ready:
            return None
        digest = self._ready.popleft()
        tracked = self._move(digest, "running")
        tracked.attempts += 1
        return digest, tracked.job

    def mark_done(self, digest: str, metrics: dict) -> None:
        """Persist the object, then flip the state — store first, so a
        kill between the two can only lose bookkeeping, never results."""
        if self.store is not None:
            self.store.put_hash(digest, metrics)
        self._move(digest, "done")
        self.executed += 1

    def mark_failed(self, digest: str, error: str) -> None:
        self._move(digest, "failed").error = error
        self.failed += 1

    def requeue(self, digest: str, *, reason: str) -> None:
        """A worker died holding this job; retry or give up."""
        attempts = self._tracked[digest].attempts
        if attempts >= MAX_ATTEMPTS:
            self.mark_failed(digest, f"{reason} ({attempts} attempts)")
            return
        self._move(digest, "queued")
        self._ready.appendleft(digest)

    def _move(self, digest: str, state: str) -> _Tracked:
        """Set a cell's state, keeping each watching group's tally: the
        one place a state changes."""
        tracked = self._tracked[digest]
        if state != tracked.state:
            for group in self._groups_of.get(digest, ()):
                tally = self._tallies[group]
                tally[tracked.state] -= 1
                tally[state] += 1
        tracked.state = state
        return tracked

    # -- groups ---------------------------------------------------------

    def watch(self, group: str, digests) -> None:
        """Tally ``group``'s cells by state from now on, once per
        occurrence (a cell not yet offered counts as queued, the state
        :meth:`offer` admits it in)."""
        tally = dict.fromkeys(("queued", "running", "done", "failed"), 0)
        for digest in digests:
            self._groups_of.setdefault(digest, []).append(group)
            tracked = self._tracked.get(digest)
            tally["queued" if tracked is None else tracked.state] += 1
        self._tallies[group] = tally

    def tally(self, group: str) -> dict:
        """A watched group's cells per state: ``queued`` / ``running`` /
        ``done`` / ``failed`` counts."""
        return dict(self._tallies[group])

    def unsettled(self, group: str) -> int:
        """How many of a watched group's cells are not done or failed."""
        tally = self._tallies[group]
        return tally["queued"] + tally["running"]

    def revisit_group(self, group: str) -> dict:
        """:meth:`revisit` for every cell of a watched group whose cells
        were all offered: its ``done`` / ``failed`` / ``dedup``
        dispositions from the tally, the unsettled cells counted as
        dedups."""
        tally = self._tallies[group]
        dedup = self.unsettled(group)
        self.deduped += dedup
        return {"done": tally["done"], "failed": tally["failed"], "dedup": dedup}

    # -- queries --------------------------------------------------------

    def state_of(self, digest: str) -> Optional[str]:
        tracked = self._tracked.get(digest)
        return None if tracked is None else tracked.state

    def error_of(self, digest: str) -> Optional[str]:
        return self._tracked[digest].error

    @property
    def depth(self) -> int:
        return len(self._ready)


def _worker_main(conn, inherited) -> None:
    """One pool worker: recv task, execute, send result, repeat.

    A task is ``(hash, job)``; the result echoes the hash with either
    ``metrics`` + ``elapsed`` or a formatted ``error``.  ``None`` (or a
    closed pipe — the parent died) ends the loop; the worker never opens
    the store.

    ``inherited`` is everything of the parent's that the fork copied
    into this process: the parent ends of the pool's pipes (this
    worker's own and every earlier worker's) and whatever else shares
    the pool's selector (a respawned daemon worker: the listener and the
    connected clients).  They are closed first: while any copy stays
    open the kernel never reports EOF on the other end, and a SIGKILLed
    parent would leave its workers blocked in ``recv`` forever, its port
    accepting and its clients waiting on a busy worker.

    The pool forks workers daemonic, so the parent's exit cleanup still
    reaps an unclosed pool; each worker clears the flag in itself, so a
    cell may fork processes of its own (a live ``udp`` / ``router``
    cell's shards).  Those children close their copy of ``conn`` at
    once: a killed worker reads as EOF while its shards still run.
    """
    multiprocessing.current_process().daemon = False
    os.register_at_fork(after_in_child=conn.close)
    for parent_handle in inherited:
        parent_handle.close()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        digest, job = task
        try:
            outcome = execute_job(job)
            reply = {"hash": digest, "metrics": outcome.metrics,
                     "elapsed": outcome.elapsed}
        except Exception:
            reply = {"hash": digest, "error": traceback.format_exc()}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class WorkerPool:
    """Forked workers, one pipe each, draining one :class:`JobQueue`.

    The pool registers each worker's pipe in ``selector`` with data
    ``("worker", slot)``; whoever owns the selector's loop calls
    :meth:`on_readable` with the slot when one fires.  ``run_jobs`` lets
    :meth:`drain` be that loop; the daemon multiplexes the pipes with
    its listener and client sockets — everything registered in the
    selector is what a (re)spawned worker closes its copies of.
    """

    def __init__(
        self, queue: JobQueue, workers: int, selector: selectors.BaseSelector
    ):
        if workers < 1:
            # A pool of none would accept every job and run none of them.
            raise SweepError(f"--workers must be >= 1, got {workers}")
        self.queue = queue
        self._selector = selector
        self._ctx = multiprocessing.get_context("fork")
        self._children: dict[int, multiprocessing.Process] = {}
        self._conns: dict[int, object] = {}
        self._busy: dict[int, Optional[str]] = {}
        self._respawns = 0
        for worker in range(workers):
            self._spawn(worker)

    @property
    def size(self) -> int:
        """Live worker slots (shrinks once the respawn budget is spent)."""
        return len(self._children)

    def _spawn(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        registered = self._selector.get_map().values()
        inherited = [parent_conn, *(key.fileobj for key in registered)]
        child = self._ctx.Process(
            target=_worker_main, args=(child_conn, inherited), daemon=True
        )
        child.start()
        child_conn.close()
        self._children[worker] = child
        self._conns[worker] = parent_conn
        self._busy[worker] = None
        self._selector.register(
            parent_conn, selectors.EVENT_READ, ("worker", worker)
        )

    def _release(self, conn) -> None:
        try:
            self._selector.unregister(conn)
        except KeyError:
            pass
        conn.close()

    def close(self) -> None:
        """Ask every worker to exit, reap them, release the pipes."""
        for conn in self._conns.values():
            try:
                conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for child in self._children.values():
            child.join(timeout=5.0)
            if child.is_alive():  # pragma: no cover - wedged worker
                child.terminate()
        for conn in self._conns.values():
            self._release(conn)
        self._children.clear()
        self._conns.clear()
        self._busy.clear()

    def pump(self) -> None:
        """Hand ready jobs to idle workers."""
        for worker, digest in self._busy.items():
            if digest is not None:
                continue
            item = self.queue.next_ready()
            if item is None:
                return
            digest, job = item
            self._busy[worker] = digest
            try:
                self._conns[worker].send((digest, job))
            except (BrokenPipeError, OSError):
                # Death noticed at dispatch time; the readable-EOF path
                # will requeue and respawn.
                self.queue.requeue(digest, reason="worker pipe closed")
                self._busy[worker] = None

    def on_readable(self, worker: int) -> Optional[dict]:
        """One pipe event: settle the finished cell, or bury the worker.

        Returns the worker's result record, ``None`` if it died instead.
        """
        try:
            result = self._conns[worker].recv()
        except (EOFError, OSError):
            self._on_death(worker)
            return None
        digest = result["hash"]
        if "error" in result:
            self.queue.mark_failed(digest, result["error"])
        else:
            self.queue.mark_done(digest, result["metrics"])
        self._busy[worker] = None
        self.pump()
        return result

    def _on_death(self, worker: int) -> None:
        """A worker died mid-job: requeue its cell, respawn the slot."""
        digest = self._busy.pop(worker)
        conn = self._conns.pop(worker)
        child = self._children.pop(worker)
        self._release(conn)
        # EOF can beat the zombie by a moment: poll for the exit code, up
        # to about a second.  Not ``join``: it waits on the worker's
        # sentinel, which shards the worker forked hold open until their
        # own run ends.
        for _ in range(1000):
            if child.exitcode is not None:
                break
            time.sleep(0.001)
        if digest is not None:
            self.queue.requeue(
                digest, reason=f"worker died (exit code {child.exitcode})"
            )
        if self._respawns < _RESPAWN_BUDGET:
            self._respawns += 1
            self._spawn(worker)
            self.pump()
        elif not self._children:
            # Pool exhausted: fail everything still queued, promptly.
            while (item := self.queue.next_ready()) is not None:
                self.queue.mark_failed(
                    item[0], "no workers left (respawn budget exhausted)"
                )

    def drain(self) -> Iterator[dict]:
        """Drive the pool until nothing is queued or running.

        Yields each finished cell's result record as it lands.  Only for
        a selector that holds nothing but this pool's pipes.
        """
        self.pump()
        while self.queue.depth or any(self._busy.values()):
            for key, _ in self._selector.select():
                result = self.on_readable(key.data[1])
                if result is not None:
                    yield result
