"""Run sweep jobs — in-process or across the worker pool — over a store.

Determinism contract
--------------------
``run_jobs`` returns outcomes in *job order*, each produced by a job
function whose only randomness comes from the seeds inside its own
params.  Workers share nothing, so the metrics are bit-identical at any
worker count — 1, 2, or 32 — and identical again when recalled from
the store.  Only the ``elapsed``/``cached`` bookkeeping fields may
differ between runs.

One back end
------------
``run_jobs`` is the second caller of the executor the ``repro-serve``
daemon runs on (:mod:`repro.sweep.pool`): every job not already in the
:class:`~repro.sweep.store.ContentStore` is offered to a ``JobQueue``
(deduped by content hash, so a job given twice runs once), which a
``WorkerPool`` drains — or, at ``workers=1``, a loop in the calling
process that never forks.  Store probes happen in the parent before any
pool exists, so a fully warm sweep forks nothing.  Every cell is the
same to the pool: a live ``udp`` / ``router`` cell forks its shards from
whichever worker runs it.
"""

from __future__ import annotations

import selectors
from typing import Callable, Optional, Sequence

from repro.errors import SweepError
from repro.sweep.jobs import Job, JobOutcome, execute_job, job_hash
from repro.sweep.pool import JobQueue, WorkerPool
from repro.sweep.store import ContentStore

__all__ = ["run_jobs"]


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: Optional[ContentStore] = None,
    progress: Optional[Callable[[int, int, JobOutcome], None]] = None,
) -> list[JobOutcome]:
    """Run ``jobs`` and return their outcomes, in job order.

    ``workers=1`` runs serially in-process, where a job that raises
    raises here; ``workers>1`` fans the jobs not in ``cache`` across
    forked workers and, once every other cell has settled (and been
    stored), raises a :class:`SweepError` naming the first cell whose
    job raised or whose worker kept dying.  ``progress(done, total,
    outcome)`` is called in the parent as each outcome lands.
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    total = len(jobs)
    outcomes: list[Optional[JobOutcome]] = [None] * total
    done = 0

    def land(index: int, metrics: dict, elapsed: float, cached: bool = False):
        nonlocal done
        outcomes[index] = outcome = JobOutcome(
            job=jobs[index], metrics=metrics, elapsed=elapsed, cached=cached
        )
        done += 1
        if progress:
            progress(done, total, outcome)

    queue = JobQueue(cache)
    waiting: dict[str, list[int]] = {}  # hash -> the job slots it fills

    for index, job in enumerate(jobs):
        digest = job_hash(job)
        metrics = cache.get_hash(digest) if cache is not None else None
        if metrics is not None:
            land(index, metrics, 0.0, cached=True)
            continue
        waiting.setdefault(digest, []).append(index)
        if queue.offer(digest, job) == "hit":
            # Present but unreadable (the parse probe just missed).
            queue.forget(digest)

    if workers > 1 and queue.depth:
        selector = selectors.DefaultSelector()
        pool = WorkerPool(queue, min(workers, queue.depth), selector)
        try:
            for result in pool.drain():
                if "metrics" in result:
                    for index in waiting.pop(result["hash"]):
                        land(index, result["metrics"], result["elapsed"])
        finally:
            pool.close()
            selector.close()
        failed = [d for d in waiting if queue.state_of(d) == "failed"]
        if failed:
            raise SweepError(
                f"{len(failed)} of {total} job(s) failed; job {failed[0]}: "
                f"{queue.error_of(failed[0])}"
            )

    while (item := queue.next_ready()) is not None:
        digest, job = item
        outcome = execute_job(job)
        queue.mark_done(digest, outcome.metrics)
        for index in waiting.pop(digest):
            land(index, outcome.metrics, outcome.elapsed)
    return outcomes  # type: ignore[return-value]
