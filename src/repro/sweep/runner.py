"""Fan sweep jobs across a worker pool, with on-disk result caching.

Determinism contract
--------------------
``run_jobs`` returns outcomes in *job order*, each produced by a job
function whose only randomness comes from the seeds inside its own
params.  Workers share nothing, so the metrics are bit-identical at any
worker count — 1, 2, or 32 — and identical again when recalled from
cache.  Only the ``elapsed``/``cached`` bookkeeping fields may differ
between runs.

Caching
-------
A :class:`ResultCache` directory holds one ``<sha256>.json`` per
completed job, keyed by :func:`repro.sweep.jobs.job_hash` (which folds
in ``CACHE_VERSION``).  Cache probes happen in the parent before the
pool spins up, so a fully warm sweep never forks at all.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.errors import SweepError
from repro.sweep.jobs import Job, JobOutcome, execute_job, job_hash

__all__ = ["ResultCache", "run_jobs"]


class ResultCache:
    """A directory of per-job metric files, keyed by job content hash.

    The hash-keyed half of the API (``path_for`` / ``has_hash`` /
    ``get_hash`` / ``put_hash``) is the content-addressed core that
    :class:`repro.serve.store.ContentStore` generalizes with per-sweep
    manifests; the :class:`Job`-keyed half is the convenience layer
    ``run_jobs`` uses.  Writes are atomic (unique temp file + rename),
    so concurrent writers — pool workers, a serve daemon, a killed run
    restarting — can only ever race to install identical bytes.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def has_hash(self, digest: str) -> bool:
        """Existence probe; never touches the hit/miss counters."""
        return self.path_for(digest).exists()

    def get_hash(self, digest: str) -> Optional[dict]:
        path = self.path_for(digest)
        if not path.exists():
            self.misses += 1
            return None
        try:
            metrics = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            # A torn write from a killed run; treat as a miss and rewrite.
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put_hash(self, digest: str, metrics: dict) -> None:
        path = self.path_for(digest)
        # Per-process temp name: concurrent writers of the same object
        # (identical content by construction) never clobber mid-rename.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(metrics, sort_keys=True))
        tmp.replace(path)

    def get(self, job: Job) -> Optional[dict]:
        return self.get_hash(job_hash(job))

    def put(self, job: Job, metrics: dict) -> None:
        self.put_hash(job_hash(job), metrics)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))


def _execute_indexed(task: tuple[int, Job]) -> tuple[int, JobOutcome]:
    index, job = task
    return index, execute_job(job)


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    progress: Optional[Callable[[int, int, JobOutcome], None]] = None,
) -> list[JobOutcome]:
    """Run ``jobs`` and return their outcomes, in job order.

    ``workers=1`` runs serially in-process; ``workers>1`` fans uncached
    jobs across a ``multiprocessing`` pool.  ``progress(done, total,
    outcome)`` is called in the parent as each outcome lands.
    """
    if workers < 1:
        raise SweepError(f"workers must be >= 1, got {workers}")
    total = len(jobs)
    outcomes: list[Optional[JobOutcome]] = [None] * total
    pending: list[tuple[int, Job]] = []
    done = 0

    for index, job in enumerate(jobs):
        metrics = cache.get(job) if cache is not None else None
        if metrics is not None:
            outcome = JobOutcome(job=job, metrics=metrics, elapsed=0.0, cached=True)
            outcomes[index] = outcome
            done += 1
            if progress:
                progress(done, total, outcome)
        else:
            pending.append((index, job))

    def land(index: int, outcome: JobOutcome) -> None:
        nonlocal done
        outcomes[index] = outcome
        if cache is not None:
            cache.put(outcome.job, outcome.metrics)
        done += 1
        if progress:
            progress(done, total, outcome)

    if pending:
        if workers == 1:
            for index, job in pending:
                land(index, execute_job(job))
        else:
            # fork keeps registries populated by already-imported modules
            # (e.g. experiment-defined job kinds) visible in workers; the
            # job's ``module`` field covers spawn-only platforms.
            method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
            ctx = multiprocessing.get_context(method)
            with ctx.Pool(processes=min(workers, len(pending))) as pool:
                for index, outcome in pool.imap_unordered(
                    _execute_indexed, pending, chunksize=1
                ):
                    land(index, outcome)

    missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
    if missing:  # pragma: no cover - every landing path above fills its slot
        raise SweepError(f"jobs {missing} produced no outcome")
    return outcomes  # type: ignore[return-value]
