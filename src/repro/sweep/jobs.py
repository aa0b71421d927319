"""Sweep jobs: declarative, picklable, hashable units of simulation work.

A :class:`Job` is a *kind* name plus a JSON-able params dict.  Kinds are
registered with :func:`job_kind`; each registration remembers the
defining module so a worker process (even under the ``spawn`` start
method, which inherits nothing) can import that module and find the
function again.  The job's :func:`job_hash` is a SHA-256 over the
canonical JSON of ``(kind, params, CACHE_VERSION)`` — the on-disk cache
key and the source of per-job deterministic seeding.

The built-in ``benign-run`` kind simulates one
:class:`~repro.sweep.scenario.Scenario` cell and returns the
skew/convergence metrics every comparative table is built from.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping

from repro.errors import SweepError
from repro.sweep.scenario import Scenario, cell_metrics

__all__ = [
    "CACHE_VERSION",
    "Job",
    "JobOutcome",
    "job_kind",
    "resolve_job_kind",
    "job_hash",
    "execute_job",
]

#: Bump when a job kind's semantics change, to invalidate stale caches.
#: v5: benign-run grows the mobility axis (params + metrics carry
#: ``mobility``; dynamic cells also report ``rewirings``).
#: v6: live-run grows the churn axes (params carry ``faults`` +
#: ``mobility``; metrics add ``frames_dropped``, ``rewirings``, and real
#: ``fault_events``) and the udp/router timebase moved to a ready
#: barrier, which shifts wall-clock jitter enough to invalidate rows.
#: v7: live-run metrics add the transport counters sweep reports chart
#: (``frames_routed``, ``events``, ``workers``); cached v6 rows lack
#: them, so they must be re-run.
#: v8: live churn cells report the simulator's ``messages`` / ``fault_events``.
CACHE_VERSION = 8

#: kind name -> (callable, defining module name)
_JOB_KINDS: Dict[str, tuple[Callable[[Mapping[str, Any]], dict], str]] = {}


def job_kind(name: str):
    """Decorator: register ``fn(params) -> metrics dict`` as a job kind."""

    def register(fn: Callable[[Mapping[str, Any]], dict]):
        _JOB_KINDS[name] = (fn, fn.__module__)
        return fn

    return register


def resolve_job_kind(name: str, module: str | None = None):
    """Look up a kind, importing its defining module if necessary.

    ``module`` is carried alongside jobs into worker processes so kinds
    registered outside :mod:`repro.sweep` (e.g. by an experiment module)
    resolve even when the worker never imported that module.
    """
    if name not in _JOB_KINDS and module:
        importlib.import_module(module)
    if name not in _JOB_KINDS:
        raise SweepError(f"unknown job kind {name!r}; have {sorted(_JOB_KINDS)}")
    return _JOB_KINDS[name][0]


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: a registered kind plus its parameters."""

    kind: str
    params: Mapping[str, Any]
    module: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.module and self.kind in _JOB_KINDS:
            object.__setattr__(self, "module", _JOB_KINDS[self.kind][1])

    def canonical(self) -> str:
        """Canonical JSON used for hashing and cache keys."""
        return json.dumps(
            {"kind": self.kind, "params": dict(self.params), "v": CACHE_VERSION},
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class JobOutcome:
    """What running (or recalling) one job produced."""

    job: Job
    metrics: dict
    elapsed: float
    cached: bool = False


def job_hash(job: Job) -> str:
    """Stable content hash of a job — the cache key."""
    return hashlib.sha256(job.canonical().encode()).hexdigest()


def execute_job(job: Job) -> JobOutcome:
    """Run one job in the current process and time it."""
    fn = resolve_job_kind(job.kind, job.module)
    # Wall-clock stopwatch for the `elapsed` metadata field only: it is
    # not a metric, never enters the cache key, and cannot perturb the
    # deterministic (spec, seed) -> metrics contract.
    start = time.perf_counter()  # repro: allow[DET001] elapsed metadata
    metrics = fn(job.params)
    elapsed = time.perf_counter() - start  # repro: allow[DET001] elapsed metadata
    return JobOutcome(job=job, metrics=metrics, elapsed=elapsed)


# ----------------------------------------------------------------------
# the built-in benign scenario kind


@job_kind("benign-run")
def benign_run(params: Mapping[str, Any]) -> dict:
    """One scenario cell -> skew and convergence metrics.

    Params: the nine :class:`~repro.sweep.scenario.Scenario` fields,
    plus optional ``step`` (metric sample step), ``settle_threshold``
    and ``trace_digest`` (record the trace and include a SHA-256 of it —
    the determinism-contract probe).
    """
    scenario = Scenario.from_params(params)
    digest = bool(params.get("trace_digest", False))
    execution = scenario.simulate(record_trace=digest)
    metrics = cell_metrics(
        scenario,
        execution,
        transport="sim",
        step=float(params.get("step", 1.0)),
        settle_threshold=params.get("settle_threshold"),
    )
    if digest:
        # Single-sourced canonical digest (same bytes the old inline
        # repr-join hashed), shared with the loop equivalence harness.
        metrics["trace_sha256"] = execution.trace.digest()
    return metrics
