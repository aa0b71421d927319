"""repro.serve — sweep-as-a-service: a daemon, a store, a client.

Everything else in :mod:`repro.sweep` is one-shot: expand a grid, fan
it over a pool, print tables, exit.  This package keeps the pool warm.
A :class:`ServeDaemon` listens on a localhost socket (the same
length-prefixed JSON frames as the live runtime, :mod:`repro.wire` — see
:mod:`repro.serve.protocol`), accepts :class:`~repro.sweep.spec.SweepSpec`
submissions from many concurrent clients, and drains them through a
deduplicating :class:`~repro.serve.jobqueue.JobQueue` onto forked
workers.  Results land in a :class:`ContentStore` — a content-addressed
generalization of :class:`~repro.sweep.runner.ResultCache` with a
manifest per sweep — so overlapping submissions execute each distinct
cell once, and a killed daemon restarted against the same store resumes
partial sweeps re-executing only the missing cells.

The metrics themselves come from the same
:func:`~repro.sweep.jobs.execute_job` the in-process runner calls, so a
served sweep is bit-identical to ``run_jobs`` — the differential
contract ``tests/test_serve.py`` enforces with concurrent clients and a
mid-sweep SIGKILL.

Entry points: ``repro-serve`` (console script, :mod:`repro.serve.cli`),
the ``serve`` verb of ``python -m repro.experiments``, and
:class:`ServeClient` in code.
"""

from repro.serve.client import ServeClient, endpoint_from_store
from repro.serve.daemon import ServeDaemon
from repro.serve.jobqueue import JobQueue, SweepBook
from repro.serve.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameBuffer,
    recv_frame,
    send_frame,
)
from repro.serve.store import ContentStore, sweep_id_for

__all__ = [
    "ContentStore",
    "FrameBuffer",
    "JobQueue",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeDaemon",
    "SweepBook",
    "endpoint_from_store",
    "recv_frame",
    "send_frame",
    "sweep_id_for",
]
