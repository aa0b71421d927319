"""repro.serve — sweep-as-a-service: a daemon, a store, a client.

Everything else in :mod:`repro.sweep` is one-shot: expand a grid, fan
it over a pool, print tables, exit.  This package keeps the pool warm.
A :class:`ServeDaemon` listens on a localhost socket (the same
length-prefixed JSON frames as the live runtime, :mod:`repro.wire` — see
:mod:`repro.serve.protocol`), accepts :class:`~repro.sweep.spec.SweepSpec`
submissions from many concurrent clients, and drains them through the
sweep engine's own back end: the deduplicating
:class:`~repro.sweep.pool.JobQueue`, the forked
:class:`~repro.sweep.pool.WorkerPool` and the
:class:`~repro.sweep.store.ContentStore` that ``run_jobs`` uses too
(re-exported here).  Overlapping submissions execute each distinct cell
once, and a killed daemon restarted against the same store — or a
``run_jobs`` pointed at it — resumes partial sweeps re-executing only
the missing cells.

What is the daemon's own is the listener, the protocol ops, the
per-sweep :class:`SweepBook` and the blocked ``wait`` replies.  The
metrics come from the same :func:`~repro.sweep.jobs.execute_job` on the
same pool, so a served sweep is bit-identical to ``run_jobs`` — the
differential contract ``tests/test_serve.py`` enforces with concurrent
clients and a mid-sweep SIGKILL.

Entry points: ``repro-serve`` (console script, :mod:`repro.serve.cli`),
the ``serve`` verb of ``python -m repro.experiments``, and
:class:`ServeClient` in code.
"""

from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon, SweepBook
from repro.serve.protocol import (
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameBuffer,
    recv_frame,
    send_frame,
)
from repro.sweep.store import ContentStore, sweep_id_for

__all__ = [
    "ContentStore",
    "FrameBuffer",
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "ServeClient",
    "ServeDaemon",
    "SweepBook",
    "recv_frame",
    "send_frame",
    "sweep_id_for",
]
