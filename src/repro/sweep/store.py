"""The content-addressed result store: job objects plus sweep manifests.

One :class:`ContentStore` directory serves both callers of the sweep
back end: ``run_jobs(cache=...)`` / ``sweep --cache-dir`` use the object
half, the ``repro-serve`` daemon adds a manifest per submitted sweep and
an endpoint advert while it runs.  A cache dir *is* a serve store:
either side resumes the other's half-finished sweep, re-executing only
the cells with no object yet.

Objects are keyed by :func:`repro.sweep.jobs.job_hash` (which folds in
``CACHE_VERSION``), so overlapping sweeps dedup at the cell level for
free.  A manifest records the spec a client submitted plus the full
ordered list of its job hashes, so the store alone answers "which cells
of this sweep exist yet?" — the whole resume story.  Every write is
atomic (unique temp file + rename), so concurrent writers — a serve
daemon, a second ``run_jobs``, a killed run restarting — can only ever
race to install identical bytes.

Layout under the store root::

    objects/<job_hash>.json   one metrics dict per completed job
    sweeps/<sweep_id>.json    manifest: spec + ordered job hashes
    serve.json                daemon endpoint advert (while one runs)
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Iterator, Optional

from repro.sweep.jobs import CACHE_VERSION, Job, job_hash
from repro.sweep.spec import SweepSpec

__all__ = ["ContentStore", "hashes_for", "sweep_id_for"]

def sweep_id_for(spec: SweepSpec) -> str:
    """Stable id of a sweep: content hash of its spec.

    Folds in ``CACHE_VERSION`` the same way :func:`job_hash` does, so a
    version bump retires manifests together with the objects they index.
    Two clients submitting equal specs get the same id — and therefore
    the same manifest, status, and results.
    """
    canonical = json.dumps(
        {"spec": json.loads(spec.to_json()), "v": CACHE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def hashes_for(jobs) -> list[str]:
    """Job hashes in job order — the manifest's ``jobs`` field."""
    return [job_hash(job) for job in jobs]


def _write_atomic(path: Path, text: str) -> None:
    # Per-process temp name: concurrent writers of the same file
    # (identical content by construction) never clobber mid-rename, and
    # a writer killed mid-write leaves a ``.tmp`` orphan, never a torn
    # file a reader would trust.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text)
    tmp.replace(path)


class ContentStore:
    """A directory of per-job metric objects, sweep manifests, an advert."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.directory = self.root / "objects"
        self.sweep_dir = self.root / "sweeps"
        self.directory.mkdir(parents=True, exist_ok=True)
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # -- objects --------------------------------------------------------

    def path_for(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def has_hash(self, digest: str) -> bool:
        """Existence probe; never touches the hit/miss counters."""
        return self.path_for(digest).exists()

    def get_hash(self, digest: str) -> Optional[dict]:
        try:
            metrics = json.loads(self.path_for(digest).read_text())
        except (OSError, ValueError):
            # Absent — or present but unparseable (torn, truncated,
            # bit-rotted to invalid JSON or UTF-8): not a result, a miss.
            self.misses += 1
            return None
        self.hits += 1
        return metrics

    def put_hash(self, digest: str, metrics: dict) -> None:
        _write_atomic(self.path_for(digest), json.dumps(metrics, sort_keys=True))

    def get(self, job: Job) -> Optional[dict]:
        return self.get_hash(job_hash(job))

    def put(self, job: Job, metrics: dict) -> None:
        self.put_hash(job_hash(job), metrics)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def results(self, hashes: list[str]) -> Optional[list[dict]]:
        """All metrics for ``hashes`` in order, or ``None`` if any miss."""
        out = []
        for digest in hashes:
            metrics = self.get_hash(digest)
            if metrics is None:
                return None
            out.append(metrics)
        return out

    # -- manifests ------------------------------------------------------

    def manifest_path(self, sweep_id: str) -> Path:
        return self.sweep_dir / f"{sweep_id}.json"

    def write_manifest(self, spec: SweepSpec, hashes: list[str]) -> str:
        """Persist the sweep's identity *before* any cell runs."""
        sweep_id = sweep_id_for(spec)
        manifest = {
            "sweep": sweep_id,
            "name": spec.name,
            "cache_version": CACHE_VERSION,
            "spec": json.loads(spec.to_json()),
            "jobs": list(hashes),
        }
        _write_atomic(
            self.manifest_path(sweep_id),
            json.dumps(manifest, sort_keys=True, indent=2),
        )
        return sweep_id

    def read_manifest(self, sweep_id: str) -> Optional[dict]:
        try:
            manifest = json.loads(self.manifest_path(sweep_id).read_text())
        except (OSError, ValueError):
            return None
        if manifest.get("cache_version") != CACHE_VERSION:
            # Stale-version manifest: its objects are unreachable under
            # the current hash scheme, so resuming it would re-run
            # everything under ids that no longer match; skip it.
            return None
        return manifest

    def manifests(self) -> Iterator[dict]:
        """Every readable current-version manifest, in sweep-id order."""
        for path in sorted(self.sweep_dir.glob("*.json")):
            manifest = self.read_manifest(path.stem)
            if manifest is not None:
                yield manifest

    # -- daemon endpoint advert -----------------------------------------

    @property
    def endpoint_path(self) -> Path:
        return self.root / "serve.json"

    def write_endpoint(self, host: str, port: int, *, workers: int) -> None:
        payload = {"host": host, "port": port, "pid": os.getpid(),
                   "workers": workers}
        _write_atomic(self.endpoint_path, json.dumps(payload, sort_keys=True))

    def read_endpoint(self) -> Optional[dict]:
        try:
            return json.loads(self.endpoint_path.read_text())
        except (OSError, ValueError):
            return None

    def clear_endpoint(self) -> None:
        try:
            self.endpoint_path.unlink()
        except OSError:
            pass
