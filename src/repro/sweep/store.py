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
of this sweep exist yet?" — the whole resume story.  A resubmitted
sweep's manifest is read, not rewritten: it is written again only when
the file is missing or its bytes differ from the ones the daemon wrote,
so a deleted or damaged manifest heals and an intact one costs a read.
Every write is atomic (unique temp file + rename), so concurrent
writers — a serve daemon, a second ``run_jobs``, a killed run
restarting — can only ever race to install identical bytes.

A pack is a finished sweep's results in one file, so a warm fetch reads
one file instead of one object per cell.  Its first line is a header
binding two sha256 digests — of the sweep's ordered job hashes and of
the body — and the body is ``json.dumps(results, separators=(",", ":"))``,
the exact bytes the fetch reply carries.  A pack is a derived copy, never
the only one: the daemon writes it when a fetch first assembles the
complete result list from the objects, and rewrites it from the objects
whenever it is missing or fails either digest (torn, bit-rotted, written
for another job list).

Layout under the store root::

    objects/<job_hash>.json   one metrics dict per completed job
    sweeps/<sweep_id>.json    manifest: spec + ordered job hashes
    packs/<sweep_id>.json     pack: digest header line + results body
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
        {"spec": spec.payload(), "v": CACHE_VERSION},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def hashes_for(jobs) -> list[str]:
    """Job hashes in job order — the manifest's ``jobs`` field."""
    return [job_hash(job) for job in jobs]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _jobs_digest(hashes) -> str:
    """What a pack header binds the body to: the ordered job list."""
    return _sha256(",".join(hashes).encode())


def _load_manifest(path: Path) -> Optional[dict]:
    """The manifest at ``path``, ``None`` if it is of another
    ``CACHE_VERSION``; raises ``OSError`` / ``ValueError`` if it does
    not read."""
    manifest = json.loads(path.read_bytes())
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {path.name} is not a JSON object")
    if manifest.get("cache_version") != CACHE_VERSION:
        # Stale-version manifest: its objects are unreachable under the
        # current hash scheme, so resuming it would re-run everything
        # under ids that no longer match; skip it.
        return None
    return manifest


def _write_atomic(path: Path, data: bytes) -> None:
    # Per-process temp name: concurrent writers of the same file
    # (identical content by construction) never clobber mid-rename, and
    # a writer killed mid-write leaves a ``.tmp`` orphan, never a torn
    # file a reader would trust.
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_bytes(data)
    tmp.replace(path)


class ContentStore:
    """A directory of per-job metric objects, sweep manifests and packs,
    an advert."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.directory = self.root / "objects"
        self.sweep_dir = self.root / "sweeps"
        self.pack_dir = self.root / "packs"
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
        _write_atomic(
            self.path_for(digest), json.dumps(metrics, sort_keys=True).encode()
        )

    def get(self, job: Job) -> Optional[dict]:
        return self.get_hash(job_hash(job))

    def put(self, job: Job, metrics: dict) -> None:  # repro: allow[DEAD001] frozen e2e workloads_serve
        self.put_hash(job_hash(job), metrics)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def gather(self, hashes) -> tuple[list[dict], list[str]]:
        """One read of every object: the metrics that read, in order, and
        the digests that did not (absent or unparseable)."""
        found, missing = [], []
        for digest in hashes:
            metrics = self.get_hash(digest)
            if metrics is None:
                missing.append(digest)
            else:
                found.append(metrics)
        return found, missing

    def results(self, hashes: list[str]) -> Optional[list[dict]]:
        """All metrics for ``hashes`` in order, or ``None`` if any miss."""
        found, missing = self.gather(hashes)
        return None if missing else found

    # -- manifests ------------------------------------------------------

    def manifest_path(self, sweep_id: str) -> Path:
        return self.sweep_dir / f"{sweep_id}.json"

    def write_manifest(self, spec: SweepSpec, hashes) -> bytes:
        """Persist the sweep's identity *before* any cell runs, and return
        the manifest's bytes.  A file that already holds exactly those
        bytes is left alone (see :meth:`heal_manifest`)."""
        sweep_id = sweep_id_for(spec)
        manifest = {
            "sweep": sweep_id,
            "name": spec.name,
            "cache_version": CACHE_VERSION,
            "spec": spec.payload(),
            "jobs": list(hashes),
        }
        data = json.dumps(manifest, sort_keys=True, indent=2).encode()
        self.heal_manifest(sweep_id, data)
        return data

    def heal_manifest(self, sweep_id: str, data: bytes) -> None:
        """Rewrite a manifest only if the file is missing or its bytes
        differ from ``data`` (what :meth:`write_manifest` returned): an
        intact manifest costs one read, a deleted or damaged one heals."""
        path = self.manifest_path(sweep_id)
        try:
            if path.read_bytes() == data:
                return
        except OSError:
            pass
        _write_atomic(path, data)

    def manifests(self) -> Iterator[Optional[dict]]:
        """Every current-version manifest, in sweep-id order.

        ``None`` stands for a manifest that does not read (torn, empty,
        not UTF-8 JSON, not an object), so a caller can count what it
        cannot resume.  A readable manifest of another ``cache_version``
        is skipped without a trace, by design: a version bump retires it
        with the objects it indexes.
        """
        for path in sorted(self.sweep_dir.glob("*.json")):
            try:
                manifest = _load_manifest(path)
            except (OSError, ValueError):
                yield None
                continue
            if manifest is not None:
                yield manifest

    # -- packs ----------------------------------------------------------

    def pack_path(self, sweep_id: str) -> Path:
        return self.pack_dir / f"{sweep_id}.json"

    def write_pack(
        self, sweep_id: str, hashes, results: list[dict]
    ) -> bytes:
        """Pack a complete sweep's results; returns the body."""
        body = json.dumps(results, separators=(",", ":")).encode()
        header = json.dumps(
            {"body": _sha256(body), "jobs": _jobs_digest(hashes)},
            sort_keys=True,
        )
        self.pack_dir.mkdir(exist_ok=True)
        _write_atomic(self.pack_path(sweep_id), header.encode() + b"\n" + body)
        return body

    def read_pack(self, sweep_id: str, hashes) -> Optional[memoryview]:
        """The pack body for exactly ``hashes``, or ``None`` if there is
        no pack or it fails either digest of its header.

        The body is a view of the file's bytes, not a copy of them.
        """
        try:
            data = self.pack_path(sweep_id).read_bytes()
            cut = data.find(b"\n") + 1
            header, body = data[:cut], memoryview(data)[cut:]
            bound = json.loads(header)
            intact = (
                bound["jobs"] == _jobs_digest(hashes)
                and bound["body"] == _sha256(body)
            )
        except (OSError, ValueError, TypeError, KeyError):
            return None
        return body if intact else None

    # -- daemon endpoint advert -----------------------------------------

    @property
    def endpoint_path(self) -> Path:
        return self.root / "serve.json"

    def write_endpoint(self, host: str, port: int, *, workers: int) -> None:
        payload = {"host": host, "port": port, "pid": os.getpid(),
                   "workers": workers}
        _write_atomic(
            self.endpoint_path, json.dumps(payload, sort_keys=True).encode()
        )

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
