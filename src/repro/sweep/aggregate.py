"""Aggregate sweep outcomes into tables and JSON artifacts.

One ``benign-run`` outcome is a flat metrics dict; a sweep produces
hundreds.  This module folds them into the two shapes downstream
consumers want:

* :func:`summary_table` / :func:`seed_table` — ``Table`` objects grouped
  by scenario cell (topology x algorithm x rates x delays), averaging
  over seeds, in the style of the paper's evaluation tables;
* :func:`sweep_result` — an ``ExperimentResult`` wrapping those tables,
  so sweeps print exactly like experiments E01..E14;
* :func:`to_json_payload` / :func:`write_json` — a machine-readable
  artifact with the spec, every job's metrics, and cache statistics.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.reporting import Table
from repro.sweep.jobs import JobOutcome, job_hash
from repro.sweep.spec import SweepSpec

__all__ = [
    "group_outcomes",
    "summary_table",
    "seed_table",
    "sweep_result",
    "to_json_payload",
    "write_json",
]

#: The axes that define one scenario cell (seeds are averaged within it).
#: ``transport`` separates simulator rows ("sim") from live-runtime rows;
#: ``mobility`` separates static cells from dynamic-topology ones.
CELL_KEYS = (
    "topology",
    "algorithm",
    "rates",
    "delays",
    "faults",
    "mobility",
    "transport",
)

#: Metrics aggregated over seeds in the summary table.
SUMMARY_METRICS = (
    "max_skew",
    "max_adjacent_skew",
    "final_skew",
    "mean_abs_skew",
)


def group_outcomes(
    outcomes: Sequence[JobOutcome],
) -> dict[tuple, list[JobOutcome]]:
    """Group outcomes by scenario cell, preserving first-seen cell order."""
    groups: dict[tuple, list[JobOutcome]] = {}
    for outcome in outcomes:
        key = tuple(outcome.metrics.get(k, "-") for k in CELL_KEYS)
        groups.setdefault(key, []).append(outcome)
    return groups


def summary_table(outcomes: Sequence[JobOutcome], *, title: str) -> Table:
    """Mean-over-seeds metrics per scenario cell."""
    table = Table(
        title=title,
        headers=[
            *CELL_KEYS,
            "seeds",
            *(f"mean {m}" for m in SUMMARY_METRICS),
            "settled",
        ],
        caption=(
            "Each row is one scenario cell averaged over its seeds; "
            "'settled' counts seeds whose max skew stayed under the "
            "settle threshold from some sample time on."
        ),
    )
    for key, group in group_outcomes(outcomes).items():
        means = [
            statistics.fmean(o.metrics[m] for o in group) for m in SUMMARY_METRICS
        ]
        settled = sum(1 for o in group if o.metrics["settling_time"] is not None)
        table.add_row(*key, len(group), *means, f"{settled}/{len(group)}")
    return table


def seed_table(outcomes: Sequence[JobOutcome], *, title: str) -> Table:
    """Per-job metrics, one row per (cell, seed) — the raw sweep grid."""
    table = Table(
        title=title,
        headers=[
            *CELL_KEYS,
            "seed",
            "max_skew",
            "max_adj",
            "final",
            "settling",
            "msgs",
            "cached",
        ],
        caption="One row per job, in grid order.",
    )
    for o in outcomes:
        m = o.metrics
        table.add_row(
            *(m.get(k, "-") for k in CELL_KEYS),
            m["seed"],
            m["max_skew"],
            m["max_adjacent_skew"],
            m["final_skew"],
            "-" if m["settling_time"] is None else m["settling_time"],
            m["messages"],
            "yes" if o.cached else "no",
        )
    return table


def sweep_result(
    spec: SweepSpec,
    outcomes: Sequence[JobOutcome],
    *,
    include_seed_rows: bool = False,
    notes: Sequence[str] = (),
):
    """Wrap a sweep's outcomes as an ``ExperimentResult``.

    Imported lazily to keep :mod:`repro.sweep` free of a module-level
    dependency on :mod:`repro.experiments` (which itself re-exports the
    rate families from this package).
    """
    from repro.experiments.common import ExperimentResult

    tables = [
        summary_table(
            outcomes, title=f"sweep[{spec.name}]: {len(outcomes)} jobs over "
            f"{spec.size}-cell grid"
        )
    ]
    if include_seed_rows:
        tables.append(seed_table(outcomes, title=f"sweep[{spec.name}]: per-job grid"))
    return ExperimentResult(
        experiment_id="SWEEP",
        title=f"scenario sweep '{spec.name}'",
        paper_artifact="batched benign-scenario grid (beyond the paper)",
        tables=tables,
        notes=list(notes),
        data={"spec": spec.payload(),
              "metrics": [o.metrics for o in outcomes]},
    )


def to_json_payload(
    spec: SweepSpec,
    outcomes: Sequence[JobOutcome],
    *,
    workers: int,
    elapsed: Optional[float] = None,
    cache_stats: Optional[dict] = None,
) -> dict:
    """The machine-readable sweep artifact."""
    return {
        "spec": spec.payload(),
        "workers": workers,
        "elapsed": elapsed,
        "cache": cache_stats or {},
        "jobs": [
            {
                "hash": job_hash(o.job),
                "kind": o.job.kind,
                "params": dict(o.job.params),
                "cached": o.cached,
                "metrics": o.metrics,
            }
            for o in outcomes
        ],
    }


def write_json(path: str | Path, payload: dict) -> Path:
    """Write the artifact, creating parent directories as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
