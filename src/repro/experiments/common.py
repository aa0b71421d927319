"""Shared infrastructure for the E01-E16 experiment runners: the
:class:`ExperimentResult` every runner returns and the ``quick`` /
``full`` scale switch.  Nothing here builds an execution — a benign
cell is a :class:`repro.sweep.Scenario`, an adversary-dictated one a
:class:`repro.gcs.schedule.AdversarySchedule`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import Table
from repro.errors import ExperimentError

__all__ = ["ExperimentResult", "Scale", "seed_mean_ladder"]

#: Experiment scale: "quick" keeps benchmark runtime low; "full" matches
#: the writeup in EXPERIMENTS.md.
Scale = str


@dataclass
class ExperimentResult:
    """What an experiment produced: tables to print + raw data.

    ``figures`` optionally declares how :mod:`repro.viz` should chart
    the tables — a list of specs like ``{"table": 0, "x": "n",
    "y": ["max skew"], "kind": "line"}`` (``kind`` is ``"line"`` or
    ``"bar"``).  Experiments that leave it empty get auto-detected
    numeric-column charts.
    """

    experiment_id: str
    title: str
    paper_artifact: str
    tables: list[Table] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    figures: list[dict] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            f"paper artifact: {self.paper_artifact}",
            "",
        ]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


def pick(scale: Scale, quick, full):
    """Select a parameter set by scale."""
    if scale == "quick":
        return quick
    if scale == "full":
        return full
    raise ExperimentError(f"unknown scale {scale!r} (use 'quick' or 'full')")


def seed_mean_ladder(
    table: Table,
    outcomes,
    *,
    topologies,
    algorithms,
    axis: str,
    rungs,
    baseline: str,
    count: str,
) -> dict[str, dict]:
    """Add one seed-mean row per (topology, algorithm, rung) to ``table``.

    ``axis`` is the metric key the ladder varies (``"faults"``,
    ``"mobility"``); each row is the rung's max / final / final-adjacent
    skew, its final skew as a multiple of the ``baseline`` rung's, and
    the integer mean of ``count``.  Returns the same means as curves:
    ``"topology/algorithm" -> rung -> {max_skew, final_skew,
    degradation}``.
    """
    cells: dict[tuple[str, str, str], list[dict]] = {}
    for outcome in outcomes:
        m = outcome.metrics
        cells.setdefault((m["topology"], m["algorithm"], m[axis]), []).append(m)

    def mean(key: tuple[str, str, str], metric: str) -> float:
        group = cells[key]
        return sum(m[metric] for m in group) / len(group)

    curves: dict[str, dict] = {}
    for topology in topologies:
        for algorithm in algorithms:
            base = max(mean((topology, algorithm, baseline), "final_skew"), 1e-9)
            for rung in rungs:
                key = (topology, algorithm, rung)
                final = mean(key, "final_skew")
                table.add_row(
                    topology,
                    algorithm,
                    rung,
                    round(mean(key, "max_skew"), 3),
                    round(final, 3),
                    round(mean(key, "final_adjacent_skew"), 3),
                    round(final / base, 2),
                    int(mean(key, count)),
                )
                curves.setdefault(f"{topology}/{algorithm}", {})[rung] = {
                    "max_skew": mean(key, "max_skew"),
                    "final_skew": final,
                    "degradation": final / base,
                }
    return curves
