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

__all__ = ["ExperimentResult", "Scale"]

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
