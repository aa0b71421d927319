"""Time-series export and terminal sparklines.

Experiments produce skew trajectories; these helpers render them in a
terminal (sparklines) and export them as CSV for offline plotting, so
the repository needs no plotting dependency.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.analysis.field import SkewField
from repro.sim.execution import Execution

__all__ = ["sparkline", "skew_series", "adjacent_skew_series", "write_csv"]

_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], *, lo: float | None = None,
              hi: float | None = None) -> str:
    """Render values as a unicode sparkline.

    ``lo``/``hi`` pin the scale (defaults: data min/max); constant data
    renders as a flat low bar.
    """
    if len(values) == 0:
        return ""
    lo = min(values) if lo is None else lo
    hi = max(values) if hi is None else hi
    span = hi - lo
    if span <= 0:
        return _BARS[0] * len(values)
    out = []
    for v in values:
        k = int((v - lo) / span * (len(_BARS) - 1))
        out.append(_BARS[min(max(k, 0), len(_BARS) - 1)])
    return "".join(out)


def skew_series(
    execution: Execution, i: int, j: int, *, step: float = 1.0
) -> tuple[list[float], list[float]]:
    """``(times, |L_i - L_j|)`` sampled across the execution (batched)."""
    times = execution.sample_times(step)
    series = np.abs(execution.skew_trajectory(i, j, times))
    return times, [float(v) for v in series]


def adjacent_skew_series(
    execution: Execution, *, step: float = 1.0
) -> tuple[list[float], list[float]]:
    """``(times, max adjacent skew)`` — Theorem 8.1's watched quantity."""
    times = execution.sample_times(step)
    series = SkewField(execution, times).max_adjacent_series()
    return times, [float(v) for v in series]


def write_csv(
    path: str | Path,
    times: Sequence[float],
    columns: dict[str, Sequence[float]],
) -> Path:
    """Write ``time, <column>...`` rows to ``path``; returns the path."""
    path = Path(path)
    names = sorted(columns)
    for name in names:
        if len(columns[name]) != len(times):
            raise ValueError(
                f"column {name!r} has {len(columns[name])} values for "
                f"{len(times)} times"
            )
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", *names])
        for k, t in enumerate(times):
            writer.writerow([t, *(columns[n][k] for n in names)])
    return path


def render_csv(times: Sequence[float], columns: dict[str, Sequence[float]]) -> str:
    """Same as :func:`write_csv` but to a string (for tests/pipelines)."""
    buf = io.StringIO()
    names = sorted(columns)
    writer = csv.writer(buf)
    writer.writerow(["time", *names])
    for k, t in enumerate(times):
        writer.writerow([t, *(columns[n][k] for n in names)])
    return buf.getvalue()
