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

__all__ = ["sparkline", "render_csv", "write_csv"]

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


def render_csv(times: Sequence[float], columns: dict[str, Sequence[float]]) -> str:
    """``time, <column>...`` rows as one CSV string (``\\r\\n`` line ends).

    Raises :class:`ValueError` naming the first column whose length
    differs from ``times``.
    """
    names = sorted(columns)
    for name in names:
        if len(columns[name]) != len(times):
            raise ValueError(
                f"column {name!r} has {len(columns[name])} values for "
                f"{len(times)} times"
            )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["time", *names])
    for k, t in enumerate(times):
        writer.writerow([t, *(columns[n][k] for n in names)])
    return buf.getvalue()


def write_csv(  # repro: allow[DEAD001] examples/skew_timeline.py
    path: str | Path,
    times: Sequence[float],
    columns: dict[str, Sequence[float]],
) -> Path:
    """Write :func:`render_csv`'s rows to ``path``; returns the path."""
    path = Path(path)
    path.write_text(render_csv(times, columns), newline="")
    return path
