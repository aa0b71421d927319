"""The per-point line panel, kept as the array panel's reference.

``repro.viz.panels.line_panel`` projects each series with array
arithmetic and hands ``SvgCanvas.polyline`` one ``(N, 2)`` array, which
formats every point in one pass.  They replaced this version: one
Python ``px`` / ``py`` call per point and one ``_fmt`` per coordinate.
Every figure must come out byte for byte the same
(``tests/test_viz.py::TestArrayLinePanel``).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.viz.panels import (
    AXIS_COLOR,
    GRID_COLOR,
    MARKER_COLORS,
    SERIES_COLORS,
    EventMarker,
    Series,
    _frame,
    _x_axis,
    nice_ticks,
)
from repro.viz.svg import SvgCanvas, _fmt

__all__ = ["per_point_coords", "per_point_line_panel"]


def per_point_coords(points) -> str:
    """A polyline's ``points`` text, one ``_fmt`` per coordinate."""
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _per_point_polyline(canvas: SvgCanvas, points, *, stroke: str,
                        width: float, klass: str) -> None:
    if not points:
        return
    canvas.add(
        f'<polyline points="{per_point_coords(points)}" fill="none"'
        + canvas._attrs(
            [("stroke", stroke), ("stroke-width", width), ("opacity", None),
             ("class", klass)]
        )
        + "/>"
    )


def per_point_line_panel(
    canvas: SvgCanvas,
    x: float,
    y: float,
    w: float,
    h: float,
    series: Sequence[Series],
    *,
    title: str = "",
    x_label: str = "time",
    y_label: str = "",
    markers: Sequence[EventMarker] = (),
    boundaries: Sequence[float] = (),
    y_floor: float = 0.0,
) -> None:
    """``line_panel`` as it was before the array pass."""
    _frame(canvas, x, y, w, h, title)
    xs_all = [float(v) for s in series for v in s.xs]
    ys_all = [float(v) for s in series for v in s.ys if math.isfinite(float(v))]
    x_lo, x_hi = (min(xs_all), max(xs_all)) if xs_all else (0.0, 1.0)
    y_lo = min([y_floor] + ys_all) if ys_all else 0.0
    y_hi = max(ys_all) if ys_all else 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    span_x = x_hi - x_lo or 1.0
    span_y = y_hi - y_lo

    def px(t: float) -> float:
        return x + (t - x_lo) / span_x * w

    def py(v: float) -> float:
        return y + h - (v - y_lo) / span_y * h

    _x_axis(canvas, x, y, w, h, x_lo, x_hi, x_label)
    for tick in nice_ticks(y_lo, y_hi, 4):
        canvas.line(x, py(tick), x + w, py(tick), stroke=GRID_COLOR, width=0.5)
        canvas.text(x - 4, py(tick) + 3, f"{tick:g}", size=8, anchor="end", fill=AXIS_COLOR)
    if y_label:
        canvas.text(x - 34, y + h / 2, y_label, size=9, anchor="middle",
                    fill=AXIS_COLOR, rotate=-90.0)

    for boundary in boundaries:
        if x_lo <= boundary <= x_hi:
            canvas.line(px(boundary), y, px(boundary), y + h,
                        stroke="#999999", width=1.0, dash="4,3",
                        klass="segment-boundary")
    for marker in markers:
        if not (x_lo <= marker.time <= x_hi):
            continue
        color = MARKER_COLORS.get(marker.kind, "#666666")
        canvas.line(px(marker.time), y, px(marker.time), y + h,
                    stroke=color, width=1.2, opacity=0.8,
                    klass=f"event-{marker.kind}")

    legend_x = x + 8
    for k, s in enumerate(series):
        color = s.color or SERIES_COLORS[k % len(SERIES_COLORS)]
        pts = [
            (px(float(t)), py(float(v)))
            for t, v in zip(s.xs, s.ys)
            if math.isfinite(float(v))
        ]
        _per_point_polyline(canvas, pts, stroke=color, width=1.5, klass="series")
        canvas.line(legend_x, y + 10 + 12 * k, legend_x + 14, y + 10 + 12 * k,
                    stroke=color, width=2.0)
        canvas.text(legend_x + 18, y + 13 + 12 * k, s.label, size=8, fill="#333333")
