"""The per-point and per-mark renderers, kept as the array paths' references.

``repro.viz.panels.line_panel`` projects each series with array
arithmetic and hands ``SvgCanvas.polyline`` one ``(N, 2)`` array, which
writes every coordinate in one ``_fmt_run``.  They replaced the line
panel here: one Python ``px`` / ``py`` call per point and one ``_fmt``
per coordinate.

``repro.viz.mobility`` gathers each frame's edge skews with one array
subtraction, colors every edge with one call of the array ramp
``repro.viz.svg._ramp`` (the ramp is written once, over arrays) and
formats all of a frame's coordinates in one ``_fmt_run``.  They replaced
:func:`per_mark_build` and :func:`per_mark_frame_marks` here: a skew
dict per frame, and one ``SvgCanvas`` call per edge, node and label,
each edge colored by the scalar :func:`scalar_ramp`.

Every figure must come out byte for byte the same
(``tests/test_viz.py::TestArrayLinePanel`` and ``TestArrayMobility``).
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
from repro.viz.mobility import _PLOT, _H, _down_sets, _layout, _snapshots
from repro.viz.svg import _SEQUENTIAL, SvgCanvas, _fmt

__all__ = [
    "per_mark_build",
    "per_mark_frame_marks",
    "per_point_coords",
    "per_point_line_panel",
    "scalar_ramp",
]


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


# ----------------------------------------------------------------------
# the mobility frames, one canvas call per mark


def scalar_ramp(anchors: Sequence[tuple[int, int, int]], t: float) -> str:
    """The ramp at one ``t``, by Python arithmetic."""
    if t != t:  # NaN guards: render as mid-gray, never crash a panel
        return "#999999"
    t = min(max(float(t), 0.0), 1.0)
    scaled = t * (len(anchors) - 1)
    k = min(int(scaled), len(anchors) - 2)
    frac = scaled - k
    lo, hi = anchors[k], anchors[k + 1]
    r, g, b = (round(a + (b_ - a) * frac) for a, b_ in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def per_mark_frame_marks(canvas: SvgCanvas, positions, frame, v_hi: float,
                         down: set[int], caption: str) -> None:
    """``mobility._frame_marks`` as it was: ``frame`` is
    :func:`per_mark_build`'s ``(topology, skew dict)``."""
    topo, skews = frame
    points = positions.tolist()
    for i, j in sorted(topo.comm_edges):
        a, b = (i, j) if i < j else (j, i)
        value = skews.get((a, b), 0.0)
        canvas.line(
            *points[i], *points[j],
            stroke=scalar_ramp(_SEQUENTIAL, value / v_hi if v_hi > 0 else 0.0),
            width=2.2, opacity=0.9, klass="edge",
        )
    for node, (x, y) in enumerate(points):
        if node in down:
            canvas.circle(x, y, 6.0, fill="#ffffff", stroke="#c0392b",
                          stroke_width=1.6, klass="node-down",
                          title=f"node {node} (down)")
        else:
            canvas.circle(x, y, 6.0, fill="#2c3e50", stroke="#ffffff",
                          stroke_width=1.0, klass="node",
                          title=f"node {node}")
        canvas.text(x, y - 9, str(node), size=7, anchor="middle",
                    fill="#555555")
    canvas.text(_PLOT[0], _H - 18, caption, size=9, fill=AXIS_COLOR,
                klass="frame-caption")


def per_mark_build(execution):
    """``mobility._build`` as it was, one skew dict per frame."""
    snapshots = _snapshots(execution)
    n = execution.topology.n
    duration = execution.duration
    frame_times = []
    for k, (t, _) in enumerate(snapshots):
        t_end = snapshots[k + 1][0] if k + 1 < len(snapshots) else duration
        frame_times.append(min(t + 0.5 * max(t_end - t, 0.0), duration))
    values = execution.logical_matrix(frame_times)  # n x K
    layouts = _layout(snapshots, n)
    downs = _down_sets(execution, frame_times)

    per_frame = []
    v_hi = 0.0
    for k, (t, topo) in enumerate(snapshots):
        skews = {}
        for i, j in topo.adjacent_pairs():
            skews[(i, j)] = abs(float(values[i, k] - values[j, k]))
        for i, j in sorted(topo.comm_edges):
            a, b = (i, j) if i < j else (j, i)
            skews.setdefault(
                (a, b), abs(float(values[a, k] - values[b, k]))
            )
        per_frame.append((topo, skews))
        if skews:
            v_hi = max(v_hi, max(skews.values()))
    return snapshots, frame_times, layouts, downs, per_frame, v_hi
