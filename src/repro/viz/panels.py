"""Reusable chart panels: the mid-level vocabulary of every dashboard.

A *panel* is a rectangular region of an :class:`~repro.viz.svg.SvgCanvas`
with axes, ticks, and one kind of mark.  Dashboards and reports are
compositions of three panel kinds:

* :func:`line_panel` — time series with optional vertical event markers
  (CRASH / RECOVER / topology changes) and segment boundaries;
* :func:`heatmap_panel` — a matrix of colored cells with a colorbar,
  max-pooled in both axes so long sample grids and large networks stay
  renderable, colored in one array step and drawn as one pixel grid;
* :func:`bar_panel` — grouped bars for per-cell sweep metrics.

Everything else is string assembly over the canvas primitives; there is
no layout engine, just explicit ``(x, y, w, h)`` rectangles, which keeps
render cost linear in the number of marks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.viz.svg import SvgCanvas, sequential_color, sequential_rgb

__all__ = [
    "EventMarker",
    "Series",
    "nice_ticks",
    "line_panel",
    "heatmap_panel",
    "bar_panel",
    "stat_strip",
    "downsample_columns",
    "HEATMAP_LIMIT",
]

#: Most cells a heatmap draws along either axis.
HEATMAP_LIMIT = 256

#: Marker palette by trace-event kind.
MARKER_COLORS = {
    "crash": "#c0392b",
    "recover": "#1e8449",
    "topology": "#2471a3",
}

AXIS_COLOR = "#555555"
GRID_COLOR = "#dddddd"
SERIES_COLORS = ("#2471a3", "#c0392b", "#1e8449", "#8e44ad", "#b7950b", "#148f77")


@dataclass(frozen=True)
class EventMarker:
    """One vertical marker: a trace event projected onto the time axis."""

    time: float
    kind: str
    label: str = ""


@dataclass
class Series:
    """One named polyline."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    color: str | None = None
    dash: str | None = None
    points: list = field(default_factory=list)


def nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """A 1-2-5 tick ladder covering ``[lo, hi]``."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target, 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * magnitude
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    # A ladder needs at most ``target + 2`` rungs.  A span within a few
    # ulps of its values makes ``step`` smaller than their resolution,
    # where ``t += step`` crawls or stands still: the cap ends that.
    while t <= hi + 1e-12 * max(1.0, abs(hi)) and len(ticks) <= 2 * target:
        ticks.append(round(t, 10))
        t += step
    return ticks or [lo]


def _frame(canvas: SvgCanvas, x: float, y: float, w: float, h: float, title: str) -> None:
    canvas.rect(x, y, w, h, fill="#ffffff", stroke=AXIS_COLOR, stroke_width=1.0)
    if title:
        canvas.text(x, y - 6, title, size=11, weight="bold", klass="panel-title")


def _x_axis(
    canvas: SvgCanvas, x: float, y: float, w: float, h: float,
    lo: float, hi: float, label: str,
) -> None:
    for t in nice_ticks(lo, hi):
        px = x + (t - lo) / (hi - lo or 1.0) * w
        canvas.line(px, y, px, y + h, stroke=GRID_COLOR, width=0.5)
        canvas.text(px, y + h + 12, f"{t:g}", size=8, anchor="middle", fill=AXIS_COLOR)
    if label:
        canvas.text(x + w / 2, y + h + 24, label, size=9, anchor="middle", fill=AXIS_COLOR)


def line_panel(
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
    """Draw time series with event markers and segment boundaries.

    Each series is read as two float arrays and projected in array
    arithmetic — the scalar ``px`` / ``py`` operations in the same
    order, so every coordinate is the same double — and its points go
    to :meth:`SvgCanvas.polyline` as one ``(N, 2)`` array.  Points whose
    value is NaN or infinite are dropped.
    """
    _frame(canvas, x, y, w, h, title)
    columns = [
        (np.asarray(s.xs, dtype=float), np.asarray(s.ys, dtype=float))
        for s in series
    ]
    none = np.empty(0)
    xs_all = np.concatenate([none, *(xs for xs, _ in columns)]).tolist()
    ys_all = np.concatenate(
        [none, *(ys[np.isfinite(ys)] for _, ys in columns)]
    ).tolist()
    # The builtin min / max over float lists: their NaN and signed-zero
    # tie rules are the ones every figure was drawn with.
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
    for k, (s, (xs, ys)) in enumerate(zip(series, columns)):
        color = s.color or SERIES_COLORS[k % len(SERIES_COLORS)]
        size = min(xs.size, ys.size)
        keep = np.isfinite(ys[:size])
        points = np.column_stack((px(xs[:size][keep]), py(ys[:size][keep])))
        canvas.polyline(points, stroke=color, width=1.5, klass="series")
        canvas.line(legend_x, y + 10 + 12 * k, legend_x + 14, y + 10 + 12 * k,
                    stroke=color, width=2.0)
        canvas.text(legend_x + 18, y + 13 + 12 * k, s.label, size=8, fill="#333333")


def downsample_columns(
    matrix: np.ndarray, limit: int = HEATMAP_LIMIT
) -> tuple[np.ndarray, int]:
    """Max-pool matrix columns down to ``limit``.

    Max (not mean) pooling, so a one-sample skew spike survives the
    downsampling — a dashboard that hides peaks would lie about exactly
    the quantity the paper bounds.  Returns ``(matrix, stride)``.
    """
    m = np.asarray(matrix, dtype=float)
    cols = m.shape[-1]
    if cols <= limit:
        return m, 1
    stride = math.ceil(cols / limit)
    pad = (-cols) % stride
    if pad:
        tail = np.repeat(m[..., -1:], pad, axis=-1)
        m = np.concatenate([m, tail], axis=-1)
    pooled = m.reshape(*m.shape[:-1], -1, stride).max(axis=-1)
    return pooled, stride


def heatmap_panel(
    canvas: SvgCanvas,
    x: float,
    y: float,
    w: float,
    h: float,
    matrix: np.ndarray,
    *,
    title: str = "",
    row_labels: Sequence[str] = (),
    x_extent: tuple[float, float] | None = None,
    x_label: str = "time",
    vmin: float | None = None,
    vmax: float | None = None,
    colorbar: bool = True,
    mask: np.ndarray | None = None,
    markers: Sequence[EventMarker] = (),
) -> int:
    """Draw a rows x columns heatmap; returns the number of cells drawn.

    Both axes are max-pooled to :data:`HEATMAP_LIMIT` cells, drawn as
    one image.  ``mask`` (same shape, truthy = not-in-force) grays cells
    out — used for adjacent pairs that are not adjacent in the current
    topology segment of a dynamic run.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.size == 0:
        raise ValueError("heatmap needs a non-empty 2-D matrix")

    def pooled(a: np.ndarray) -> tuple[np.ndarray, int]:
        a, _ = downsample_columns(a)
        a, row_stride = downsample_columns(a.T)
        return a.T, row_stride

    m, row_stride = pooled(m)
    row_labels = row_labels[::row_stride]
    if mask is not None:
        mask = pooled(np.asarray(mask).astype(float))[0] > 0.5
    rows, cols = m.shape
    finite = m[np.isfinite(m)]
    lo = float(vmin) if vmin is not None else (float(finite.min()) if finite.size else 0.0)
    hi = float(vmax) if vmax is not None else (float(finite.max()) if finite.size else 1.0)
    if hi <= lo:
        hi = lo + 1.0
    _frame(canvas, x, y, w, h, title)
    rgb = sequential_rgb((m - lo) / (hi - lo))
    if mask is not None:
        rgb[mask] = 0xF0  # not in force: #f0f0f0
    canvas.image(x, y, w, h, rgb)
    cell_h = h / rows
    for i, label in enumerate(row_labels):
        if rows > 24 and i % max(1, rows // 24):
            continue
        canvas.text(x - 4, y + (i + 0.5) * cell_h + 3, str(label), size=7,
                    anchor="end", fill=AXIS_COLOR)
    if x_extent is not None:
        x_lo, x_hi = x_extent
        for t in nice_ticks(x_lo, x_hi):
            px = x + (t - x_lo) / (x_hi - x_lo or 1.0) * w
            canvas.text(px, y + h + 10, f"{t:g}", size=8, anchor="middle",
                        fill=AXIS_COLOR)
        canvas.text(x + w / 2, y + h + 22, x_label, size=9, anchor="middle",
                    fill=AXIS_COLOR)
        for marker in markers:
            if x_lo <= marker.time <= x_hi:
                px = x + (marker.time - x_lo) / (x_hi - x_lo or 1.0) * w
                canvas.line(px, y, px, y + h,
                            stroke=MARKER_COLORS.get(marker.kind, "#666666"),
                            width=1.2, opacity=0.9, klass=f"event-{marker.kind}")
    if colorbar:
        bar_x, bar_w = x + w + 10, 10.0
        steps = 24
        for s in range(steps):
            canvas.rect(bar_x, y + h - (s + 1) * h / steps, bar_w, h / steps + 0.5,
                        fill=sequential_color(s / (steps - 1)))
        canvas.rect(bar_x, y, bar_w, h, stroke=AXIS_COLOR, stroke_width=0.8)
        canvas.text(bar_x + bar_w + 3, y + 8, f"{hi:.3g}", size=8, fill=AXIS_COLOR)
        canvas.text(bar_x + bar_w + 3, y + h, f"{lo:.3g}", size=8, fill=AXIS_COLOR)
    return rows * cols


def bar_panel(
    canvas: SvgCanvas,
    x: float,
    y: float,
    w: float,
    h: float,
    groups: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    *,
    title: str = "",
    y_label: str = "",
) -> None:
    """Grouped vertical bars: one cluster per group, one bar per series."""
    _frame(canvas, x, y, w, h, title)
    values = [
        float(v) for _, vs in series for v in vs if math.isfinite(float(v))
    ]
    hi = max(values) if values else 1.0
    if hi <= 0:
        hi = 1.0
    for tick in nice_ticks(0.0, hi, 4):
        ty = y + h - tick / hi * h
        canvas.line(x, ty, x + w, ty, stroke=GRID_COLOR, width=0.5)
        canvas.text(x - 4, ty + 3, f"{tick:g}", size=8, anchor="end", fill=AXIS_COLOR)
    if y_label:
        canvas.text(x - 34, y + h / 2, y_label, size=9, anchor="middle",
                    fill=AXIS_COLOR, rotate=-90.0)
    n_groups, n_series = max(len(groups), 1), max(len(series), 1)
    slot = w / n_groups
    bar_w = slot * 0.8 / n_series
    for g, group in enumerate(groups):
        for s, (label, vs) in enumerate(series):
            v = float(vs[g]) if g < len(vs) else float("nan")
            if not math.isfinite(v):
                continue
            bar_h = max(0.0, v / hi * h)
            canvas.rect(
                x + g * slot + slot * 0.1 + s * bar_w,
                y + h - bar_h,
                bar_w,
                bar_h,
                fill=SERIES_COLORS[s % len(SERIES_COLORS)],
                klass="bar",
                title=f"{group} / {label}: {v:.4g}",
            )
        canvas.text(x + (g + 0.5) * slot, y + h + 11, str(group), size=7,
                    anchor="middle", fill=AXIS_COLOR,
                    rotate=-30.0 if len(str(group)) > 10 else None)
    for s, (label, _) in enumerate(series):
        lx = x + 8 + s * (w - 16) / max(n_series, 1)
        canvas.rect(lx, y + 6, 8, 8, fill=SERIES_COLORS[s % len(SERIES_COLORS)])
        canvas.text(lx + 11, y + 13, label, size=8, fill="#333333")


def stat_strip(
    canvas: SvgCanvas,
    x: float,
    y: float,
    items: Sequence[tuple[str, object]],
    *,
    klass: str = "stats",
) -> None:
    """One row of ``key: value`` facts (run counters, live_stats, ...)."""
    cursor = x
    canvas.group_open(klass=klass)
    for key, value in items:
        text = f"{key}: {value}"
        canvas.text(cursor, y, text, size=9, fill="#333333", klass="stat")
        cursor += 7 * len(text) + 18
    canvas.group_close()
