"""The skew-field dashboard: one SVG per execution, simulated or live.

Renders straight from a :class:`~repro.analysis.field.SkewField`'s
``n x T`` trajectory matrix — the same batched measurement path every
table uses — so the figures and the numbers can never disagree:

* **max / adjacent skew time series** with CRASH / RECOVER /
  TopologyChange markers projected from the trace and dashed
  topology-segment boundaries from ``Execution.topology_timeline``;
* **per-pair heatmap** — ``|L_i - L_j|`` over time for every pair that
  is adjacent in *some* topology segment; cells where the pair is not
  in force are grayed out (dynamic runs only);
* **pairwise peak heatmap** — ``max_t |L_i - L_j|`` for every ordered
  pair, the matrix the gradient profile folds;
* **empirical gradient profile** ``f(d)`` as a step series;
* a **stat strip** carrying ``source``, ``live_stats`` (frames dropped /
  routed, workers), ``fault_stats`` counters, and rewiring counts.

All rendering is headless: marks and text are assembled as SVG strings,
each heatmap is one embedded PNG pixel grid.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.field import SkewField
from repro.sim.trace import CRASH, RECOVER, TOPOLOGY
from repro.viz.panels import (
    HEATMAP_LIMIT,
    EventMarker,
    Series,
    heatmap_panel,
    line_panel,
    stat_strip,
)
from repro.viz.svg import SvgCanvas

__all__ = ["skew_dashboard", "trace_markers", "dashboard_field"]

#: Cap on pair-heatmap rows; beyond it the worst rows are kept.
MAX_PAIR_ROWS = 48


def trace_markers(execution) -> list[EventMarker]:
    """CRASH / RECOVER / TopologyChange events as time-axis markers."""
    markers = [
        EventMarker(time=e.real_time, kind=e.kind,
                    label=f"{e.kind}@{e.node}" if e.node >= 0 else e.kind)
        for e in execution.trace.of_kind(CRASH, RECOVER, TOPOLOGY)
    ]
    markers.sort(key=lambda m: m.time)
    return markers


def dashboard_field(execution, *, step: float | None = None) -> SkewField:
    """A dashboard-resolution field: exactly as many sample columns as a
    heatmap draws (both ends of the run among them) regardless of
    duration, so render cost does not scale with run length and no
    column is pooled away."""
    if step is None:
        return SkewField(
            execution, np.linspace(0.0, execution.duration, HEATMAP_LIMIT)
        )
    return SkewField(execution, step=step)


def _segment_boundaries(execution) -> list[float]:
    timeline = execution.topology_timeline
    if timeline is None or len(timeline) <= 1:
        return []
    return [t for t, _ in timeline[1:]]


def _pair_heatmap_data(field: SkewField):
    """(matrix, mask, labels): per-pair |skew| rows over the sample grid.

    Rows are the union of adjacent pairs over all topology segments;
    the mask grays a row's cells wherever that pair is not adjacent in
    the segment owning the column.
    """
    segments = [
        (set(topo.adjacent_pairs()), cols)
        for topo, cols in field.topology_segments()
    ]
    union = sorted(set().union(*(adjacent for adjacent, _ in segments)))
    a = np.array([i for i, _ in union], dtype=int)
    b = np.array([j for _, j in union], dtype=int)
    matrix = np.abs(field.values[a] - field.values[b])
    mask = np.ones((len(union), field.n_samples), dtype=bool)
    for adjacent, cols in segments:
        rows = np.array([pair in adjacent for pair in union], dtype=bool)
        mask[np.ix_(rows, cols)] = False
    labels = [f"{i}-{j}" for i, j in union]
    if len(union) > MAX_PAIR_ROWS:
        worst = np.argsort(-matrix.max(axis=1))[:MAX_PAIR_ROWS]
        worst = np.sort(worst)
        matrix, mask = matrix[worst], mask[worst]
        labels = [labels[k] for k in worst]
    return matrix, mask, labels


def _stats_items(execution) -> list[tuple[str, object]]:
    items: list[tuple[str, object]] = [
        ("source", execution.source),
        ("nodes", execution.topology.n),
        ("diameter", f"{execution.topology.diameter:g}"),
        ("duration", f"{execution.duration:g}"),
        ("messages", len(execution.messages)),
    ]
    live = execution.live_stats or {}
    for key in ("frames_dropped", "frames_routed", "events", "workers"):
        if key in live:
            items.append((key, live[key]))
    if execution.fault_stats:
        fired = {k: v for k, v in execution.fault_stats.items() if v}
        items.append(("faults", fired or "none fired"))
    if execution.is_dynamic:
        items.append(("rewirings", len(execution.topology_timeline) - 1))
    return items


def skew_dashboard(
    execution,
    *,
    field: SkewField | None = None,
    step: float | None = None,
    title: str | None = None,
) -> str:
    """Render one execution's skew field as a self-contained SVG string."""
    field = dashboard_field(execution, step=step) if field is None else field
    markers = trace_markers(execution)
    boundaries = _segment_boundaries(execution)
    times = field.times

    canvas = SvgCanvas(980, 620, background="#fafafa")
    canvas.text(
        16, 24,
        title or f"skew field [{execution.source}]: "
                 f"{execution.topology.name}, n={execution.topology.n}",
        size=14, weight="bold", klass="dashboard-title",
    )
    stat_strip(canvas, 16, 44, _stats_items(execution))

    line_panel(
        canvas, 60, 80, 560, 170,
        [
            Series("max skew", times, field.max_skew_series()),
            Series("max adjacent skew", times, field.max_adjacent_series()),
        ],
        title="global and adjacent skew over time",
        y_label="skew",
        markers=markers,
        boundaries=boundaries,
    )

    pair_matrix, pair_mask, pair_labels = _pair_heatmap_data(field)
    heatmap_panel(
        canvas, 60, 320, 560, 230,
        pair_matrix,
        title=f"adjacent-pair |skew| ({len(pair_labels)} pairs)",
        row_labels=pair_labels,
        x_extent=(float(times[0]), float(times[-1])),
        mask=pair_mask if pair_mask.any() else None,
        markers=markers,
    )

    heatmap_panel(
        canvas, 710, 80, 190, 190,
        np.maximum.reduce(field.peak_pairs()),
        title="peak pairwise skew",
        x_extent=None,
        colorbar=True,
    )

    profile = field.gradient_profile()
    distances = sorted(profile)
    line_panel(
        canvas, 710, 320, 190, 170,
        [Series("f(d)", distances, [profile[d] for d in distances],
                color="#8e44ad")],
        title="empirical gradient profile",
        x_label="distance d",
        y_label="max |skew|",
    )
    return canvas.to_string()
