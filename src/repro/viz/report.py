"""Sweep and experiment report artifacts: ``report.svg`` + ``report.json``.

The sweep engine and the experiment CLIs gain a ``--report DIR`` hook
that lands here: :func:`render_report` turns a list of per-job metric
dicts (the ``benign-run`` / ``live-run`` schema) into one figure —
grouped bars of the headline skew metrics per scenario cell, averaged
over seeds, with live-transport counter rows included — and
:func:`report_payload` emits the matching machine-readable summary, so
every figure ships with the numbers it was drawn from.

:func:`experiment_report` renders an
:class:`~repro.experiments.common.ExperimentResult`: experiments may
declare *figure specs* (``result.figures``) naming the table, the x
column, and the y columns to chart; without a spec the renderer
auto-detects numeric columns of each table.  Either way the charts are
drawn from the very tables the experiment prints.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Mapping, Sequence

from repro.sweep.aggregate import CELL_KEYS
from repro.viz.panels import Series, bar_panel, line_panel, stat_strip
from repro.viz.svg import SvgCanvas

__all__ = [
    "render_report",
    "report_payload",
    "write_report",
    "rows_from_artifact",
    "experiment_report",
    "write_experiment_report",
]

#: Headline metrics charted per cell (means over seeds).
REPORT_METRICS = ("max_skew", "max_adjacent_skew", "final_skew")

#: Live-transport counters folded into the JSON summary when present.
LIVE_COUNTERS = ("frames_dropped", "frames_routed", "events", "workers")


def rows_from_artifact(payload: Mapping) -> list[dict]:
    """Metric rows from a sweep JSON artifact (``to_json_payload`` shape)."""
    jobs = payload.get("jobs")
    if jobs is None:
        raise ValueError("not a sweep artifact: missing 'jobs'")
    return [dict(job["metrics"]) for job in jobs]


def _varying_keys(rows: Sequence[Mapping], exclude: str) -> list[str]:
    keys = []
    for key in CELL_KEYS:
        if key == exclude:
            continue
        values = {str(row.get(key, "-")) for row in rows}
        if len(values) > 1:
            keys.append(key)
    return keys


def _aggregate(rows: Sequence[Mapping], group_key: str):
    """(cell labels, groups, per-metric value grid, per-cell summaries)."""
    label_keys = _varying_keys(rows, group_key) or [
        k for k in CELL_KEYS if k != group_key
    ][:1]
    cells: dict[tuple, dict[str, list[Mapping]]] = {}
    for row in rows:
        cell = tuple(str(row.get(k, "-")) for k in label_keys)
        group = str(row.get(group_key, "-"))
        cells.setdefault(cell, {}).setdefault(group, []).append(row)
    groups = sorted({g for per in cells.values() for g in per})
    labels = ["/".join(cell) for cell in cells]
    summaries = []
    for cell, per_group in cells.items():
        for group in groups:
            bucket = per_group.get(group, [])
            if not bucket:
                continue
            summary = {
                "cell": dict(zip(label_keys, cell)),
                group_key: group,
                "seeds": len(bucket),
            }
            for m in REPORT_METRICS:
                values = [float(r[m]) for r in bucket if m in r]
                summary[f"mean_{m}"] = (
                    statistics.fmean(values) if values else None
                )
            for counter in LIVE_COUNTERS:
                values = [int(r[counter]) for r in bucket if counter in r]
                if values:
                    summary[counter] = sum(values)
            summaries.append(summary)
    # Re-walk into the grid shape bar_panel wants: series = group,
    # one value per cell label.
    series_values: dict[str, dict[str, list[float]]] = {
        m: {g: [] for g in groups} for m in REPORT_METRICS
    }
    for cell, per_group in cells.items():
        for group in groups:
            bucket = per_group.get(group, [])
            for m in REPORT_METRICS:
                values = [float(r[m]) for r in bucket if m in r]
                series_values[m][group].append(
                    statistics.fmean(values) if values else float("nan")
                )
    return labels, groups, series_values, summaries


def render_report(
    rows: Sequence[Mapping],
    *,
    title: str = "sweep report",
    group_key: str = "algorithm",
) -> str:
    """Render per-cell metric bars (one panel per headline metric)."""
    if not rows:
        raise ValueError("render_report needs at least one metric row")
    labels, groups, series_values, _ = _aggregate(rows, group_key)
    panel_h, gap, top = 150, 60, 70
    height = top + len(REPORT_METRICS) * (panel_h + gap) + 20
    canvas = SvgCanvas(880, height, background="#fafafa")
    canvas.text(16, 24, title, size=14, weight="bold", klass="report-title")
    transports = sorted({str(r.get("transport", "sim")) for r in rows})
    dropped = sum(int(r.get("frames_dropped", 0)) for r in rows)
    stat_strip(
        canvas, 16, 44,
        [
            ("jobs", len(rows)),
            ("cells", len(labels)),
            (group_key + "s", len(groups)),
            ("transports", ",".join(transports)),
            ("frames_dropped", dropped),
        ],
    )
    for k, metric in enumerate(REPORT_METRICS):
        bar_panel(
            canvas, 70, top + 20 + k * (panel_h + gap), 740, panel_h,
            labels,
            [(g, series_values[metric][g]) for g in groups],
            title=f"mean {metric} per cell (grouped by {group_key})",
            y_label=metric,
        )
    return canvas.to_string()


def report_payload(
    rows: Sequence[Mapping],
    *,
    title: str = "sweep report",
    group_key: str = "algorithm",
) -> dict:
    """The machine-readable counterpart of :func:`render_report`."""
    _, groups, _, summaries = _aggregate(rows, group_key)
    return {
        "title": title,
        "group_key": group_key,
        "groups": groups,
        "metrics": list(REPORT_METRICS),
        "rows": summaries,
        "n_jobs": len(rows),
    }


def write_report(
    out_dir: str | Path,
    rows: Sequence[Mapping],
    *,
    title: str = "sweep report",
    group_key: str = "algorithm",
) -> tuple[Path, Path]:
    """Write ``report.svg`` + ``report.json`` under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    svg_path = out / "report.svg"
    json_path = out / "report.json"
    svg_path.write_text(
        render_report(rows, title=title, group_key=group_key),
        encoding="utf-8",
    )
    json_path.write_text(
        json.dumps(
            report_payload(rows, title=title, group_key=group_key),
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return svg_path, json_path


# ----------------------------------------------------------------------
# experiment figures


def _numeric(cell: str) -> float | None:
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _table_figure(canvas, x, y, w, h, table, spec: Mapping | None) -> bool:
    """Chart one Table per its figure spec (or auto-detected columns)."""
    headers = list(table.headers)
    if spec is not None:
        x_col = spec.get("x", headers[0])
        y_cols = [c for c in spec.get("y", []) if c in headers]
        kind = spec.get("kind", "line")
        title = spec.get("title", table.title)
    else:
        x_col, kind, title = headers[0], "bar", table.title
        y_cols = []
        for col in headers[1:]:
            idx = headers.index(col)
            values = [_numeric(row[idx]) for row in table.rows]
            if values and all(v is not None for v in values):
                y_cols.append(col)
            if len(y_cols) == 3:
                break
    if not y_cols or not table.rows:
        return False
    x_idx = headers.index(x_col) if x_col in headers else 0
    labels = [row[x_idx] for row in table.rows]
    series = []
    for col in y_cols:
        idx = headers.index(col)
        series.append(
            (col, [v if (v := _numeric(row[idx])) is not None else float("nan")
                   for row in table.rows])
        )
    if kind == "line" and all(
        _numeric(label) is not None for label in labels
    ):
        line_panel(
            canvas, x, y, w, h,
            [Series(col, [float(l) for l in labels], values)
             for col, values in series],
            title=title[:80], x_label=x_col, y_label="",
        )
    else:
        bar_panel(canvas, x, y, w, h, labels, series, title=title[:80])
    return True


def experiment_report(result) -> str | None:
    """Render an ExperimentResult's tables as one figure column.

    Uses the experiment's declared ``figures`` specs when present,
    otherwise auto-charts up to three tables with numeric columns.
    Returns ``None`` when nothing in the result is chartable.
    """
    specs = list(getattr(result, "figures", None) or [])
    plans: list[tuple[object, Mapping | None]] = []
    if specs:
        for spec in specs:
            index = int(spec.get("table", 0))
            if 0 <= index < len(result.tables):
                plans.append((result.tables[index], spec))
    else:
        plans = [(table, None) for table in result.tables[:3]]
    if not plans:
        return None
    panel_h, gap, top = 170, 70, 60
    canvas = SvgCanvas(
        880, top + len(plans) * (panel_h + gap) + 20, background="#fafafa"
    )
    canvas.text(16, 24, f"{result.experiment_id}: {result.title}",
                size=14, weight="bold", klass="report-title")
    canvas.text(16, 42, f"paper artifact: {result.paper_artifact}", size=9,
                fill="#555555")
    drew = 0
    for table, spec in plans:
        if _table_figure(
            canvas, 80, top + 20 + drew * (panel_h + gap), 720, panel_h,
            table, spec,
        ):
            drew += 1
    return canvas.to_string() if drew else None


def write_experiment_report(out_dir: str | Path, result) -> Path | None:
    """Write ``<id>.svg`` under ``out_dir``; ``None`` if nothing charts."""
    svg = experiment_report(result)
    if svg is None:
        return None
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{result.experiment_id.lower()}.svg"
    path.write_text(svg, encoding="utf-8")
    return path
