"""Observability: headless SVG figures for every execution path.

``repro.viz`` renders what the tables summarize — skew-field dashboards
(:mod:`repro.viz.dashboard`), mobility animations
(:mod:`repro.viz.mobility`), live-run streaming tails
(:mod:`repro.viz.tail`), and sweep/experiment report artifacts
(:mod:`repro.viz.report`) — all by pure string assembly over
:class:`~repro.viz.svg.SvgCanvas`.  No third-party imaging or plotting
dependency, no display: every renderer returns an SVG string.
"""

from repro.viz.dashboard import dashboard_field, skew_dashboard, trace_markers
from repro.viz.mobility import mobility_animation, mobility_frames
from repro.viz.panels import EventMarker, Series
from repro.viz.report import (
    experiment_report,
    render_report,
    report_payload,
    rows_from_artifact,
    write_report,
)
from repro.viz.svg import SvgCanvas
from repro.viz.tail import StreamingTail

__all__ = [
    "skew_dashboard",
    "dashboard_field",
    "trace_markers",
    "mobility_animation",
    "mobility_frames",
    "StreamingTail",
    "render_report",
    "report_payload",
    "rows_from_artifact",
    "write_report",
    "experiment_report",
    "EventMarker",
    "Series",
    "SvgCanvas",
]
