"""The observability layer: headless renderers, escaping, CLI verbs.

Everything here draws to strings or in-memory buffers and re-parses the
result with :mod:`xml.etree` — well-formedness is the contract every
SVG consumer (browsers, CI artifact viewers) actually relies on.  The
acceptance scenario is the ISSUE's: a 64-node dynamic-topology faulted
run must render (a) a skew dashboard with event markers, (b) a mobility
animation, and (c) a sweep report bundle, with zero third-party
rendering deps.
"""

from __future__ import annotations

import base64
import io
import json
import math
import struct
import xml.etree.ElementTree as ET
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.reporting import Table
from repro.experiments.common import ExperimentResult
from repro.rt import LiveRunConfig, run_live
from repro.viz import (
    EventMarker,
    Series,
    SvgCanvas,
    experiment_report,
    mobility_animation,
    mobility_frames,
    render_report,
    report_payload,
    rows_from_artifact,
    save_svg,
    skew_dashboard,
    write_report,
)
from repro.viz.cli import main as viz_main, run_scenario
from repro.viz.dashboard import MAX_PAIR_ROWS, _pair_heatmap_data, dashboard_field
from repro.viz.panels import (
    HEATMAP_LIMIT,
    bar_panel,
    downsample_columns,
    heatmap_panel,
    line_panel,
    nice_ticks,
)
from repro.viz.svg import escape_attr, escape_text, sequential_color, sequential_rgb


def parsed(svg: str) -> ET.Element:
    """Well-formedness gate: every rendered figure must pass here."""
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    return root


def images(svg: str) -> list[ET.Element]:
    return [e for e in parsed(svg).iter() if e.tag.endswith("}image")]


def read_png(element: ET.Element) -> np.ndarray:
    """An independent reader for the one PNG shape the canvas writes:
    the pixels of an ``<image>``'s data URI as ``rows x cols x 3``."""
    head = "data:image/png;base64,"
    href = element.get("href")
    assert href.startswith(head)
    data = base64.b64decode(href[len(head):], validate=True)
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, at = [], 8
    while at < len(data):
        (length,) = struct.unpack(">I", data[at:at + 4])
        kind, body = data[at + 4:at + 8], data[at + 8:at + 8 + length]
        (crc,) = struct.unpack(">I", data[at + 8 + length:at + 12 + length])
        assert crc == zlib.crc32(kind + body)
        chunks.append((kind, body))
        at += 12 + length
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    cols, rows, depth, color, compression, filtering, interlace = struct.unpack(
        ">IIBBBBB", chunks[0][1])
    assert (depth, color, compression, filtering, interlace) == (8, 2, 0, 0, 0)
    lines = np.frombuffer(
        zlib.decompress(chunks[1][1]), dtype=np.uint8
    ).reshape(rows, 1 + 3 * cols)
    assert not lines[:, 0].any()  # every scanline is filter type 0
    return lines[:, 1:].reshape(rows, cols, 3)


def hex_rgb(color: str) -> tuple[int, int, int]:
    return tuple(bytes.fromhex(color[1:]))


# ----------------------------------------------------------------------
# primitives


class TestSvgPrimitives:
    def test_canvas_renders_well_formed_document(self):
        canvas = SvgCanvas(200, 100)
        canvas.rect(10, 10, 50, 30, fill="#ff0000", title="a<b&c")
        canvas.line(0, 0, 200, 100, stroke="#000000", dash="4,3")
        canvas.polyline([(0, 0), (10, 5), (20, 3)], stroke="#00ff00")
        canvas.circle(100, 50, 8, fill="#0000ff", title='say "hi"')
        canvas.text(5, 95, "label <&> done", klass="t")
        parsed(canvas.to_string())

    def test_save_svg_accepts_paths_and_buffers(self, tmp_path):
        canvas = SvgCanvas(50, 50)
        canvas.text(10, 25, "x")
        svg = canvas.to_string()
        target = tmp_path / "out.svg"
        save_svg(svg, target)
        assert target.read_text(encoding="utf-8") == svg
        text_buf = io.StringIO()
        save_svg(svg, text_buf)
        assert text_buf.getvalue() == svg
        byte_buf = io.BytesIO()
        save_svg(svg, byte_buf)
        assert byte_buf.getvalue().decode("utf-8") == svg

    def test_color_ramps_are_hex_and_nan_safe(self):
        for t in (-1.0, 0.0, 0.25, 0.5, 1.0, 2.0, float("nan")):
            color = sequential_color(t)
            assert len(color) == 7 and color.startswith("#")
            int(color[1:], 16)

    def test_nice_ticks_cover_range(self):
        ticks = nice_ticks(0.0, 10.0)
        assert ticks[0] >= 0.0 and ticks[-1] <= 10.0 and len(ticks) >= 2
        assert nice_ticks(5.0, 5.0)  # degenerate span still yields ticks
        assert nice_ticks(float("nan"), 1.0) == [0.0]

    def test_array_ramp_is_the_scalar_ramp_within_one_level(self):
        ts = np.concatenate([np.linspace(-0.5, 1.5, 5001),
                             [float("nan"), float("inf"), float("-inf")]])
        scalar = np.array([hex_rgb(sequential_color(t)) for t in ts], dtype=int)
        assert np.abs(sequential_rgb(ts).astype(int) - scalar).max() <= 1
        ends = sequential_rgb(np.array([0.0, 1.0, float("nan")]))
        assert [tuple(c) for c in ends] == [
            hex_rgb(sequential_color(0.0)), hex_rgb(sequential_color(1.0)),
            (0x99, 0x99, 0x99)]

    def test_downsample_columns_max_pools_spikes(self):
        matrix = np.zeros((2, 1000))
        matrix[1, 777] = 9.0  # a one-sample spike must survive pooling
        pooled, stride = downsample_columns(matrix, limit=100)
        assert pooled.shape[1] <= 100 and stride > 1
        assert pooled.max() == 9.0

    def test_heatmap_panel_max_pools_rows_too(self):
        """An n x n peak matrix of a large network is bounded in both
        axes, and a one-cell spike survives in its pooled pixel."""
        matrix = np.zeros((1000, 300))
        matrix[777, 150] = 9.0
        canvas = SvgCanvas(300, 300)
        cells = heatmap_panel(canvas, 10, 10, 190, 190, matrix, colorbar=False)
        (image,) = images(canvas.to_string())
        pixels = read_png(image)
        assert pixels.shape[0] <= HEATMAP_LIMIT and pixels.shape[1] <= HEATMAP_LIMIT
        assert cells == pixels.shape[0] * pixels.shape[1]
        hot = hex_rgb(sequential_color(1.0))
        assert (pixels == hot).all(axis=2).sum() == 1
        assert tuple(pixels[777 // 4, 150 // 2]) == hot

    @given(st.text(max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_labels_never_break_the_document(self, label):
        """The escaping property: any node label, title, or caption —
        including XML metacharacters and control bytes — yields a
        parseable document."""
        canvas = SvgCanvas(120, 60)
        canvas.text(5, 20, label)
        canvas.rect(5, 30, 20, 10, fill="#aaaaaa", title=label)
        canvas.circle(60, 40, 5, fill="#bbbbbb", title=label, klass=label)
        parsed(canvas.to_string())

    @given(st.text(max_size=60))
    @settings(max_examples=120, deadline=None)
    def test_escape_leaves_no_raw_metacharacters(self, text):
        for escaped in (escape_text(text), escape_attr(text)):
            assert "<" not in escaped
            body = escaped
            for entity in ("&amp;", "&lt;", "&gt;", "&quot;", "&#"):
                body = body.replace(entity, "")
            assert "&" not in body
        assert '"' not in escape_attr(text).replace("&quot;", "")


# ----------------------------------------------------------------------
# panels


class TestPanels:
    def test_line_panel_with_markers_and_boundaries(self):
        canvas = SvgCanvas(400, 200)
        line_panel(
            canvas, 40, 20, 320, 150,
            [Series("a", [0, 1, 2, 3], [0.0, 1.0, 0.5, 2.0]),
             Series("b", [0, 1, 2, 3], [1.0, float("nan"), 1.5, 1.0])],
            title="t", y_label="y",
            markers=[EventMarker(1.5, "crash"), EventMarker(2.5, "recover")],
            boundaries=[2.0],
        )
        svg = canvas.to_string()
        parsed(svg)
        assert 'class="event-crash"' in svg
        assert 'class="event-recover"' in svg
        assert 'class="segment-boundary"' in svg

    def test_heatmap_panel_counts_cells_and_masks(self):
        canvas = SvgCanvas(300, 200)
        matrix = np.arange(12.0).reshape(3, 4)
        mask = np.zeros((3, 4), dtype=bool)
        mask[0, 0] = True
        matrix[2, 1] = float("nan")
        cells = heatmap_panel(
            canvas, 30, 20, 200, 120, matrix,
            row_labels=["r0", "r1", "r2"], x_extent=(0.0, 4.0), mask=mask,
        )
        assert cells == 12
        (image,) = images(canvas.to_string())
        pixels = read_png(image)
        assert pixels.shape == (3, 4, 3)  # rows x cols, one pixel a cell
        assert tuple(pixels[0, 0]) == (240, 240, 240)  # masked: #f0f0f0
        assert tuple(pixels[2, 1]) == (153, 153, 153)  # NaN: #999999
        # Every other pixel is sequential_color of its entry, to within
        # one level a channel: the array ramp is a lookup table.
        for i in range(3):
            for k in range(4):
                if (i, k) in ((0, 0), (2, 1)):
                    continue
                want = hex_rgb(sequential_color(matrix[i, k] / 11.0))
                assert np.abs(pixels[i, k].astype(int) - want).max() <= 1

    def test_heatmap_rejects_empty_matrix(self):
        with pytest.raises(ValueError):
            heatmap_panel(SvgCanvas(100, 100), 0, 0, 50, 50, np.empty((0, 0)))

    def test_bar_panel_draws_grouped_bars_with_tooltips(self):
        canvas = SvgCanvas(400, 200)
        bar_panel(
            canvas, 40, 20, 320, 150,
            ["cell-a", "cell-b"],
            [("alg1", [1.0, 2.0]), ("alg2", [1.5, float("nan")])],
        )
        svg = canvas.to_string()
        parsed(svg)
        assert svg.count('class="bar"') == 3  # NaN bar skipped
        assert "cell-a / alg1: 1" in svg


# ----------------------------------------------------------------------
# the acceptance scenario: 64 nodes, dynamic topology, faults


@pytest.fixture(scope="module")
def churny_execution():
    return run_scenario(
        topology="line:64",
        algorithm="gradient",
        faults="crash-recover:0.25,3",
        mobility="waypoint:0.5",
        duration=8.0,
        seed=2,
    )


class TestDashboard:
    def test_dashboard_renders_with_event_markers(self, churny_execution):
        svg = skew_dashboard(churny_execution)
        parsed(svg)
        assert 'class="event-crash"' in svg
        assert 'class="event-recover"' in svg
        assert 'class="event-topology"' in svg
        assert 'class="segment-boundary"' in svg
        assert "n=64" in svg

    def test_dashboard_shows_live_and_fault_stats(self, churny_execution):
        svg = skew_dashboard(churny_execution)
        assert "source: sim" in svg
        assert "rewirings:" in svg
        assert "faults:" in svg

    def test_dashboard_writes_to_memory_buffer(self, churny_execution):
        buf = io.StringIO()
        save_svg(skew_dashboard(churny_execution), buf)
        parsed(buf.getvalue())

    def test_heatmaps_are_two_pixel_grids_not_a_mark_per_cell(
            self, churny_execution):
        svg = skew_dashboard(churny_execution)
        pair, peak = images(svg)
        # The default grid fits the heatmap limit exactly: no column of
        # the pair heatmap is pooled away, and none is missing.
        assert read_png(pair).shape == (MAX_PAIR_ROWS, HEATMAP_LIMIT, 3)
        assert read_png(peak).shape == (64, 64, 3)
        # Close above the measurement (102 KB, 55 rects); a rect per cell
        # was 812 KB and 10 343 of them.
        assert len(svg.encode("utf-8")) < 150_000
        assert svg.count("<rect") < 200
        assert skew_dashboard(churny_execution) == svg  # byte-stable

    def test_pair_heatmap_data_matches_per_row_reference(self, churny_execution):
        """The hoisted adjacency sets change nothing: same rows, same
        gray cells, same labels as rebuilding the set per (row, segment)."""
        field = dashboard_field(churny_execution)
        segments = field.topology_segments()
        union = sorted({p for topo, _ in segments for p in topo.adjacent_pairs()})
        matrix = np.empty((len(union), field.n_samples))
        mask = np.ones((len(union), field.n_samples), dtype=bool)
        for row, (i, j) in enumerate(union):
            matrix[row] = np.abs(field.values[i] - field.values[j])
            for topo, cols in segments:
                if (i, j) in set(topo.adjacent_pairs()):
                    mask[row, cols] = False
        assert len(union) > MAX_PAIR_ROWS and len(segments) > 1
        worst = np.sort(np.argsort(-matrix.max(axis=1))[:MAX_PAIR_ROWS])
        got_matrix, got_mask, got_labels = _pair_heatmap_data(field)
        assert got_matrix.tobytes() == matrix[worst].tobytes()
        assert got_mask.tobytes() == mask[worst].tobytes()
        assert got_labels == [f"{union[k][0]}-{union[k][1]}" for k in worst]
        assert got_mask.any() and not got_mask.all()

    def test_static_run_dashboard_has_no_boundaries(self):
        execution = run_scenario(
            topology="ring:6", algorithm="averaging", duration=5.0
        )
        svg = skew_dashboard(execution)
        parsed(svg)
        assert "segment-boundary" not in svg
        assert "event-topology" not in svg


class TestMobility:
    def test_animation_cycles_one_group_per_snapshot(self, churny_execution):
        svg = mobility_animation(churny_execution)
        parsed(svg)
        snapshots = len(churny_execution.topology_timeline)
        assert svg.count("<animate") == snapshots
        assert svg.count('calcMode="discrete"') == snapshots
        assert 'class="node-down"' in svg or 'class="node"' in svg

    def test_frames_match_snapshot_count(self, churny_execution):
        frames = mobility_frames(churny_execution)
        assert len(frames) == len(churny_execution.topology_timeline)
        for frame in frames:
            parsed(frame)

    def test_static_run_renders_single_visible_frame(self):
        execution = run_scenario(
            topology="line:5", algorithm="gradient", duration=4.0
        )
        svg = mobility_animation(execution)
        parsed(svg)
        assert "<animate" not in svg  # nothing to cycle
        assert svg.count('class="node"') == 5


# ----------------------------------------------------------------------
# reports


def sample_rows():
    rows = []
    for alg in ("gradient", "averaging"):
        for seed in range(2):
            rows.append({
                "topology": "line:8", "algorithm": alg, "rates": "drifted",
                "delays": "uniform", "faults": "none", "mobility": "static",
                "transport": "sim", "seed": seed,
                "max_skew": 1.0 + seed * 0.2, "max_adjacent_skew": 0.5,
                "final_skew": 0.8,
            })
    rows.append({
        "topology": "ring:8", "algorithm": "gradient", "rates": "drifted",
        "delays": "uniform", "faults": "none", "mobility": "static",
        "transport": "router", "seed": 0, "max_skew": 2.0,
        "max_adjacent_skew": 1.0, "final_skew": 1.4,
        "frames_dropped": 3, "frames_routed": 120, "workers": 2,
    })
    return rows


class TestSweepReport:
    def test_render_report_groups_by_algorithm(self):
        svg = render_report(sample_rows())
        parsed(svg)
        assert "gradient" in svg and "averaging" in svg
        assert 'class="bar"' in svg

    def test_render_report_rejects_empty_rows(self):
        with pytest.raises(ValueError):
            render_report([])

    def test_payload_aggregates_seeds_and_counters(self):
        payload = report_payload(sample_rows())
        assert payload["n_jobs"] == 5
        by_key = {
            (r["cell"].get("topology"), r["algorithm"]): r
            for r in payload["rows"]
        }
        sim_row = by_key[("line:8", "gradient")]
        assert sim_row["seeds"] == 2
        assert math.isclose(sim_row["mean_max_skew"], 1.1)
        router_row = by_key[("ring:8", "gradient")]
        assert router_row["frames_dropped"] == 3
        assert router_row["frames_routed"] == 120

    def test_write_report_emits_svg_and_json(self, tmp_path):
        svg_path, json_path = write_report(tmp_path / "rep", sample_rows())
        parsed(svg_path.read_text(encoding="utf-8"))
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["metrics"] == ["max_skew", "max_adjacent_skew",
                                      "final_skew"]

    def test_rows_from_artifact_requires_jobs(self):
        with pytest.raises(ValueError):
            rows_from_artifact({"spec": {}})
        rows = rows_from_artifact(
            {"jobs": [{"metrics": {"max_skew": 1.0}}]}
        )
        assert rows == [{"max_skew": 1.0}]


class TestExperimentReport:
    def result_with_tables(self, figures=None):
        table = Table(
            title="demo", headers=["n", "max skew", "note"],
        )
        table.add_row(8, 1.25, "a")
        table.add_row(16, 2.5, "b")
        return ExperimentResult(
            experiment_id="E99",
            title="synthetic",
            paper_artifact="none",
            tables=[table],
            figures=figures or [],
        )

    def test_auto_charts_numeric_columns(self):
        svg = experiment_report(self.result_with_tables())
        assert svg is not None
        parsed(svg)
        assert "E99" in svg

    def test_figure_spec_selects_columns(self):
        svg = experiment_report(self.result_with_tables(
            figures=[{"table": 0, "x": "n", "y": ["max skew"],
                      "kind": "line", "title": "skew vs n"}]
        ))
        assert svg is not None
        parsed(svg)
        assert "skew vs n" in svg

    def test_uncharted_result_returns_none(self):
        table = Table(title="words", headers=["a", "b"])
        table.add_row("x", "y")
        result = ExperimentResult(
            experiment_id="E98", title="t", paper_artifact="none",
            tables=[table],
        )
        assert experiment_report(result) is None


# ----------------------------------------------------------------------
# live_stats uniformity (satellite: never None on live runs)


class TestLiveStats:
    def test_in_process_live_run_reports_dict_stats(self):
        execution = run_live(
            LiveRunConfig(topology="line:4", duration=4.0,
                          transport="virtual")
        )
        assert isinstance(execution.live_stats, dict)
        assert execution.live_stats["frames_dropped"] == 0
        assert execution.live_stats["events"] > 0

    def test_live_stats_surface_in_dashboard(self):
        execution = run_live(
            LiveRunConfig(topology="line:4", duration=4.0,
                          transport="virtual")
        )
        svg = skew_dashboard(execution)
        assert "frames_dropped: 0" in svg
        assert "source: live-virtual" in svg


# ----------------------------------------------------------------------
# the viz CLI


class TestVizCli:
    def test_report_verb_renders_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "sweep.json"
        artifact.write_text(json.dumps(
            {"spec": {"name": "t"},
             "jobs": [{"metrics": row} for row in sample_rows()]}
        ))
        out = tmp_path / "figs"
        assert viz_main(["report", str(artifact), "--out", str(out)]) == 0
        parsed((out / "report.svg").read_text(encoding="utf-8"))
        assert (out / "report.json").exists()

    def test_dashboard_verb_writes_figures(self, tmp_path, capsys):
        out = tmp_path / "figs"
        code = viz_main([
            "dashboard", "--topology", "line", "--nodes", "5",
            "--duration", "4", "--out", str(out),
        ])
        assert code == 0
        parsed((out / "dashboard.svg").read_text(encoding="utf-8"))
        parsed((out / "mobility.svg").read_text(encoding="utf-8"))

    def test_report_verb_fails_cleanly_on_bad_artifact(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert viz_main(["report", str(bad), "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err
