"""The streaming tail: rolling panels rendered *during* a live run.

The unit half feeds synthetic observations through the three entry
points (``event`` / ``frame`` / ``stats``) and checks the rolling state
and render cadence.  The ``rt``-marked half attaches a tail to real
router and udp runs and asserts the acceptance property: at least one
rolling-panel frame is rendered mid-run, before the Execution exists.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.rt import LiveRunConfig, run_live
from repro.sim.trace import TraceEvent
from repro.viz.tail import StreamingTail, _clock_value


def event(node, t, logical):
    return TraceEvent(real_time=t, node=node, hardware=t, logical=logical,
                      kind="tick")


class TestClockExtraction:
    def test_algorithm_payload_shapes_yield_values(self):
        assert _clock_value(("clock", 3.5)) == 3.5
        assert _clock_value(["clock", 2]) == 2.0
        assert _clock_value(("state", 0)) == 0.0

    def test_non_clock_payloads_are_ignored(self):
        assert _clock_value(("flag", True)) is None  # bool is not a reading
        assert _clock_value("clock") is None
        assert _clock_value(("a", "b")) is None
        assert _clock_value(("one", 2, 3)) is None
        assert _clock_value(None) is None


class TestStreamingTailUnit:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            StreamingTail(interval=0.0)

    def test_events_drive_spread_series_and_renders(self):
        frames = []
        tail = StreamingTail(interval=1.0,
                             sink=lambda svg, i: frames.append((i, svg)))
        for t in range(6):
            tail.event(event(0, float(t), 10.0 + t))
            tail.event(event(1, float(t), 10.5 + t))
        assert tail.frames_rendered >= 5
        assert [i for i, _ in frames] == list(range(tail.frames_rendered))
        root = ET.fromstring(frames[-1][1])
        assert root.tag.endswith("svg")
        assert "live tail" in frames[-1][1]

    def test_frames_and_stats_feed_panels(self):
        frames = []
        tail = StreamingTail(interval=0.5, sink=lambda s, i: frames.append(s))
        for k in range(5):
            tail.frame({"src": k % 3, "dst": (k + 1) % 3,
                        "payload": ("clock", 5.0 + k), "send": 0.4 * k},
                       0.4 * k)
            tail.stats(0.4 * k, frames_routed=k, frames_dropped=0)
        assert tail.frames_rendered >= 2
        assert tail.counters["frames_routed"] == 4
        assert "frames_routed" in frames[-1]

    def test_time_is_monotone_under_reordered_observations(self):
        tail = StreamingTail(interval=10.0)
        tail.event(event(0, 5.0, 1.0))
        tail.event(event(1, 3.0, 1.2))  # out-of-order arrival
        assert tail._now == 5.0

    def test_close_renders_final_state(self):
        frames = []
        tail = StreamingTail(interval=100.0,
                             sink=lambda s, i: frames.append(s))
        tail.event(event(0, 0.0, 0.0))
        tail.event(event(0, 1.0, 1.0))
        rendered = tail.frames_rendered
        tail.close()
        assert tail.frames_rendered == rendered + 1

    def test_out_dir_receives_numbered_files(self, tmp_path):
        tail = StreamingTail(interval=0.5, out_dir=tmp_path / "tail")
        for t in range(4):
            tail.event(event(0, float(t), float(t)))
            tail.event(event(1, float(t), float(t) + 0.5))
        tail.close()
        files = sorted((tmp_path / "tail").glob("tail_*.svg"))
        assert len(files) == tail.frames_rendered
        ET.parse(files[0])


@pytest.mark.rt
class TestStreamingTailLive:
    def test_router_tail_renders_mid_run(self):
        """The acceptance property: frames stream before the run ends."""
        seen = []
        tail = StreamingTail(
            interval=0.25,
            sink=lambda svg, i: seen.append((tail._now, svg)),
        )
        config = LiveRunConfig(
            topology="ring:8", algorithm="gradient", duration=4.0,
            transport="router", time_scale=0.05, seed=1,
        )
        execution = run_live(config, tail=tail)
        assert len(seen) >= 1
        first_at, first_svg = seen[0]
        assert first_at < config.duration  # rendered before completion
        ET.fromstring(first_svg)
        assert "rolling skew spread" in first_svg
        # The tail watched the same wire the Execution summarizes.
        assert tail.counters.get("frames_routed", 0) > 0
        assert execution.live_stats["frames_routed"] >= tail.counters[
            "frames_routed"
        ]

    def test_udp_tail_sees_mirrored_frames(self):
        seen = []
        tail = StreamingTail(interval=0.25,
                             sink=lambda svg, i: seen.append(svg))
        config = LiveRunConfig(
            topology="line:4", algorithm="gradient", duration=3.0,
            transport="udp", time_scale=0.05, seed=0,
        )
        execution = run_live(config, tail=tail)
        assert len(seen) >= 1
        assert tail._frames_seen > 0  # mirrored frames actually arrived
        assert isinstance(execution.live_stats, dict)
        ET.fromstring(seen[-1])

    def test_virtual_tail_charts_exact_logical_values(self):
        seen = []
        tail = StreamingTail(interval=0.5,
                             sink=lambda svg, i: seen.append(svg))
        execution = run_live(
            LiveRunConfig(topology="line:5", duration=5.0,
                          transport="virtual"),
            tail=tail,
        )
        assert len(seen) >= 2
        assert len(tail.latest) == 5  # every node observed via the tap
        assert tail._events_seen == len(execution.trace)  # ... and every event
