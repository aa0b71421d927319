"""Wall-clock transport tests: asyncio in-process and UDP multi-process.

Marked ``rt`` (they sleep real wall time and spawn node processes);
``-m 'not rt'`` skips them when iterating on unrelated code.  Scenarios
are kept tiny and time-compressed so the whole module stays a few
seconds of wall clock; assertions check structure and boundedness, not
exact values — wall-clock runs carry genuine OS scheduling noise.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.experiments.e14_live import skew_bound
from repro.rt import LiveRunConfig, run_live
from repro.rt.cli import main as live_main
from repro.wire import decode_frame, encode_frame

pytestmark = pytest.mark.rt


class TestAsyncioTransport:
    def test_asyncio_run_completes_with_bounded_skew(self):
        config = LiveRunConfig(
            topology="line:5", algorithm="gradient", duration=6.0,
            rho=0.2, seed=1, transport="asyncio", time_scale=0.05,
        )
        execution = run_live(config)
        assert execution.source == "live-asyncio"
        assert execution.max_skew(config.duration) <= skew_bound(
            execution.topology.diameter
        )
        # Traffic actually flowed and was recorded.
        assert len(execution.messages) > 0
        assert len(execution.trace.of_kind("receive")) > 0
        assert len(execution.trace.of_kind("start")) == 5

    def test_asyncio_execution_passes_model_checks(self):
        config = LiveRunConfig(
            topology="ring:4", algorithm="averaging", duration=5.0,
            rho=0.2, seed=3, transport="asyncio", time_scale=0.05,
        )
        execution = run_live(config)
        execution.check_validity()
        execution.check_drift_bounds()
        execution.check_delay_bounds()

    def test_trace_times_stay_inside_run(self):
        config = LiveRunConfig(
            topology="line:4", algorithm="max-based", duration=4.0,
            rho=0.2, seed=0, transport="asyncio", time_scale=0.05,
        )
        execution = run_live(config)
        assert all(
            0.0 <= e.real_time <= config.duration for e in execution.trace
        )
        # Per-node event times are monotone (frozen-now discipline).
        for node in execution.topology.nodes:
            times = [e.real_time for e in execution.trace.for_node(node)]
            assert times == sorted(times)
        # And so is the whole interleaved record: "now" is the loop's
        # monotonic clock measured from one origin, nothing else.
        recorded = [e.real_time for e in execution.trace]
        assert recorded == sorted(recorded)


    def test_wall_clock_loop_sleeps_neither_spins_nor_ends_early(self):
        """``duration x time_scale`` of wall, spent asleep in ``select``."""
        config = LiveRunConfig(
            topology="line:8", algorithm="gradient", duration=10.0,
            rho=0.2, seed=0, transport="asyncio", time_scale=0.05,
        )
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        execution = run_live(config)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        assert 0.5 <= wall <= 1.5
        assert cpu < 0.5 * wall  # a zero-timeout select would burn it all
        recorded = [e.real_time for e in execution.trace]
        assert recorded == sorted(recorded)
        assert 0.0 <= recorded[0]
        assert 0.8 * config.duration <= recorded[-1] <= config.duration


class TestLiveStats:
    """One ``live_stats`` key set, one meaning per key, on all four names."""

    CELL = LiveRunConfig(
        topology="line:6", algorithm="gradient", duration=4.0, rho=0.2,
        seed=0, transport="virtual", time_scale=0.05,
    )

    def test_events_counts_callbacks_with_or_without_a_trace(self):
        traced = run_live(self.CELL)
        untraced = run_live(replace(self.CELL, record_trace=False))
        callbacks = len(traced.trace.of_kind("receive")) + len(
            traced.trace.of_kind("timer")
        )
        assert traced.live_stats["events"] == callbacks > 0
        assert untraced.live_stats["events"] == callbacks

    def test_every_transport_reports_the_same_keys(self):
        stats = {
            name: run_live(replace(self.CELL, transport=name)).live_stats
            for name in ("virtual", "asyncio", "udp", "router")
        }
        assert {frozenset(s) for s in stats.values()} == {
            frozenset(
                ("workers", "frames_routed", "frames_dropped", "events",
                 "wall_elapsed")
            )
        }
        assert [stats[name]["workers"] for name in stats] == [0, 0, 6, 1]
        # The wall clocks sleep the run out; the virtual clock does not.
        assert stats["virtual"]["wall_elapsed"] < 0.2
        assert stats["asyncio"]["wall_elapsed"] >= 0.2


class TestUdpTransport:
    def test_udp_run_completes_with_bounded_skew(self):
        config = LiveRunConfig(
            topology="line:4", algorithm="gradient", duration=6.0,
            rho=0.2, seed=1, transport="udp", time_scale=0.2,
        )
        execution = run_live(config)
        assert execution.source == "live-udp"
        assert execution.max_skew(config.duration) <= skew_bound(
            execution.topology.diameter
        )
        assert len(execution.trace.of_kind("start")) == 4
        assert len(execution.trace.of_kind("receive")) > 0
        execution.check_validity()
        execution.check_delay_bounds()

    def test_udp_trace_is_globally_time_ordered(self):
        config = LiveRunConfig(
            topology="line:3", algorithm="averaging", duration=4.0,
            rho=0.2, seed=2, transport="udp", time_scale=0.2,
        )
        execution = run_live(config)
        times = [e.real_time for e in execution.trace]
        assert times == sorted(times)
        # Every node reported home: each has clock state and a START.
        assert set(execution.logical) == set(execution.topology.nodes)


class TestWireFormat:
    def test_frame_roundtrip(self):
        record = {"seq": 7, "src": 0, "dst": 1, "payload": ["clock", 1.5],
                  "send": 0.25, "delay": 0.5}
        assert decode_frame(encode_frame(record)) == record

    def test_truncated_frame_rejected(self):
        frame = encode_frame({"seq": 1})
        assert decode_frame(frame[:-2]) is None
        assert decode_frame(b"") is None
        assert decode_frame(b"\x00\x00\x00\x05oops") is None


class TestLiveCli:
    def test_virtual_demo(self, capsys):
        assert live_main(
            ["--alg", "gradient", "--topology", "line", "--nodes", "5",
             "--transport", "virtual", "--duration", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "live-virtual" in out
        assert "max skew" in out

    def test_full_topology_spec_overrides_nodes(self, capsys):
        assert live_main(
            ["--topology", "grid:2,3", "--nodes", "99",
             "--transport", "virtual", "--duration", "5"]
        ) == 0
        assert "grid:2,3" in capsys.readouterr().out

    def test_bad_algorithm_exits_nonzero(self, capsys):
        assert live_main(
            ["--alg", "nope", "--transport", "virtual", "--duration", "5"]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_udp_cell_via_cli(self, capsys):
        """The E14-style udp quick cell, through the CLI, well under 30s."""
        assert live_main(
            ["--alg", "averaging", "--topology", "line", "--nodes", "3",
             "--transport", "udp", "--duration", "4", "--time-scale", "0.2"]
        ) == 0
        assert "live-udp" in capsys.readouterr().out
