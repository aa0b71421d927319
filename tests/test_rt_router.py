"""The shard runtime (udp + router), live churn, and failure handling.

Three concerns share this module:

* **wire-format properties** (hypothesis, no wall clock): the
  length-prefixed JSON framing round-trips arbitrary records, and every
  truncated / corrupted / non-UTF-8 datagram decodes to ``None`` —
  never an exception, never a wrong record;
* **failure handling** (``rt``-marked, both names): a shard process
  that dies mid-run must surface promptly as a descriptive
  :class:`RtError` naming the dead process — not a hang, not a raw
  ``EOFError`` — and wire-level drop counts must land on the built
  ``Execution``;
* **router semantics** (``rt``-marked): multiplexed runs complete with
  bounded skew, agree with the deterministic virtual backend within the
  wall-clock budget the other live backends are held to, scale past a
  hundred nodes, and execute fault plans and rewirings for real.
"""

from __future__ import annotations

import os
import socket
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RtError
from repro.experiments.e14_live import skew_bound
from repro.rt import LiveRecorder, LiveRunConfig, run_live, with_transport
from repro.rt import shard as shard_rt
from repro.rt.shard import ShardTransport
from repro.rt.transport import TRANSPORT_NAMES
from repro.sweep.families import topology_from_spec
from repro.wire import decode_frame, encode_frame

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

frame_records = st.dictionaries(
    keys=st.text(min_size=1, max_size=10),
    values=st.one_of(
        json_scalars, st.lists(json_scalars, max_size=4)
    ),
    max_size=6,
)


class TestWireFormatProperties:
    @given(record=frame_records)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, record):
        assert decode_frame(encode_frame(record)) == record

    @given(record=frame_records, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_strict_prefix_rejected(self, record, data):
        frame = encode_frame(record)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        assert decode_frame(frame[:cut]) is None

    @given(record=frame_records, extra=st.binary(min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_trailing_garbage_rejected(self, record, extra):
        # The length prefix pins the body size exactly.
        assert decode_frame(encode_frame(record) + extra) is None

    @given(body=st.binary(max_size=64))
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_bodies_never_raise(self, body):
        import struct

        framed = struct.pack(">I", len(body)) + body
        result = decode_frame(framed)
        # Correctly framed bytes either parse as JSON or are dropped;
        # non-UTF-8 and non-JSON bodies must come back None, not raise.
        assert result is None or isinstance(
            result, (dict, list, str, int, float, bool)
        )

    def test_non_utf8_body_rejected(self):
        import struct

        body = b"\xff\xfe\x00\x01"
        assert decode_frame(struct.pack(">I", len(body)) + body) is None


class TestConfigValidation:
    def test_faults_accepted_on_every_transport(self):
        for transport in TRANSPORT_NAMES:
            config = LiveRunConfig(transport=transport, faults="crash:0.25")
            assert config.build().fault_plan is not None

    def test_mobility_accepted_on_every_transport(self):
        for transport in TRANSPORT_NAMES:
            config = LiveRunConfig(transport=transport, mobility="blink:0.2,2")
            assert config.build().dynamic is not None

    def test_negative_workers_rejected(self):
        with pytest.raises(RtError, match="workers"):
            LiveRunConfig(transport="router", workers=-1)

    def test_router_accepts_churn(self):
        config = LiveRunConfig(
            transport="router", faults="crash-recover:0.25,5",
            mobility="blink:0.2,2",
        )
        assert config.faults == "crash-recover:0.25,5"


BOTH = pytest.mark.parametrize("transport", ["udp", "router"])


class _SeqCapture:
    """A stand-in socket that keeps the seq of every frame sent on it."""

    def __init__(self):
        self.seqs = []

    def sendto(self, frame, addr):
        self.seqs.append(decode_frame(frame)["seq"])


class TestMessageSeq:
    def test_seqs_stay_disjoint_past_a_million_sends_per_shard(self):
        """Two shards' seqs never collide, however long the run.

        The old ``node * 1_000_000 + counter`` salt ran node k's seqs
        into node k+1's once a shard's shared counter passed 10**6, and
        ``merge_recorders`` / replay key messages by seq.
        """
        topology = topology_from_spec("line:2")
        socks = [_SeqCapture(), _SeqCapture()]
        for shard, sock in enumerate(socks):
            transport = ShardTransport(
                shard=shard, n_shards=2, sock=sock,
                route=dict.fromkeys((0, 1), ("127.0.0.1", 9)),
                recorder=LiveRecorder(record_trace=False),
                delay_policy=None, seed=0, duration=1.0, time_scale=1.0,
            )
            sender = SimpleNamespace(node=shard, topology=topology)
            for counter in (0, 999_998):
                transport._msg_counter = counter
                for _ in range(4):
                    transport.transmit(sender, 1 - shard, ("clock", 0.0))
        mine, theirs = (set(sock.seqs) for sock in socks)
        assert len(mine) == len(theirs) == 8
        assert not mine & theirs


@pytest.mark.rt
@BOTH
class TestShardFailureHandling:
    """A dead shard process fails the run fast, descriptively, and cleanly.

    One contract for both names on the one runtime: ``udp`` children
    are named ``node process <k>``, ``router`` children ``router worker
    <w>``.
    """

    ROLE = {"udp": "node process", "router": "router worker"}

    @staticmethod
    def config(transport):
        return LiveRunConfig(
            topology="line:3", algorithm="gradient", duration=4.0,
            rho=0.2, seed=0, transport=transport, time_scale=0.05,
        )

    def test_killed_child_raises_prompt_descriptive_error(
        self, monkeypatch, transport
    ):
        real_main = shard_rt._shard_main
        # udp's shard 1 is node 1; router hosts line:3 in its one shard 0.
        victim = 1 if transport == "udp" else 0

        def crashing_main(shard, *args):
            if shard == victim:
                os._exit(17)  # die before reporting anything
            real_main(shard, *args)

        monkeypatch.setattr(shard_rt, "_shard_main", crashing_main)
        start = time.perf_counter()
        with pytest.raises(
            RtError, match=rf"{self.ROLE[transport]} {victim}.*exit code 17"
        ):
            run_live(self.config(transport))
        # The old code hung out the whole report budget; the sentinel
        # watch must surface the death in about a round trip.
        assert time.perf_counter() - start < 3.0

    def test_closed_pipe_is_not_a_raw_eoferror(self, monkeypatch, transport):
        def eof_main(shard, shards, config, route, mirror, sock, conn):
            conn.close()  # clean exit, no report: EOF on the parent side
            os._exit(0)

        monkeypatch.setattr(shard_rt, "_shard_main", eof_main)
        start = time.perf_counter()
        with pytest.raises(RtError, match=self.ROLE[transport]):
            run_live(self.config(transport))
        assert time.perf_counter() - start < 3.0

    def test_frames_dropped_surfaces_on_execution(self, monkeypatch, transport):
        real_main = shard_rt._shard_main

        def noisy_main(shard, shards, config, route, mirror, sock, conn):
            if shard == 0:
                # A malformed datagram into the port node 1's frames go
                # to (the peer itself on udp, the switch on router): it
                # must be counted, not crash the receiver or vanish.
                junk = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                junk.sendto(b"\x00\x00\x00\x08not-json", route[1])
                junk.close()
            real_main(shard, shards, config, route, mirror, sock, conn)

        monkeypatch.setattr(shard_rt, "_shard_main", noisy_main)
        execution = run_live(self.config(transport))
        assert execution.live_stats["frames_dropped"] >= 1
        assert sorted(execution.live_stats) == [
            "events", "frames_dropped", "frames_routed", "wall_elapsed",
            "workers",
        ]


@pytest.mark.rt
class TestRouterTransport:
    def test_router_run_completes_with_bounded_skew(self):
        config = LiveRunConfig(
            topology="line:8", algorithm="gradient", duration=5.0,
            rho=0.2, seed=1, transport="router", time_scale=0.05,
        )
        execution = run_live(config)
        assert execution.source == "live-router"
        assert sorted(execution.logical) == list(range(8))
        assert execution.max_skew(config.duration) <= skew_bound(
            execution.topology.diameter
        )
        assert len(execution.messages) > 0
        assert len(execution.trace.of_kind("start")) == 8
        assert execution.live_stats["events"] > 0
        assert execution.live_stats["frames_dropped"] == 0

    @BOTH
    def test_router_matches_virtual_within_live_budget(self, transport):
        # The same wall-clock contract asyncio is held to: the
        # multi-process run tracks the deterministic virtual run inside
        # the diameter budget (exact equality is impossible for a
        # wall-clock backend).
        base = LiveRunConfig(
            topology="line:6", algorithm="gradient", duration=6.0,
            rho=0.2, seed=2, transport="virtual", time_scale=0.05,
        )
        virtual = run_live(base)
        live = run_live(with_transport(base, transport))
        bound = skew_bound(virtual.topology.diameter)
        assert virtual.max_skew(6.0) <= bound
        assert live.max_skew(6.0) <= bound
        # Timer-driven sends are deterministic in count, so traffic
        # volume must agree exactly even though wall timing jitters.
        assert len(live.messages) == len(virtual.messages)

    @BOTH
    def test_router_execution_passes_model_checks(self, transport):
        config = LiveRunConfig(
            topology="ring:6", algorithm="averaging", duration=5.0,
            rho=0.2, seed=3, transport=transport, time_scale=0.05,
        )
        execution = run_live(config)
        execution.check_validity()
        execution.check_drift_bounds()
        execution.check_delay_bounds()

    def test_router_scales_past_a_hundred_nodes(self):
        config = LiveRunConfig(
            topology="line:128", algorithm="gradient", duration=3.0,
            rho=0.2, seed=0, transport="router", time_scale=0.05,
            record_trace=False,
        )
        start = time.perf_counter()
        execution = run_live(config)
        wall = time.perf_counter() - start
        assert sorted(execution.logical) == list(range(128))
        assert execution.max_skew(config.duration) <= skew_bound(
            execution.topology.diameter
        )
        assert execution.live_stats["events"] > 128
        # ~0.15s of scaled sim time plus startup; far under a minute.
        assert wall < 30.0

    def test_router_runs_crash_recover_faults_live(self):
        config = LiveRunConfig(
            topology="line:6", algorithm="gradient", duration=8.0,
            rho=0.2, seed=4, transport="router", time_scale=0.05,
            faults="crash-recover:0.34,2",
        )
        execution = run_live(config)
        stats = execution.fault_stats
        assert stats is not None
        assert stats["crashes"] >= 1
        assert stats["recoveries"] >= 1
        # The trace carries the same CRASH/RECOVER events the simulator
        # records, at matching counts.
        assert len(execution.trace.of_kind("crash")) == stats["crashes"]
        assert len(execution.trace.of_kind("recover")) == stats["recoveries"]

    def test_router_runs_rewirings_live(self):
        config = LiveRunConfig(
            topology="line:6", algorithm="gradient", duration=8.0,
            rho=0.2, seed=5, transport="router", time_scale=0.05,
            mobility="blink:0.3,2",
        )
        execution = run_live(config)
        assert execution.topology_timeline is not None
        assert execution.is_dynamic
        assert len(execution.topology_timeline) >= 2
        # The same row a simulated mobile cell gives: one TOPOLOGY event
        # per swap (recorded once, not once per shard) and no fault
        # counters on a cell with no fault plan.
        assert len(execution.trace.of_kind("topology")) == (
            len(execution.topology_timeline) - 1
        )
        assert execution.fault_stats is None

    @pytest.mark.parametrize("faults", ["loss:0.2", "duplicate:0.2"])
    def test_router_messages_are_the_copies_the_link_carried(self, faults):
        # The sender's controller drops lost copies before they are
        # recorded or framed — the simulator's identity, on the wire.
        config = LiveRunConfig(
            topology="line:6", algorithm="gradient", duration=8.0,
            rho=0.2, seed=3, transport="router", time_scale=0.05,
            faults=faults, workers=2,
        )
        execution = run_live(config)
        stats = execution.fault_stats
        assert stats["lost_random"] + stats["duplicated"] > 0
        assert len(execution.messages) == (
            len(execution.trace.of_kind("send")) - stats["lost_random"]
            - stats["lost_link_down"] + stats["duplicated"]
        )
        assert execution.live_stats["frames_routed"] == len(execution.messages)
