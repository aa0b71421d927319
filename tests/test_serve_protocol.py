"""Wire-protocol properties of the sweep service (no daemon, no clock).

The serve daemon reuses the exact length-prefixed JSON framing of the
live runtime (:mod:`repro.wire`) — these properties mirror the
``test_rt_router.py`` wire-format suite from the second consumer's side
(identity of the helpers, round-trip, truncated-prefix,
trailing-garbage, non-UTF-8 rejection), then add the part only streams
need: :class:`~repro.serve.protocol.FrameBuffer` must reassemble any
frame sequence from any chunking of the byte stream, byte-for-byte,
and poison the connection (a :class:`~repro.errors.ServeError`, never
a wrong record or a hang) on malformed bodies or absurd length
prefixes.  A spliced fetch reply (:func:`~repro.serve.protocol.splice_frame`)
must be byte for byte the frame ``encode_frame`` makes of the full reply.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.serve.protocol as protocol
import repro.wire as wire
from repro.errors import ServeError
from repro.serve.protocol import MAX_FRAME, FrameBuffer, encode_frame, splice_frame

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
)

frame_records = st.dictionaries(
    keys=st.text(min_size=1, max_size=10),
    values=st.one_of(json_scalars, st.lists(json_scalars, max_size=4)),
    max_size=6,
)


class TestSharedFraming:
    """The serve protocol *is* the rt wire format, not a re-implementation."""

    def test_helpers_are_the_rt_helpers(self):
        from repro.rt import shard

        assert protocol.encode_frame is wire.encode_frame is shard.encode_frame
        assert protocol.decode_frame is wire.decode_frame is shard.decode_frame

    @given(record=frame_records)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, record):
        assert protocol.decode_frame(protocol.encode_frame(record)) == record

    @given(record=frame_records, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_strict_prefix_rejected(self, record, data):
        frame = protocol.encode_frame(record)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        assert protocol.decode_frame(frame[:cut]) is None

    @given(record=frame_records, extra=st.binary(min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_trailing_garbage_rejected(self, record, extra):
        assert protocol.decode_frame(protocol.encode_frame(record) + extra) is None

    def test_non_utf8_body_rejected(self):
        body = b"\xff\xfe\x00\x01"
        assert protocol.decode_frame(struct.pack(">I", len(body)) + body) is None

    @given(record=frame_records)
    @settings(max_examples=30, deadline=None)
    def test_any_buffer_decodes_alike(self, record):
        frame = protocol.encode_frame(record)
        for buffer in (bytearray(frame), memoryview(frame)):
            assert protocol.decode_frame(buffer) == record
        view = memoryview(bytearray(frame) + b"tail")[:len(frame)]
        assert protocol.decode_frame(view) == record
        assert protocol.decode_frame(view[:-1]) is None


class TestFrameBuffer:
    @given(records=st.lists(frame_records, max_size=6), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_reassembles_any_chunking(self, records, data):
        # However recv slices the stream — byte by byte, all at once,
        # anything between — the exact record sequence comes back out.
        stream = b"".join(encode_frame(record) for record in records)
        buffer = FrameBuffer()
        out = []
        position = 0
        while position < len(stream):
            step = data.draw(
                st.integers(min_value=1, max_value=len(stream) - position)
            )
            buffer.feed(stream[position:position + step])
            position += step
            out.extend(buffer.frames())
        assert out == records
        assert len(buffer) == 0

    @given(record=frame_records)
    @settings(max_examples=60, deadline=None)
    def test_partial_frame_yields_nothing(self, record):
        frame = encode_frame(record)
        buffer = FrameBuffer()
        buffer.feed(frame[:-1])
        assert buffer.pop() is None
        buffer.feed(frame[-1:])
        assert buffer.pop() == record

    def test_non_utf8_body_poisons_the_stream(self):
        body = b"\xff\xfe\x00\x01"
        buffer = FrameBuffer()
        buffer.feed(struct.pack(">I", len(body)) + body)
        with pytest.raises(ServeError, match="UTF-8"):
            buffer.pop()

    def test_large_frame_then_half_a_frame(self):
        # A fetch-sized frame is decoded through a view of the buffer;
        # the partial frame behind it stays buffered, byte for byte.
        big = {"results": [{"cell": k, "skew": k / 7} for k in range(9000)]}
        small = {"ok": True, "sweep": "0123456789abcdef"}
        first, second = encode_frame(big), encode_frame(small)
        assert len(first) >= 256 * 1024
        half = len(second) // 2
        buffer = FrameBuffer()
        buffer.feed(first + second[:half])
        assert buffer.pop() == big
        assert buffer.pop() is None
        assert len(buffer) == half
        buffer.feed(second[half:])
        assert buffer.pop() == small
        assert len(buffer) == 0

    def test_non_utf8_body_after_a_large_frame_poisons_the_stream(self):
        big = {"results": ["x" * 64] * 5000}
        body = b"\xff\xfe\x00\x01"
        buffer = FrameBuffer()
        buffer.feed(encode_frame(big) + struct.pack(">I", len(body)) + body)
        assert buffer.pop() == big
        with pytest.raises(ServeError, match="UTF-8"):
            buffer.pop()

    def test_non_object_body_poisons_the_stream(self):
        body = b"[1, 2, 3]"
        buffer = FrameBuffer()
        buffer.feed(struct.pack(">I", len(body)) + body)
        with pytest.raises(ServeError, match="object"):
            buffer.pop()

    def test_oversize_prefix_rejected_before_any_body_arrives(self):
        buffer = FrameBuffer()
        buffer.feed(struct.pack(">I", MAX_FRAME + 1))
        with pytest.raises(ServeError, match="cap"):
            buffer.pop()

    def test_valid_frame_at_the_cap_boundary_is_not_rejected(self):
        record = {"k": "v"}
        frame = encode_frame(record)
        buffer = FrameBuffer()
        buffer.feed(frame)
        assert buffer.pop() == record


metric_values = st.one_of(
    st.none(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)

result_lists = st.lists(
    st.dictionaries(st.text(max_size=8), metric_values, max_size=4),
    max_size=5,
)


class TestSplicedFrame:
    """A fetch reply spliced from a packed body is the encoded full reply."""

    @given(name=st.text(max_size=12), spec=frame_records, results=result_lists)
    @example(
        name="σweep ✓ 測試",
        spec={"seeds": [0, 1]},
        results=[{"max_skew": float("nan"), "ratio": 1e-300, "n": 3}],
    )
    @settings(max_examples=80, deadline=None)
    def test_splice_equals_encode_frame_of_full_reply(self, name, spec, results):
        head = {"ok": True, "sweep": "0123456789abcdef", "name": name,
                "spec": spec}
        raw = json.dumps(results, separators=(",", ":")).encode()
        assert splice_frame(head, "results", raw) == encode_frame(
            {**head, "results": results}
        )

    def test_a_view_of_the_raw_value_splices_alike(self):
        body = json.dumps([{"n": 1}, None], separators=(",", ":")).encode()
        view = memoryview(b"header\n" + body)[len(b"header\n"):]
        assert splice_frame({"ok": True}, "results", view) == encode_frame(
            {"ok": True, "results": [{"n": 1}, None]}
        )

    def test_empty_head(self):
        raw = json.dumps([1.5, None], separators=(",", ":")).encode()
        assert splice_frame({}, "results", raw) == encode_frame(
            {"results": [1.5, None]}
        )

    def test_a_key_already_in_the_head_is_refused(self):
        with pytest.raises(ValueError, match="results"):
            splice_frame({"results": []}, "results", b"[]")
