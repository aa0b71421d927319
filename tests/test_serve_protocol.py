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
prefixes.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.protocol as protocol
import repro.wire as wire
from repro.errors import ServeError
from repro.serve.protocol import MAX_FRAME, FrameBuffer, encode_frame

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
