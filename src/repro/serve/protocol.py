"""Wire protocol of the sweep service: length-prefixed JSON frames.

The serve daemon speaks the exact frame format the live runtime already
puts on the wire — a 4-byte big-endian length prefix followed by that
many bytes of UTF-8 JSON — by importing :func:`encode_frame` /
:func:`decode_frame` from :mod:`repro.wire`, the framing module below
the layer DAG, rather than redefining them (``serve`` imports nothing
from :mod:`repro.rt`).  One format, two transports: datagrams between
live nodes, and request/reply streams between serve clients and the
daemon.  The hypothesis properties in ``tests/test_serve_protocol.py``
and ``tests/test_rt_router.py`` cover the shared helpers from both
consumers.

Streams add one wrinkle datagrams do not have: a TCP read may return
half a frame, or two and a half.  :class:`FrameBuffer` is the
incremental parser both sides use — feed it whatever ``recv`` returned,
pop complete records as they materialize.  Its error contract mirrors
``decode_frame``'s: a body that is not valid UTF-8 JSON, a frame whose
top-level value is not an object, or a length prefix past
:data:`MAX_FRAME` raises :class:`~repro.errors.ServeError` (on a
stream there is no resynchronizing after garbage — the connection is
poisoned and must be dropped), while an incomplete tail simply waits
for more bytes.
"""

from __future__ import annotations

import socket
from typing import Iterator, Optional

from repro.errors import ServeError
from repro.wire import LENGTH_PREFIX, decode_frame, encode_frame

__all__ = [
    "MAX_FRAME",
    "PROTOCOL_VERSION",
    "FrameBuffer",
    "decode_frame",
    "encode_frame",
    "recv_frame",
    "send_frame",
]

#: Bump on incompatible request/reply shape changes; ``ping`` echoes it.
PROTOCOL_VERSION = 1

#: Upper bound a length prefix may claim, so a corrupt or hostile
#: prefix cannot make the daemon allocate gigabytes.  Far above any real
#: reply: a full-spec sweep's fetch payload is a few megabytes.
MAX_FRAME = 64 * 1024 * 1024


class FrameBuffer:
    """Incremental frame parser for one stream connection."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def feed(self, data: bytes) -> None:
        self._buf += data

    def frames(self) -> Iterator[dict]:
        """Pop every complete record currently buffered, in order."""
        while True:
            record = self.pop()
            if record is None:
                return
            yield record

    def pop(self) -> Optional[dict]:
        """One complete record, or ``None`` while the tail is partial."""
        if len(self._buf) < LENGTH_PREFIX.size:
            return None
        (length,) = LENGTH_PREFIX.unpack_from(self._buf)
        if length > MAX_FRAME:
            raise ServeError(
                f"frame length prefix claims {length} bytes "
                f"(cap {MAX_FRAME}); corrupt stream"
            )
        end = LENGTH_PREFIX.size + length
        if len(self._buf) < end:
            return None
        # Reassemble the datagram shape so decode_frame — the validation
        # path the live runtime uses — is the single decoder.
        datagram = bytes(self._buf[:end])
        del self._buf[:end]
        record = decode_frame(datagram)
        if record is None:
            raise ServeError(
                "malformed frame body (not UTF-8 JSON); corrupt stream"
            )
        if not isinstance(record, dict):
            raise ServeError(
                f"frame body must be a JSON object, got {type(record).__name__}"
            )
        return record


def send_frame(sock: socket.socket, record: dict) -> None:
    """Write one record to a connected stream socket."""
    sock.sendall(encode_frame(record))


def recv_frame(
    sock: socket.socket,
    buffer: FrameBuffer,
    *,
    peer: str = "peer",
    what: str = "frame",
) -> dict:
    """Block until one complete record arrives on ``sock``.

    Raises :class:`ServeError` naming ``peer`` on EOF (the other side
    died or was killed — the prompt-failure contract) and on a receive
    timeout, never a bare ``EOFError`` or a hang.
    """
    while True:
        record = buffer.pop()
        if record is not None:
            return record
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            raise ServeError(
                f"timed out waiting for a {what} from {peer}"
            ) from None
        except OSError as exc:
            raise ServeError(f"connection to {peer} failed: {exc}") from None
        if not chunk:
            raise ServeError(
                f"{peer} closed the connection before sending a complete "
                f"{what} — it likely died or was killed"
            )
        buffer.feed(chunk)
