"""The wire framing: length-prefixed JSON, one format for every socket.

A frame is a 4-byte big-endian length prefix followed by exactly that
many bytes of UTF-8 JSON.  The prefix makes truncation detectable (a
datagram whose body length disagrees with its prefix decodes to
``None``), and the format is language-neutral, so a non-Python peer can
join.  Two consumers share it: :mod:`repro.rt.shard` puts one frame in
each UDP datagram between live nodes, and :mod:`repro.serve.protocol`
streams frames between sweep clients and the daemon.  The module sits
below the layer DAG next to ``_constants`` and ``errors`` (see
:mod:`repro.check.layering`), so neither consumer imports the other.
"""

from __future__ import annotations

import json
import struct

__all__ = ["LENGTH_PREFIX", "decode_frame", "encode_frame"]

#: The 4-byte big-endian body-length prefix.
LENGTH_PREFIX = struct.Struct(">I")


def encode_frame(record: dict) -> bytes:
    """Length-prefixed JSON: the whole wire format in one line."""
    body = json.dumps(record, separators=(",", ":")).encode()
    return LENGTH_PREFIX.pack(len(body)) + body


def decode_frame(datagram: bytes) -> dict | None:
    """Parse a frame; ``None`` for truncated or malformed datagrams."""
    if len(datagram) < LENGTH_PREFIX.size:
        return None
    (length,) = LENGTH_PREFIX.unpack_from(datagram)
    body = datagram[LENGTH_PREFIX.size:]
    if len(body) != length:
        return None
    try:
        return json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
