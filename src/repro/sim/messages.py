"""Messages and delay policies.

The model (Section 3) says a message from ``i`` to ``j`` arrives after a
delay in ``[0, d_ij]`` where ``d_ij`` is the *distance* (delay
uncertainty).  Who picks the delay?  The adversary.  A
:class:`DelayPolicy` is that adversary's delay strategy; the simulator
validates every choice against the ``[0, d_ij]`` band.

The baseline policy throughout Section 8 of the paper is "exactly half the
distance" (:class:`HalfDistanceDelay`); the lower-bound constructions
replace it inside warped windows (see :mod:`repro.gcs.oracle`).
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Iterator, NamedTuple, Optional, Protocol

from repro.errors import DelayBoundError

__all__ = [
    "Message",
    "MessageLog",
    "DelayPolicy",
    "HalfDistanceDelay",
    "FixedFractionDelay",
    "UniformRandomDelay",
    "PerPairDelay",
    "SequenceDelay",
    "validate_delay",
]


class Message(NamedTuple):
    """An in-flight message.

    ``seq`` is the global send order; ``send_time``/``receive_time`` are
    real times (invisible to nodes — nodes only ever see ``payload`` and
    ``sender``).  A named tuple, not a dataclass: the simulator records
    one plain 6-tuple per network copy in its hot loop, and a
    :class:`MessageLog` wraps a row into one of these, at C speed, only
    when it is read.
    """

    seq: int
    sender: int
    receiver: int
    payload: Any
    send_time: float
    delay: float

    @property
    def receive_time(self) -> float:
        return self.send_time + self.delay


#: ``Message._make`` for one row, as a C-level call.
_WRAP = tuple.__new__


class MessageLog(Sequence):
    """The simulator's message record: its plain 6-tuple rows, read as
    :class:`Message` records.

    The rows are the only copy.  A :class:`Message` is made for an index,
    a slice or an iteration step when it is read and kept by nobody
    here, so ``len()`` — all a metrics row needs — makes none, and a run
    never holds two records of a message.  An item assignment stores
    the given record as the row.  A log equals a list of the same records (and
    the list equals the log), so it compares with the reference loop's
    plain list.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: list[tuple]):
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(_WRAP, repeat(Message), self._rows[index]))
        return _WRAP(Message, self._rows[index])

    def __iter__(self) -> Iterator[Message]:
        return map(_WRAP, repeat(Message), self._rows)

    def __setitem__(self, index, value) -> None:
        self._rows[index] = value

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MessageLog):
            return self._rows == other._rows
        if isinstance(other, list):
            # Rows and records are tuples of the same fields.
            return self._rows == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"MessageLog({list(self)!r})"


class DelayPolicy(Protocol):
    """The adversary's delay strategy.

    Implementations return the delay for a message from ``sender`` to
    ``receiver`` handed to the network at real time ``send_time``; the
    simulator checks the result against ``[0, distance]``.
    """

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        """Return the message delay in real-time units."""
        ...


def validate_delay(delay: float, distance: float, *, tol: float = 1e-9) -> float:
    """Clamp-and-check a delay against the model band ``[0, distance]``."""
    # One negated chain, so a NaN delay (false under every comparison)
    # fails by name instead of scheduling a delivery at an undefined time.
    if not -tol <= delay <= distance + tol:
        raise DelayBoundError(
            f"delay {delay} outside [0, {distance}] allowed by the model"
        )
    return min(max(delay, 0.0), distance)


@dataclass(frozen=True)
class HalfDistanceDelay:
    """Every message takes exactly ``d_ij / 2`` — the paper's quiet baseline."""

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        return distance / 2.0

    def broadcast_delays(
        self, sender: int, receivers: list[int], distances: list[float]
    ) -> list[float]:
        """Whole-neighborhood form of :meth:`delay` for the simulator.

        Only policies whose delay depends purely on the pair distance can
        offer this hook — it must return exactly ``delay(...)``'s floats,
        which lets the simulator precompute and batch-schedule a broadcast's
        deliveries without touching the RNG stream.
        """
        return [d / 2.0 for d in distances]


@dataclass(frozen=True)
class FixedFractionDelay:
    """Every message takes ``fraction * d_ij`` (``fraction`` in ``[0, 1]``)."""

    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise DelayBoundError(f"fraction must be in [0, 1], got {self.fraction}")

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        return self.fraction * distance

    def broadcast_delays(
        self, sender: int, receivers: list[int], distances: list[float]
    ) -> list[float]:
        """Distance-only hook for the simulator (see
        :meth:`HalfDistanceDelay.broadcast_delays`)."""
        return [self.fraction * d for d in distances]


@dataclass(frozen=True)
class UniformRandomDelay:
    """Delay uniform in ``[lo_frac * d, hi_frac * d]`` — a benign random network."""

    lo_frac: float = 0.0
    hi_frac: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo_frac <= self.hi_frac <= 1.0:
            raise DelayBoundError(
                f"need 0 <= lo <= hi <= 1, got [{self.lo_frac}, {self.hi_frac}]"
            )

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        return rng.uniform(self.lo_frac * distance, self.hi_frac * distance)


class PerPairDelay:
    """Fixed per-ordered-pair delays with a fallback policy.

    Used to script asymmetric scenarios like the Section 2 three-node
    example (delay ``D`` one way, ``0`` the other), and to change a pair's
    delay at a chosen real time (``set_after``).
    """

    def __init__(self, fallback: Optional[DelayPolicy] = None):
        self._fixed: dict[tuple[int, int], float] = {}
        self._timed: dict[tuple[int, int], list[tuple[float, float]]] = {}
        self._fallback: DelayPolicy = fallback or HalfDistanceDelay()

    def set(self, sender: int, receiver: int, delay: float) -> "PerPairDelay":
        """Fix the delay for messages ``sender -> receiver``."""
        self._fixed[(sender, receiver)] = delay
        return self

    def set_after(
        self, sender: int, receiver: int, time: float, delay: float
    ) -> "PerPairDelay":
        """From real time ``time`` on, messages ``sender -> receiver`` take ``delay``."""
        self._timed.setdefault((sender, receiver), []).append((time, delay))
        self._timed[(sender, receiver)].sort()
        return self

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        key = (sender, receiver)
        timed = self._timed.get(key)
        if timed:
            chosen = None
            for start, value in timed:
                if send_time >= start:
                    chosen = value
            if chosen is not None:
                return chosen
        if key in self._fixed:
            return self._fixed[key]
        return self._fallback.delay(sender, receiver, send_time, distance, seq, rng)


class SequenceDelay:
    """Delays scripted per message sequence number (replay of a recorded run)."""

    def __init__(self, delays: dict[int, float], fallback: Optional[DelayPolicy] = None):
        self._delays = dict(delays)
        self._fallback: DelayPolicy = fallback or HalfDistanceDelay()

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        if seq in self._delays:
            return self._delays[seq]
        return self._fallback.delay(sender, receiver, send_time, distance, seq, rng)
