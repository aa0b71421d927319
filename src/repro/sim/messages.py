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
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional, Protocol

from repro.errors import DelayBoundError

__all__ = [
    "Message",
    "DelayPolicy",
    "HalfDistanceDelay",
    "FixedFractionDelay",
    "UniformRandomDelay",
    "PerPairDelay",
    "JitterDelay",
    "SequenceDelay",
    "validate_delay",
]


class Message(NamedTuple):
    """An in-flight message.

    ``seq`` is the global send order; ``send_time``/``receive_time`` are
    real times (invisible to nodes — nodes only ever see ``payload`` and
    ``sender``).  A named tuple, not a dataclass: the simulator records
    one plain 6-tuple per network copy in its hot loop, and an execution
    of 10^5 messages is re-wrapped into these at C speed and 88 bytes
    apiece.
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
    if delay < -tol or delay > distance + tol:
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


@dataclass(frozen=True)
class JitterDelay:
    """A common propagation base plus small uniform jitter, for RBS clusters.

    Models a radio broadcast: everyone hears the signal after ``base``
    plus at most ``d_ij`` of jitter, so the *uncertainty* stays ``d_ij``
    while the absolute delay can be larger than the distance.  To stay
    inside the model band the base must not exceed the distance; RBS
    topologies therefore carry the base inside ``d_ij`` (see
    ``topology.broadcast_cluster``).
    """

    jitter_frac: float = 1.0

    def delay(
        self,
        sender: int,
        receiver: int,
        send_time: float,
        distance: float,
        seq: int,
        rng: random.Random,
    ) -> float:
        return rng.uniform(0.0, self.jitter_frac * distance)


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
