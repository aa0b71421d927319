"""Hardware and logical clocks (Section 3 of the paper).

A *hardware clock* is the integral of a bounded-drift rate function
(Assumption 1: rates in ``[1 - rho, 1 + rho]``).  A *logical clock* is
computed by the node from its hardware clock and the messages it receives.

Algorithms in this package realize logical clocks in the standard two
ways, both satisfying the paper's validity requirement (Requirement 1:
every interval of length ``r`` gains at least ``r/2``) by construction:

* **forward jumps** — ``L`` advances at the hardware rate and takes
  discrete jumps, never backward (max-based, Srikanth–Toueg, ...);
* **rate modulation** — ``L`` advances at ``m(t) * h(t)`` for a
  multiplier ``m(t) >= 1`` chosen by the algorithm (the blocking
  gradient candidate runs "fast mode" this way, exactly like the
  GCS algorithms in the follow-on literature).

With ``rho <= 1/2`` the logical rate is always at least
``1 - rho >= 1/2`` and jumps only move forward, so Requirement 1 holds.

Both clocks are piecewise linear in real time, so Requirement 1 is
checked exactly, on their breakpoints rather than on a sample grid:
it holds on ``[0, horizon]`` iff no jump up to the horizon is negative
and the slope ``multiplier * hardware rate`` of every piece starting
before it is at least the required rate (both within ``TIME_EPS``).
:meth:`LogicalClock.check_validity` runs that test for one clock and
``Execution.check_validity`` for every node at once, in one array pass
over the gathered segments of all clocks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro._constants import TIME_EPS
from repro.errors import DriftBoundError, ValidityError
from repro.sim.rates import PiecewiseConstantRate

__all__ = ["HardwareClock", "LogicalClock"]


def _gather(columns: list) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Per-node segment columns (one tuple of equal-length sequences per
    row) concatenated column by column, with each entry's row number and
    each row's first position in the concatenation."""
    n = len(columns)
    lengths = np.fromiter(map(len, (c[0] for c in columns)), dtype=np.intp, count=n)
    total = int(lengths.sum())
    stacked = [
        np.fromiter(chain.from_iterable(c[i] for c in columns), dtype=float, count=total)
        for i in range(len(columns[0]))
    ]
    first = np.zeros(n, dtype=np.intp)
    np.cumsum(lengths[:-1], out=first[1:])
    return stacked, np.repeat(np.arange(n, dtype=float), lengths), first


def _keys(rows: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The complex keys ``rows + 1j * times``, built by assigning both
    parts (so each is exact) rather than by complex arithmetic."""
    rows, times = np.broadcast_arrays(rows, times)
    keys = np.empty(rows.shape, dtype=complex)
    keys.real = rows
    keys.imag = times
    return keys


def _validity_witnesses(
    logical: list, hardware: list, horizon: float, rate: float
) -> list[tuple[int, float, str, float]]:
    """Requirement 1 on ``[0, horizon]`` for rows of clocks, exactly.

    ``logical[r]`` is row ``r``'s :meth:`LogicalClock.columns` and
    ``hardware[r]`` its ``PiecewiseConstantRate.columns()``.  Returns one
    ``(row, time, kind, value)`` per failing row, rows ascending: the
    row's earliest failure, a ``"jump"`` (a segment opening below the
    previous segment carried to its start, ``value`` the jump) before a
    ``"slope"`` (``value = multiplier * hardware rate`` on the piece
    starting at ``time``) at one instant.

    Every row is gathered into one array and keyed ``row + 1j * t``, as
    in ``Execution.logical_matrix``.  The pieces of a row start at its
    logical and hardware breakpoints; each piece's slope is read at its
    start (both factors are right-continuous), so no merge is needed.
    """
    (seg_t, values, mults), seg_rows, seg_first = _gather(logical)
    (hw_start, rates, cumulative), hw_rows, _ = _gather(hardware)
    seg_keys = _keys(seg_rows, seg_t)
    hw_keys = _keys(hw_rows, hw_start)
    h = np.searchsorted(hw_keys, seg_keys, side="right") - 1
    h_seg = cumulative[h] + (seg_t - hw_start[h]) * rates[h]
    # A segment's opening jump: its value minus the previous segment
    # carried to its start.  A row's first segment opens with none.
    jumps = np.zeros(seg_t.size)
    jumps[1:] = values[1:] - (values[:-1] + mults[:-1] * (h_seg[1:] - h_seg[:-1]))
    jumps[seg_first] = 0.0
    k = np.searchsorted(seg_keys, hw_keys, side="right") - 1
    slopes = np.concatenate((mults * rates[h], mults[k] * rates))
    starts = np.concatenate((seg_t, hw_start))
    jump_bad = np.nonzero((jumps < -TIME_EPS) & (seg_t <= horizon + TIME_EPS))[0]
    slope_bad = np.nonzero((slopes < rate - TIME_EPS) & (starts < horizon))[0]
    if not (jump_bad.size or slope_bad.size):
        return []
    rows = np.concatenate((seg_rows, hw_rows))
    kind = np.concatenate((np.zeros(jump_bad.size), np.ones(slope_bad.size)))
    bad_rows = np.concatenate((seg_rows[jump_bad], rows[slope_bad]))
    bad_t = np.concatenate((seg_t[jump_bad], starts[slope_bad]))
    bad_v = np.concatenate((jumps[jump_bad], slopes[slope_bad]))
    order = np.lexsort((kind, bad_t, bad_rows))
    _, first = np.unique(bad_rows[order], return_index=True)
    return [
        (int(bad_rows[i]), float(bad_t[i]), "slope" if kind[i] else "jump", float(bad_v[i]))
        for i in order[first].tolist()
    ]


def _validity_error(
    label: str, witness: tuple[int, float, str, float], rate: float
) -> ValidityError:
    """The :class:`ValidityError` for one of :func:`_validity_witnesses`'
    witnesses, naming ``label`` (the clock or node)."""
    _, t, kind, value = witness
    if kind == "jump":
        return ValidityError(
            f"{label}: backward jump of {value} at t={t} violates Requirement 1"
        )
    return ValidityError(
        f"{label}: logical rate {value} from t={t} is below {rate} "
        f"(Requirement 1)"
    )


@dataclass(frozen=True)
class HardwareClock:
    """A drifting hardware clock: a validated rate schedule.

    Parameters
    ----------
    schedule:
        The piecewise-constant rate function ``h(t)``.
    rho:
        The drift bound; construction fails unless every rate lies in
        ``[1 - rho, 1 + rho]`` (Assumption 1).
    """

    schedule: PiecewiseConstantRate
    rho: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rho < 1.0:
            raise DriftBoundError(f"rho must lie in [0, 1), got {self.rho}")
        lo, hi = 1.0 - self.rho, 1.0 + self.rho
        if not self.schedule.within_bounds(lo - TIME_EPS, hi + TIME_EPS):
            raise DriftBoundError(
                f"hardware rates must lie in [{lo}, {hi}]; "
                f"schedule has range [{self.schedule.min_rate()}, "
                f"{self.schedule.max_rate()}]"
            )

    def value_at(self, t: float) -> float:
        """``H(t)``, the clock reading at real time ``t``."""
        return self.schedule.value_at(t)

    def values_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """``H(t)`` for a whole array of times (one vectorized lookup)."""
        return self.schedule.values_at(times)

    def time_at(self, value: float) -> float:
        """The real time at which the clock reads ``value``."""
        return self.schedule.invert(value)

    def rate_at(self, t: float) -> float:
        """``h(t)``, the instantaneous rate."""
        return self.schedule.rate_at(t)


class LogicalClock:
    """A logical clock ``L`` built from a hardware clock.

    Between control actions, ``L`` advances at ``multiplier * h(t)``.
    Control actions are *forward jumps* and *multiplier changes*
    (multiplier always ``>= 1``).  Every action closes a segment, so
    ``value_at`` reconstructs ``L`` at any past real time — that
    reconstruction is what all skew measurements and gradient-property
    checks read.

    Backward jumps and multipliers below 1 raise :class:`ValidityError`
    (they could violate Requirement 1).
    """

    #: Sanity cap on multipliers; algorithms wanting faster catch-up
    #: should jump instead.
    MAX_MULTIPLIER = 8.0

    def __init__(self, hardware: HardwareClock, initial_value: float = 0.0):
        self.hardware = hardware
        # Segment k: from real time _times[k], L = _values[k] +
        # _mults[k] * (H(t) - H(_times[k])).
        self._times: list[float] = [0.0]
        self._values: list[float] = [float(initial_value)]
        self._mults: list[float] = [1.0]

    # ------------------------------------------------------------------
    # runtime interface (used by algorithms during simulation)

    @property
    def multiplier(self) -> float:
        """The current rate multiplier."""
        return self._mults[-1]

    def read(self, t: float) -> float:
        """The current logical value at real time ``t``."""
        return self._segment_value(len(self._times) - 1, t)

    def _segment_value(self, k: int, t: float) -> float:
        h_now = self.hardware.value_at(t)
        h_seg = self.hardware.value_at(self._times[k])
        return self._values[k] + self._mults[k] * (h_now - h_seg)

    def _append_segment(self, t: float, value: float, mult: float) -> None:
        if t < self._times[-1] - TIME_EPS:
            raise ValidityError(
                f"clock action at t={t} precedes previous action at "
                f"{self._times[-1]}"
            )
        if abs(t - self._times[-1]) <= TIME_EPS:
            # Same-instant actions collapse into one segment.
            self._values[-1] = value
            self._mults[-1] = mult
            self._times[-1] = min(self._times[-1], t)
        else:
            self._times.append(t)
            self._values.append(value)
            self._mults.append(mult)

    def jump_to(self, t: float, target: float) -> float:
        """Jump the logical clock forward to ``target`` at real time ``t``.

        Returns the jump size.  A target at or below the current value is
        a no-op (``max(own, received)`` semantics).
        """
        current = self.read(t)
        if target <= current + TIME_EPS:
            return 0.0
        return self.jump_by(t, target - current)

    def jump_by(self, t: float, amount: float) -> float:
        """Jump the logical clock forward by ``amount >= 0`` at time ``t``."""
        if amount < -TIME_EPS:
            raise ValidityError(
                f"backward jump of {amount} at t={t} violates Requirement 1"
            )
        if amount <= 0.0:
            return 0.0
        value = self.read(t) + amount
        self._append_segment(t, value, self._mults[-1])
        return amount

    def min_multiplier(self) -> float:
        """The smallest multiplier that cannot violate Requirement 1.

        The logical rate is ``m * h(t) >= m * (1 - rho)``; Requirement 1
        demands at least ``1/2``, so ``m >= 1 / (2 (1 - rho))`` is always
        safe.  (For ``rho = 0`` that is ``1/2``; for ``rho = 1/2`` it is
        ``1`` — slowing down costs exactly the drift headroom.)
        """
        return 1.0 / (2.0 * (1.0 - self.hardware.rho))

    def set_multiplier(self, t: float, multiplier: float) -> None:
        """Change the logical rate to ``multiplier * h(t)`` from ``t`` on.

        ``multiplier`` must lie in ``[min_multiplier(), MAX_MULTIPLIER]``;
        smaller values could break validity under adversarial hardware
        rates.
        """
        if multiplier < self.min_multiplier() - TIME_EPS:
            raise ValidityError(
                f"multiplier {multiplier} below the validity-safe floor "
                f"{self.min_multiplier()} (Requirement 1)"
            )
        if multiplier > self.MAX_MULTIPLIER:
            raise ValidityError(
                f"multiplier {multiplier} exceeds sanity cap "
                f"{self.MAX_MULTIPLIER}"
            )
        if abs(multiplier - self._mults[-1]) <= TIME_EPS:
            return
        self._append_segment(t, self.read(t), multiplier)

    # ------------------------------------------------------------------
    # post-hoc interface (used by analysis after the run)

    def value_at(self, t: float) -> float:
        """``L(t)`` reconstructed at any past real time."""
        k = bisect_right(self._times, t) - 1
        if k < 0:
            k = 0
        return self._segment_value(k, t)

    def values_at(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """``L(t)`` for a whole array of times at once.

        The batched analogue of :meth:`value_at`: one ``searchsorted``
        locates every sample's segment, then all segment evaluations run
        as array arithmetic.  The per-element operations are exactly
        :meth:`_segment_value`'s, so scalar and batched reconstructions
        agree bitwise — the equivalence the analysis layer's tests pin.
        """
        t = np.asarray(times, dtype=float)
        seg_starts = np.asarray(self._times, dtype=float)
        k = np.searchsorted(seg_starts, t, side="right") - 1
        k = np.maximum(k, 0)
        h_now = self.hardware.values_at(t)
        h_seg = self.hardware.values_at(seg_starts)
        values = np.asarray(self._values, dtype=float)
        mults = np.asarray(self._mults, dtype=float)
        return values[k] + mults[k] * (h_now - h_seg[k])

    def columns(self) -> tuple[list[float], list[float], list[float]]:
        """The segments as ``(times, values, multipliers)`` lists (the
        clock's own; read, do not mutate): from real time ``times[k]``,
        ``L = values[k] + multipliers[k] * (H(t) - H(times[k]))``."""
        return self._times, self._values, self._mults

    def segments(self) -> list[tuple[float, float, float]]:
        """All recorded ``(real_time, value, multiplier)`` control points."""
        return list(zip(self._times, self._values, self._mults))

    def time_at(self, value: float) -> float:
        """The earliest real time at which ``L(t) >= value``.

        ``L`` is strictly increasing between control points and jumps
        forward at them, so the preimage of a value skipped by a jump is
        the jump instant.  Used by applications (e.g. TDMA) that need to
        know *when on the wall clock* a node's logical clock crossed a
        boundary.
        """
        k = bisect_right(self._values, value) - 1
        if k < 0:
            return 0.0
        t_seg, v_seg, mult = self._times[k], self._values[k], self._mults[k]
        h_target = self.hardware.value_at(t_seg) + (value - v_seg) / mult
        t = self.hardware.time_at(h_target)
        # value >= v_seg = L(t_seg), so the preimage cannot precede the
        # segment start; float error in the inversion could land just
        # below it, which would drop the segment's opening jump.
        t = max(t, t_seg)
        if k + 1 < len(self._times) and t > self._times[k + 1]:
            # The value falls inside a forward jump: crossed at the jump.
            return self._times[k + 1]
        return t

    def check_validity(self, horizon: float, *, rate: float = 0.5) -> None:
        """Assert Requirement 1: ``L(t + r) - L(t) >= rate * r`` on ``[0, horizon]``.

        With forward-only jumps, multipliers >= 1, and hardware rate
        ``>= 1 - rho``, this can fail only for out-of-model inputs; the
        check exists so experiments *demonstrate* compliance rather than
        assume it.  Exact: every jump and every piece's slope up to the
        horizon is tested (see the module docstring), and the earliest
        failure is reported.
        """
        witnesses = _validity_witnesses(
            [self.columns()], [self.hardware.schedule.columns()], horizon, rate
        )
        if witnesses:
            raise _validity_error("logical clock", witnesses[0], rate)
