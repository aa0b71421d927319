"""Finished executions: clock reads and the model-compliance checks.

An :class:`Execution` is the complete record of one run: clocks, trace,
and delivered messages.  It reads clocks — ``L_i(t)``, the ``n x T``
logical matrix, signed skew at one instant — and runs the
model-compliance checks (Assumption 1 drift bounds, Requirement 1
validity, the ``[0, d_ij]`` delay band, and the tighter bands the lemmas
assume).  Skew over a sample grid — series, peaks, the gradient profile
``f(d)`` — is measured by :class:`repro.analysis.field.SkewField`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._constants import TIME_EPS, VALIDITY_RATE, window_starts
from repro.errors import DelayBoundError, ScheduleError, ValidityError
from repro.sim.clock import (
    HardwareClock,
    LogicalClock,
    _gather,
    _keys,
    _validity_error,
    _validity_witnesses,
)
from repro.sim.messages import Message
from repro.sim.trace import ExecutionTrace
from repro.topology.base import Topology

__all__ = ["Execution"]


def _last_start(
    ts: np.ndarray, starts: np.ndarray, rows: np.ndarray, n: int
) -> np.ndarray:
    """``index[r, j]``: the position in the gathered ``starts`` of row
    ``r``'s last start ``<= ts[j]`` (sorted ``ts``, rows ``0 .. n-1``),
    or of the row's first start minus one where none is.

    A start counts from the first sample at or after it, so one
    ``searchsorted`` places every start in its row's block of
    ``T + 1`` slots (slot ``T``: after every sample) and one running
    count over all blocks, minus one, is the index: a row's block opens
    after every earlier row's starts."""
    size = ts.size + 1
    placed = rows.astype(np.intp) * size + np.searchsorted(ts, starts, side="left")
    counts = np.cumsum(np.bincount(placed, minlength=n * size))
    return counts.reshape(n, size)[:, :-1] - 1


@dataclass
class Execution:
    """The result of one simulated execution ``alpha``."""

    topology: Topology
    duration: float
    rho: float
    hardware: dict[int, HardwareClock]
    logical: dict[int, LogicalClock]
    trace: ExecutionTrace
    #: Every network copy of every message sent, in send order: a
    #: simulator run's :class:`~repro.sim.messages.MessageLog` (its rows,
    #: wrapped as :class:`Message` records only when read; ``len`` makes
    #: none), a list of records on the other loops.  Copies due after
    #: ``duration`` are recorded although they were never delivered.
    messages: Sequence[Message]
    #: Fault-injection counters (crashes, losses, duplicates, ...) when
    #: the run carried a non-empty fault plan; ``None`` for fault-free
    #: runs, which the paper's model — and most of this package — uses.
    fault_stats: dict | None = None
    #: Where the execution came from: ``"sim"`` for the discrete-event
    #: simulator, ``"live-<transport>"`` for :mod:`repro.rt` runs.  Every
    #: measurement defined on this class applies to both.
    source: str = "sim"
    #: The ``(time, topology)`` timeline of a dynamic-topology run
    #: (first entry at 0.0 — it equals :attr:`topology`); ``None`` for
    #: static runs.  Distance-dependent measurements
    #: (:meth:`topology_at`, :meth:`check_delay_bounds`, the
    #: :class:`~repro.analysis.field.SkewField` adjacent/gradient
    #: queries, :func:`repro.gcs.properties.check_gradient`) evaluate
    #: against the network live at each instant.
    topology_timeline: tuple[tuple[float, Topology], ...] | None = None
    #: Transport-level counters of a :mod:`repro.rt` run — one key set
    #: on every transport name: ``workers``, ``frames_routed``,
    #: ``frames_dropped``, ``events`` (node callbacks dispatched),
    #: ``missed_epochs`` (forked shards that started after the shared
    #: epoch) and ``wall_elapsed`` (seconds ``run_live`` took); ``None`` for
    #: simulator runs.  Dropped frames are wire-level losses (malformed
    #: or misdirected datagrams), distinct from the *injected* losses
    #: counted in :attr:`fault_stats`.
    live_stats: dict | None = None

    # ------------------------------------------------------------------
    # topology queries

    @property
    def is_dynamic(self) -> bool:
        """Whether the network rewired at least once during the run."""
        return self.topology_timeline is not None and len(self.topology_timeline) > 1

    def topology_at(self, t: float) -> Topology:
        """The network live at real time ``t`` (:attr:`topology` if static)."""
        timeline = self.topology_timeline
        if timeline is None or len(timeline) == 1:
            return self.topology
        times = self.__dict__.get("_timeline_times")
        if times is None:
            times = [at for at, _ in timeline]
            self.__dict__["_timeline_times"] = times
        return timeline[max(bisect.bisect_right(times, t) - 1, 0)][1]

    # ------------------------------------------------------------------
    # clock queries

    def hardware_value(self, node: int, t: float) -> float:
        """``H_node(t)``."""
        return self.hardware[node].value_at(t)

    def logical_value(self, node: int, t: float) -> float:
        """``L_node(t)``."""
        return self.logical[node].value_at(t)

    def skew(self, i: int, j: int, t: float) -> float:
        """``L_i(t) - L_j(t)`` (signed)."""
        return self.logical_value(i, t) - self.logical_value(j, t)

    def logical_snapshot(self, t: float) -> dict[int, float]:
        """All logical values at time ``t``."""
        return {n: self.logical_value(n, t) for n in self.topology.nodes}

    def logical_matrix(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """The ``n x T`` matrix of logical values: row ``i`` is ``L_i``
        over ``times`` (any order, repeats allowed).

        One gather for every node at once, indexed by counting: with the
        sample times sorted (stably) once, the segment a row reads at a
        sample is its last logical segment (and last hardware segment)
        starting at or before it, i.e. the number of that row's starts
        ``<= t`` minus one.  One ``searchsorted`` of every start into the
        sorted times, one ``bincount`` and one ``cumsum`` per index count
        them for all ``n x T`` samples (:func:`_last_start`), and the
        columns are un-permuted at the end.  Each logical segment's starting hardware
        value is read once per segment, keyed as the complex number
        ``row + 1j * t`` (numpy orders complex numbers by real part, then
        imaginary part, so ``searchsorted`` compares the keys exactly).
        The element-wise float operations are
        :meth:`~repro.sim.clock.LogicalClock.values_at`'s, so each row
        equals that node's ``values_at(times)`` bitwise.  This is the
        trajectory matrix every :class:`~repro.analysis.field.SkewField`
        query is answered from.  A non-finite or negative time raises
        :class:`~repro.errors.ScheduleError`.
        """
        t = np.asarray(times, dtype=float).ravel()
        if t.size:
            if not np.isfinite(t).all():
                bad = float(t[~np.isfinite(t)][0])
                raise ScheduleError(f"time must be finite, got {bad}")
            if float(t.min()) < 0.0:
                raise ScheduleError(f"time must be nonnegative, got {float(t.min())}")
        nodes = self.topology.nodes
        (seg_t, values, mults), seg_rows, seg_first = _gather(
            [self.logical[node].columns() for node in nodes]
        )
        (hw_start, rates, cumulative), hw_rows, _ = _gather(
            [self.hardware[node].schedule.columns() for node in nodes]
        )
        if float(seg_t.min()) < 0.0:
            raise ScheduleError(f"time must be nonnegative, got {float(seg_t.min())}")
        order = np.argsort(t, kind="stable")
        ts = t[order]
        # Clamping at each row's first segment is ``values_at``'s
        # ``max(k, 0)``; hardware indices need none (``starts[0] = 0``).
        k = np.maximum(_last_start(ts, seg_t, seg_rows, len(nodes)), seg_first[:, None])
        h = _last_start(ts, hw_start, hw_rows, len(nodes))
        h_now = cumulative[h] + (ts - hw_start[h]) * rates[h]
        at = np.searchsorted(
            _keys(hw_rows, hw_start), _keys(seg_rows, seg_t), side="right"
        ) - 1
        h_seg = cumulative[at] + (seg_t - hw_start[at]) * rates[at]
        out = np.empty(k.shape)
        out[:, order] = values[k] + mults[k] * (h_now - h_seg[k])
        return out

    def sample_times(self, step: float = 1.0) -> list[float]:
        """Evenly spaced sample times covering the execution.

        The closing ``duration`` sample appears exactly once:
        ``np.arange`` can emit a final grid point within float error of
        ``duration`` (e.g. ``duration = 3 * 0.1``, ``step = 0.1``), which
        used to double-count the final sample in every mean computed on
        this grid.  Entries are plain Python floats.
        """
        if not (math.isfinite(step) and step > 0):
            raise ValueError(f"step must be positive and finite, got {step}")
        times = [float(t) for t in np.arange(0.0, self.duration, step)]
        while times and times[-1] >= self.duration - TIME_EPS:
            times.pop()
        times.append(float(self.duration))
        return times

    # ------------------------------------------------------------------
    # per-instant skew: contract 3's scalar reference, which every
    # ``SkewField`` answer is held to (``tests/test_field_equivalence.py``)

    def skew_matrix(self, t: float) -> np.ndarray:
        """Signed skew between every ordered pair at time ``t``."""
        values = np.array([self.logical_value(n, t) for n in self.topology.nodes])
        return values[:, None] - values[None, :]

    def max_skew(self, t: float) -> float:
        """Largest absolute skew over all pairs at time ``t``."""
        return float(np.abs(self.skew_matrix(t)).max())

    def max_adjacent_skew(self, t: float) -> float:
        """Largest absolute skew over minimum-distance pairs at ``t``.

        This is the quantity Theorem 8.1 bounds from below: skew between
        nodes at distance 1.  On dynamic runs the minimum-distance pairs
        are those of the network live at ``t``.
        """
        return max(
            abs(self.skew(i, j, t)) for i, j in self.topology_at(t).adjacent_pairs()
        )

    # ------------------------------------------------------------------
    # model-compliance checks

    def check_validity(self, *, rate: float = VALIDITY_RATE) -> None:
        """Requirement 1 for every node on ``[0, duration]``, exactly;
        raises :class:`ValidityError` naming the first failing node (in
        node order), the time, and the bad jump or slope.

        One array pass over every node's gathered segments; each node's
        verdict is its own :meth:`LogicalClock.check_validity`'s.
        """
        nodes = self.topology.nodes
        witnesses = _validity_witnesses(
            [self.logical[node].columns() for node in nodes],
            [self.hardware[node].schedule.columns() for node in nodes],
            self.duration,
            rate,
        )
        if witnesses:
            raise _validity_error(f"node {nodes[witnesses[0][0]]}", witnesses[0], rate)

    def check_drift_bounds(self) -> None:
        """Assumption 1 for every node (re-validated; construction enforces it)."""
        for node, hw in self.hardware.items():
            lo, hi = 1.0 - self.rho, 1.0 + self.rho
            if not hw.schedule.within_bounds(lo - TIME_EPS, hi + TIME_EPS):
                raise ValidityError(f"node {node} hardware rate out of bounds")

    def check_delay_bounds(self) -> None:  # repro: allow[DEAD001] ROADMAP per-row verdict
        """Every delivered message's delay within ``[0, d_ij]``.

        ``d_ij`` is read from the network live at the message's *send*
        time: a delay is chosen (and validated) when the message enters
        the wire, and a later rewiring does not retroactively change it.
        """
        for m in self.messages:
            d = self.topology_at(m.send_time).distance(m.sender, m.receiver)
            if m.delay < -TIME_EPS or m.delay > d + TIME_EPS:
                raise DelayBoundError(
                    f"message {m.seq} ({m.sender}->{m.receiver}) delay {m.delay} "
                    f"outside [0, {d}]"
                )

    def delays_within(
        self,
        lo_frac: float,
        hi_frac: float,
        *,
        received_from: float = 0.0,
        received_until: float | None = None,
    ) -> bool:
        """Whether messages received in the window have delay in
        ``[lo_frac * d, hi_frac * d]``.

        This is the precondition shape of both lemmas: Add Skew needs delay
        exactly ``d/2`` in its window, Bounded Increase needs
        ``[d/4, 3d/4]`` throughout.
        """
        until = received_until if received_until is not None else self.duration
        for m in self.messages:
            rt = m.receive_time
            if rt < received_from - TIME_EPS or rt > until + TIME_EPS:
                continue
            d = self.topology_at(m.send_time).distance(m.sender, m.receiver)
            if m.delay < lo_frac * d - 1e-6 or m.delay > hi_frac * d + 1e-6:
                return False
        return True

    def rates_within(
        self, lo: float, hi: float, *, t_from: float = 0.0, t_until: float | None = None
    ) -> bool:
        """Whether all hardware rates over the window lie in ``[lo, hi]``."""
        until = t_until if t_until is not None else self.duration
        for hw in self.hardware.values():
            if hw.schedule.min_rate(t_from, until) < lo - TIME_EPS:
                return False
            if hw.schedule.max_rate(t_from, until) > hi + TIME_EPS:
                return False
        return True

    # ------------------------------------------------------------------
    # Lemma 7.1 (a per-clock quantity on its own window grid)

    def max_logical_increase(self, *, window: float = 1.0, step: float = 0.25,
                             t_from: float = 0.0) -> float:
        """``max_i max_t L_i(t + window) - L_i(t)`` — Lemma 7.1's quantity,
        over :func:`repro._constants.window_starts`' grid."""
        starts = window_starts(
            self.duration, window=window, step=step, t_from=t_from
        )
        if starts.size == 0:
            return 0.0
        gains = self.logical_matrix(starts + window) - self.logical_matrix(starts)
        return max(0.0, float(gains.max()))
