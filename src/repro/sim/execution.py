"""Finished executions and the measurements defined on them.

An :class:`Execution` is the complete record of one run: clocks, trace,
and delivered messages.  All of the paper's quantities are queries on it:
clock skew ``L_i(t) - L_j(t)`` at any real time, the gradient profile
(max skew as a function of distance), and the model-compliance checks
(Assumption 1 drift bounds, Requirement 1 validity, the ``[0, d_ij]``
delay band, and the tighter bands the lemmas assume).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro._constants import TIME_EPS, VALIDITY_RATE, window_starts
from repro.errors import DelayBoundError, ValidityError
from repro.sim.clock import HardwareClock, LogicalClock
from repro.sim.messages import Message
from repro.sim.trace import ExecutionTrace
from repro.topology.base import Topology

__all__ = ["Execution"]


@dataclass
class Execution:
    """The result of one simulated execution ``alpha``."""

    topology: Topology
    duration: float
    rho: float
    hardware: dict[int, HardwareClock]
    logical: dict[int, LogicalClock]
    trace: ExecutionTrace
    messages: list[Message]
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
    #: ``frames_dropped``, ``events`` (node callbacks dispatched) and
    #: ``wall_elapsed`` (seconds ``run_live`` took); ``None`` for
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

    def skew_matrix(self, t: float) -> np.ndarray:
        """Signed skew between every ordered pair at time ``t``."""
        values = np.array([self.logical_value(n, t) for n in self.topology.nodes])
        return values[:, None] - values[None, :]

    def logical_snapshot(self, t: float) -> dict[int, float]:
        """All logical values at time ``t``."""
        return {n: self.logical_value(n, t) for n in self.topology.nodes}

    def logical_matrix(self, times: Sequence[float] | np.ndarray) -> np.ndarray:
        """The ``n x T`` matrix of logical values: row ``i`` is ``L_i``
        over ``times``.

        One batched :meth:`~repro.sim.clock.LogicalClock.values_at` call
        per node replaces a ``value_at`` bisect per (node, time); this is
        the trajectory matrix every :class:`~repro.analysis.field.SkewField`
        query is answered from.
        """
        t = np.asarray(times, dtype=float)
        return np.vstack(
            [self.logical[n].values_at(t) for n in self.topology.nodes]
        )

    # ------------------------------------------------------------------
    # skew summaries

    def max_skew(self, t: float) -> float:
        """Largest absolute skew over all pairs at time ``t``."""
        return float(np.abs(self.skew_matrix(t)).max())

    def max_skew_pair(self, t: float) -> tuple[int, int, float]:
        """The pair achieving the largest absolute skew at ``t``."""
        m = np.abs(self.skew_matrix(t))
        i, j = np.unravel_index(int(m.argmax()), m.shape)
        return int(i), int(j), float(m[i, j])

    def max_adjacent_skew(self, t: float) -> float:
        """Largest absolute skew over minimum-distance pairs at ``t``.

        This is the quantity Theorem 8.1 bounds from below: skew between
        nodes at distance 1.  On dynamic runs the minimum-distance pairs
        are those of the network live at ``t``.
        """
        return max(
            abs(self.skew(i, j, t)) for i, j in self.topology_at(t).adjacent_pairs()
        )

    def peak_adjacent_skew(self, times: Iterable[float]) -> tuple[float, float]:
        """``(time, skew)`` of the largest adjacent skew over sample times.

        Raises :class:`ValueError` on an empty ``times`` iterable — the
        old behaviour silently returned ``(0.0, -inf)``, which poisoned
        every downstream max/mean it flowed into.
        """
        times = list(times)
        if not times:
            raise ValueError("peak_adjacent_skew needs at least one sample time")
        from repro.analysis.field import SkewField

        return SkewField(self, times).peak_adjacent_skew()

    def sample_times(self, step: float = 1.0) -> list[float]:
        """Evenly spaced sample times covering the execution.

        The closing ``duration`` sample appears exactly once:
        ``np.arange`` can emit a final grid point within float error of
        ``duration`` (e.g. ``duration = 3 * 0.1``, ``step = 0.1``), which
        used to double-count the final sample in every mean computed on
        this grid.  Entries are plain Python floats.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        times = [float(t) for t in np.arange(0.0, self.duration, step)]
        while times and times[-1] >= self.duration - TIME_EPS:
            times.pop()
        times.append(float(self.duration))
        return times

    def gradient_profile(
        self, times: Iterable[float] | None = None
    ) -> dict[float, float]:
        """Max absolute skew observed per pair distance.

        The empirical ``f(d)``: for each distinct distance ``d`` in the
        network, the largest ``|L_i(t) - L_j(t)|`` seen over the sampled
        times among pairs at distance ``d``.  An algorithm satisfies
        ``f``-GCS on this run iff the profile sits below ``f``.

        Answered from a :class:`~repro.analysis.field.SkewField` (one
        batched trajectory matrix instead of ``O(T n^2)`` bisect
        lookups), which is what makes diameters in the hundreds usable.
        """
        from repro.analysis.field import SkewField

        times = list(times) if times is not None else self.sample_times()
        return SkewField(self, times).gradient_profile()

    # ------------------------------------------------------------------
    # model-compliance checks

    def check_validity(self, *, rate: float = VALIDITY_RATE, step: float = 0.5) -> None:
        """Requirement 1 for every node; raises :class:`ValidityError`."""
        for node in self.topology.nodes:
            self.logical[node].check_validity(self.duration, rate=rate, step=step)

    def check_drift_bounds(self) -> None:
        """Assumption 1 for every node (re-validated; construction enforces it)."""
        for node, hw in self.hardware.items():
            lo, hi = 1.0 - self.rho, 1.0 + self.rho
            if not hw.schedule.within_bounds(lo - TIME_EPS, hi + TIME_EPS):
                raise ValidityError(f"node {node} hardware rate out of bounds")

    def check_delay_bounds(self) -> None:
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
    # trajectory helpers (used by analysis & plots)

    def logical_trajectory(
        self, node: int, times: Sequence[float]
    ) -> np.ndarray:
        return self.logical[node].values_at(np.asarray(times, dtype=float))

    def skew_trajectory(
        self, i: int, j: int, times: Sequence[float]
    ) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return self.logical[i].values_at(t) - self.logical[j].values_at(t)

    def increase_window_starts(
        self, *, window: float = 1.0, step: float = 0.25, t_from: float = 0.0
    ) -> np.ndarray:
        """The Lemma 7.1 window grid :meth:`max_logical_increase` sweeps.

        Exposed so tests can pin the window count: the old ``t += step``
        accumulator drifted and silently skipped the last window near
        ``duration`` once executions got long enough.
        """
        return window_starts(
            self.duration, window=window, step=step, t_from=t_from
        )

    def max_logical_increase(self, *, window: float = 1.0, step: float = 0.25,
                             t_from: float = 0.0) -> float:
        """``max_i max_t L_i(t + window) - L_i(t)`` — Lemma 7.1's quantity."""
        starts = self.increase_window_starts(
            window=window, step=step, t_from=t_from
        )
        if starts.size == 0:
            return 0.0
        ends = starts + window
        worst = 0.0
        for node in self.topology.nodes:
            clock = self.logical[node]
            gains = clock.values_at(ends) - clock.values_at(starts)
            worst = max(worst, float(gains.max()))
        return worst
