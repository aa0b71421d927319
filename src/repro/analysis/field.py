"""The vectorized skew-analysis core: one trajectory matrix, many queries.

Every quantity the paper defines on an execution — skew
``L_i(t) - L_j(t)``, the gradient profile ``f(d)``, Theorem 8.1's
adjacent-skew series — used to be computed by Python-level loops calling
``LogicalClock.value_at`` once per (node, sample time): ``O(T n^2)``
bisect lookups per summary, which capped experiments near diameter 128.

A :class:`SkewField` materializes the ``n x T`` logical-value matrix
*once* per execution (one batched
:meth:`~repro.sim.clock.LogicalClock.values_at` per node, the same
trajectory-matrix trick RBS/TDMA reference-broadcast analyses use) and
answers every skew query from it as array arithmetic.  The per-element
float operations mirror the scalar path exactly, so both agree to
bitwise for max/peak queries and well within 1e-9 everywhere else — an
equivalence the hypothesis suite pins.

The scalar ``value_at`` API stays untouched for the simulator hot loop;
this class is the post-hoc measurement path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.convergence import SteadyState
    from repro.analysis.skew import SkewSummary
    from repro.sim.execution import Execution
    from repro.topology.base import Topology

__all__ = ["SkewField"]


class SkewField:
    """The ``n x T`` logical-value field of one execution.

    Parameters
    ----------
    execution:
        Any finished :class:`~repro.sim.execution.Execution` — simulated
        or live (:mod:`repro.rt` builds the same clocks).
    times:
        Sample times; defaults to ``execution.sample_times(step)``.
    step:
        Grid step used when ``times`` is omitted.

    Attributes
    ----------
    times:
        The sample grid, as a float array.
    values:
        The materialized matrix: ``values[i, k] = L_i(times[k])``.
    """

    def __init__(
        self,
        execution: "Execution",
        times: Sequence[float] | np.ndarray | None = None,
        *,
        step: float = 1.0,
    ):
        self.execution = execution
        grid = execution.sample_times(step) if times is None else times
        self.times = np.asarray(grid, dtype=float)
        if self.times.ndim != 1 or self.times.size == 0:
            raise ValueError("SkewField needs a non-empty 1-D grid of sample times")
        self.values = execution.logical_matrix(self.times)
        self._max_series: np.ndarray | None = None
        self._adjacent_series: np.ndarray | None = None
        self._segments_cache: list | None = None
        self._peak_pairs: list[np.ndarray] | None = None

    @property
    def n(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.times.size)

    def topology_segments(self) -> list[tuple["Topology", np.ndarray]]:
        """``(topology, column indices)`` groups of the sample grid.

        Static executions yield one group holding every column; dynamic
        executions (:attr:`Execution.topology_timeline`) yield one group
        per topology snapshot that owns at least one sample time.  Every
        distance-dependent query below folds over these groups, so the
        gradient bound and the adjacent-pair set are always evaluated
        against the network live at each sample.
        """
        if self._segments_cache is None:
            timeline = getattr(self.execution, "topology_timeline", None)
            if timeline is None or len(timeline) <= 1:
                self._segments_cache = [
                    (self.execution.topology, np.arange(self.times.size))
                ]
            else:
                change_times = np.array([at for at, _ in timeline])
                owner = np.clip(
                    np.searchsorted(change_times, self.times, side="right") - 1,
                    0,
                    len(timeline) - 1,
                )
                self._segments_cache = [
                    (topo, np.nonzero(owner == k)[0])
                    for k, (_, topo) in enumerate(timeline)
                    if np.any(owner == k)
                ]
        return list(self._segments_cache)

    # ------------------------------------------------------------------
    # per-sample-time series

    def max_skew_series(self) -> np.ndarray:
        """``max_{i,j} |L_i - L_j|`` per sample time.

        The pairwise maximum is attained by the extremal pair, so one
        column max minus one column min replaces the ``n x n`` matrix.
        """
        if self._max_series is None:
            self._max_series = self.values.max(axis=0) - self.values.min(axis=0)
        return self._max_series

    def max_adjacent_series(self) -> np.ndarray:
        """``max`` adjacent ``|L_i - L_j|`` per sample time — Theorem
        8.1's watched series.

        On dynamic executions the adjacent (minimum-distance) pair set
        is re-read per topology segment, so the series always watches
        the pairs that are actually adjacent at each sample time.
        """
        if self._adjacent_series is None:
            segments = self.topology_segments()
            if len(segments) == 1:
                pairs = segments[0][0].adjacent_pairs()
                a = np.fromiter((i for i, _ in pairs), dtype=int, count=len(pairs))
                b = np.fromiter((j for _, j in pairs), dtype=int, count=len(pairs))
                self._adjacent_series = np.abs(
                    self.values[a] - self.values[b]
                ).max(axis=0)
            else:
                series = np.empty(self.times.size)
                for topology, cols in segments:
                    pairs = topology.adjacent_pairs()
                    a = np.fromiter(
                        (i for i, _ in pairs), dtype=int, count=len(pairs)
                    )
                    b = np.fromiter(
                        (j for _, j in pairs), dtype=int, count=len(pairs)
                    )
                    block = self.values[:, cols]
                    series[cols] = np.abs(block[a] - block[b]).max(axis=0)
                self._adjacent_series = series
        return self._adjacent_series

    def mean_abs_series(self) -> np.ndarray:
        """Mean ``|L_i - L_j|`` over ordered distinct pairs, per time.

        Uses the sorted-order identity ``sum_{i<j} (x_(j) - x_(i)) =
        sum_k (2k - n + 1) x_(k)`` — ``O(n log n)`` per sample instead of
        ``O(n^2)``.
        """
        n = self.n
        ranked = np.sort(self.values, axis=0)
        weights = 2.0 * np.arange(n) - (n - 1)
        unordered = weights @ ranked
        return 2.0 * unordered / max(n * n - n, 1)

    def pair_series(self, i: int, j: int) -> np.ndarray:
        """``|L_i - L_j|`` over the sample grid."""
        return np.abs(self.values[i] - self.values[j])

    # ------------------------------------------------------------------
    # scalar queries

    def max_skew(self) -> float:
        """Largest absolute skew over all pairs and sample times."""
        return float(self.max_skew_series().max())

    def max_adjacent_skew(self) -> float:
        """Largest absolute adjacent skew over all sample times."""
        return float(self.max_adjacent_series().max())

    def peak_skew(self) -> tuple[float, float]:
        """``(time, skew)`` of the largest all-pairs skew (first peak)."""
        series = self.max_skew_series()
        k = int(series.argmax())
        return float(self.times[k]), float(series[k])

    def peak_adjacent_skew(self) -> tuple[float, float]:
        """``(time, skew)`` of the largest adjacent skew (first peak)."""
        series = self.max_adjacent_series()
        k = int(series.argmax())
        return float(self.times[k]), float(series[k])

    def skew_matrix(self, k: int) -> np.ndarray:
        """Signed skew between every ordered pair at sample index ``k``."""
        column = self.values[:, k]
        return column[:, None] - column[None, :]

    def heatmap(self) -> np.ndarray:
        """The ``T x n x n`` stack of signed skew matrices, for offline
        plotting: ``T * n**2 * 8`` bytes (126 MB at 49 samples of 256
        nodes).  Questions about pairs over time — which pair peaked,
        does each meet a bound — read the ``n x n`` :meth:`peak_pairs`."""
        columns = self.values.T
        return columns[:, :, None] - columns[:, None, :]

    def peak_pairs(self) -> list[np.ndarray]:
        """``max_t |L_i(t) - L_j(t)|`` as one symmetric ``n x n`` matrix
        per topology segment (aligned with :meth:`topology_segments`,
        over that segment's sample times), cached.

        The one object Requirement 2 is read from: the gradient profile,
        ``check_gradient`` and the dashboard's peak panel all fold it.
        Entry for entry ``np.abs(heatmap()).max(axis=0)``, from one
        ``|V[i+1:] - V[i]|`` row broadcast per anchor node.
        """
        if self._peak_pairs is None:
            self._peak_pairs = []
            for _, cols in self.topology_segments():
                block = self.values[:, cols]
                peak = np.zeros((self.n, self.n))
                for i in range(self.n - 1):
                    worst = np.abs(block[i + 1:] - block[i]).max(axis=1)
                    peak[i, i + 1:] = peak[i + 1:, i] = worst
                self._peak_pairs.append(peak)
        return list(self._peak_pairs)

    def max_logical_increase(
        self, *, window: float = 1.0, step: float = 0.25, t_from: float = 0.0
    ) -> float:
        """Lemma 7.1's quantity (its own window grid, not this field's)."""
        return self.execution.max_logical_increase(
            window=window, step=step, t_from=t_from
        )

    # ------------------------------------------------------------------
    # profiles

    def gradient_profile(self) -> dict[float, float]:
        """Max absolute skew per pair distance — the empirical ``f(d)``.

        A group-by-distance over :meth:`peak_pairs`: grouped by exact
        distance in one array step, then one entry per distinct distance
        is keyed by the scalar path's ``round(d, 9)`` in Python.

        On dynamic executions each pair's skew is attributed to the
        distance it had *when the skew was observed* (one fold per
        topology segment), so the profile is the empirical ``f`` of
        Requirement 2 read against time-varying distances.
        """
        profile: dict[float, float] = {}
        upper = np.triu_indices(self.n, 1)
        for (topology, _), peak in zip(self.topology_segments(), self.peak_pairs()):
            distances, group = np.unique(topology.distances[upper], return_inverse=True)
            worst = np.full(distances.size, float("-inf"))
            np.maximum.at(worst, group, peak[upper])
            for d, w in zip(distances.tolist(), worst.tolist()):
                d = round(d, 9)
                if w > profile.get(d, float("-inf")):
                    profile[d] = w
        return dict(sorted(profile.items()))

    # ------------------------------------------------------------------
    # convergence

    def settling_time(
        self, threshold: float, *, series: np.ndarray | None = None
    ) -> float | None:
        """Earliest sample time after which the series stays
        ``<= threshold`` (default series: all-pairs max skew); ``None``
        if it never settles."""
        series = self.max_skew_series() if series is None else series
        exceeding = np.nonzero(series > threshold + 1e-9)[0]
        if exceeding.size == 0:
            return float(self.times[0])
        last = int(exceeding[-1])
        if last + 1 >= self.times.size:
            return None
        return float(self.times[last + 1])

    def steady_state(self, tail_fraction: float = 0.25) -> "SteadyState":
        """Tail-of-run skew summary over the final ``tail_fraction``."""
        from repro.analysis.convergence import SteadyState

        if not 0.0 < tail_fraction <= 1.0:
            raise ValueError("tail_fraction must be in (0, 1]")
        start = self.execution.duration * (1.0 - tail_fraction)
        mask = self.times >= start
        maxes = self.max_skew_series()[mask]
        adjacents = self.max_adjacent_series()[mask]
        return SteadyState(
            mean_max_skew=float(maxes.mean()),
            worst_max_skew=float(maxes.max()),
            mean_adjacent_skew=float(adjacents.mean()),
            worst_adjacent_skew=float(adjacents.max()),
            tail_start=start,
        )

    # ------------------------------------------------------------------
    # headline summary

    def summary(self) -> "SkewSummary":
        """The headline numbers, all answered from the one matrix.

        ``final_*`` read the last sample column — which, with the
        deduped :meth:`~repro.sim.execution.Execution.sample_times`
        grid, is the ``t = duration`` sample computed exactly once.
        """
        from repro.analysis.skew import SkewSummary

        series = self.max_skew_series()
        adjacent = self.max_adjacent_series()
        return SkewSummary(
            max_skew=max(float(series.max()), 0.0),
            max_adjacent_skew=max(float(adjacent.max()), 0.0),
            final_skew=float(series[-1]),
            final_adjacent_skew=float(adjacent[-1]),
            mean_abs_skew=float(self.mean_abs_series().mean()),
        )
