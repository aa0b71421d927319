"""Monotone piecewise-linear time warps.

The Add Skew lemma (Lemma 6.1) defines the retimed execution ``beta`` by
mapping each action's real time through a node-specific function::

    T_beta(pi) = T_alpha(pi)                                if T_alpha(pi) <= T_k
                 T_k + (T_alpha(pi) - T_k) / gamma          otherwise

That map — identity up to a knee, slope ``1/gamma`` after — is a
:class:`TimeWarp`.  Warps are strictly increasing, hence invertible;
the warped delay oracle (:mod:`repro.gcs.oracle`) uses both directions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro._constants import TIME_EPS
from repro.errors import ScheduleError

__all__ = ["TimeWarp"]


@dataclass(frozen=True)
class TimeWarp:
    """A strictly increasing piecewise-linear map of real time.

    Defined by knots ``(xs[k], ys[k])``; between knots the map is linear,
    beyond the last knot it continues with the final segment's slope.
    ``xs[0]`` must be 0 and map to 0 (executions start together).
    """

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ScheduleError("warp needs matching xs/ys with >= 2 knots")
        if abs(self.xs[0]) > TIME_EPS or abs(self.ys[0]) > TIME_EPS:
            raise ScheduleError("warp must fix the origin")
        for a, b in zip(self.xs, self.xs[1:]):
            if b <= a + TIME_EPS:
                raise ScheduleError("warp knots must strictly increase in x")
        for a, b in zip(self.ys, self.ys[1:]):
            if b <= a + TIME_EPS:
                raise ScheduleError("warp must be strictly increasing in y")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def knee(cls, knee_x: float, end_x: float, slope_after: float) -> "TimeWarp":
        """Identity up to ``knee_x``, then slope ``slope_after`` to ``end_x``.

        This is exactly the Lemma 6.1 shape with
        ``slope_after = 1 / gamma``.  ``knee_x = 0`` gives a pure-slope
        warp (used for nodes whose whole window is sped up).
        """
        if slope_after <= 0:
            raise ScheduleError("slope must be positive")
        if knee_x < 0 or end_x <= knee_x:
            raise ScheduleError(f"need 0 <= knee {knee_x} < end {end_x}")
        if knee_x <= TIME_EPS:
            # A knee at (or indistinguishably near) the origin is a pure
            # slope warp.
            return cls((0.0, end_x), (0.0, end_x * slope_after))
        knee_y = knee_x
        end_y = knee_y + (end_x - knee_x) * slope_after
        return cls((0.0, knee_x, end_x), (0.0, knee_y, end_y))

    # ------------------------------------------------------------------
    # evaluation

    def __call__(self, t: float) -> float:
        """Map original time ``t`` to warped time."""
        if t < 0:
            raise ScheduleError(f"warps are defined for t >= 0, got {t}")
        k = min(bisect_right(self.xs, t) - 1, len(self.xs) - 2)
        if k < 0:
            k = 0
        slope = (self.ys[k + 1] - self.ys[k]) / (self.xs[k + 1] - self.xs[k])
        return self.ys[k] + (t - self.xs[k]) * slope

    def inverse(self, y: float) -> float:
        """Map warped time back to original time."""
        if y < 0:
            raise ScheduleError(f"warps are defined for y >= 0, got {y}")
        k = min(bisect_right(self.ys, y) - 1, len(self.ys) - 2)
        if k < 0:
            k = 0
        slope = (self.ys[k + 1] - self.ys[k]) / (self.xs[k + 1] - self.xs[k])
        return self.xs[k] + (y - self.ys[k]) / slope
