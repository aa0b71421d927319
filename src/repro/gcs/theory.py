"""The paper's constants and Section 2's worked example, in one place.

Everything here is arithmetic — no simulation.  The bounds themselves
are computed where they are checked: Lemma 6.1's gain by
:class:`~repro.gcs.add_skew.AddSkewPlan`, Lemma 7.1's cap by
:mod:`repro.gcs.bounded_increase`, the Section 9 envelope by
:class:`~repro.gcs.properties.GradientBound`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._constants import (
    ADD_SKEW_GAIN,
    BOUNDED_INCREASE_FACTOR,
    ROUND_SKEW_RATE,
    gamma,
    lower_bound_curve,
    tau,
    window_shrink,
)

__all__ = [
    "tau",
    "gamma",
    "window_shrink",
    "lower_bound_curve",
    "ThreeNodeScenario",
    "ADD_SKEW_GAIN",
    "BOUNDED_INCREASE_FACTOR",
    "ROUND_SKEW_RATE",
]



@dataclass(frozen=True)
class ThreeNodeScenario:
    """Section 2's worked example showing max-style sync is not a gradient.

    Three nodes on a line: ``x`` and ``y`` at distance ``big_d``, ``y``
    and ``z`` at distance 1 (``x`` and ``z`` at ``big_d + 1``).  Drive
    ``x``'s clock ``big_d`` ahead of ``y`` (and a bit more ahead of
    ``z``) while the adversary delays ``x``'s broadcasts by the full
    uncertainty; then drop the ``x -> y`` delay to 0.  ``y`` jumps
    ``~big_d`` forward the moment it hears ``x``; ``z`` — one unit of
    delay away — has not, so for a full unit of real time the
    distance-1 pair ``(y, z)`` carries ``~big_d`` of skew.

    The expected peak distance-1 skew is ``big_d + 1`` in the paper's
    idealized account; drift details in a concrete run put it near
    ``big_d``, growing linearly in ``big_d`` — which is the point:
    unbounded skew at distance 1 as the diameter grows.
    """

    big_d: float

    #: Node indices in the 3-node topology.
    x: int = 0
    y: int = 1
    z: int = 2

    @property
    def distances(self) -> dict[tuple[int, int], float]:
        return {
            (self.x, self.y): self.big_d,
            (self.y, self.z): 1.0,
            (self.x, self.z): self.big_d + 1.0,
        }
