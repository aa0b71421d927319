"""Gradient profiles: the empirical ``f(d)`` and fits against envelopes.

The gradient property is about the *shape* of skew as a function of
distance.  A :class:`ProfileFit` regresses the observed profile against
``f(d) = a*d + b`` and reports how well a linear gradient explains the
data — max-style algorithms show large intercepts at ``d = 1`` (their
distance-1 spikes), gradient algorithms show a clean slope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = ["ProfileFit", "fit_linear"]


@dataclass(frozen=True)
class ProfileFit:
    """Least-squares fit of a gradient profile to ``a*d + b``."""

    slope: float
    intercept: float
    residual_rms: float
    max_over_linear: float  # max of observed / (slope*d + intercept)


def fit_linear(profile: Mapping[float, float]) -> ProfileFit:
    """Fit ``skew = a * distance + b`` to a gradient profile."""
    if not profile:
        raise ValueError("empty profile")
    if len(profile) < 2:
        [v] = profile.values()
        return ProfileFit(slope=0.0, intercept=v, residual_rms=0.0, max_over_linear=1.0)
    ds = np.array(sorted(profile))
    vs = np.array([profile[d] for d in sorted(profile)])
    a_mat = np.vstack([ds, np.ones_like(ds)]).T
    (slope, intercept), *_ = np.linalg.lstsq(a_mat, vs, rcond=None)
    pred = a_mat @ np.array([slope, intercept])
    residual = float(np.sqrt(np.mean((vs - pred) ** 2)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(pred > 1e-9, vs / pred, 1.0)
    return ProfileFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=residual,
        max_over_linear=float(np.max(ratios)),
    )
