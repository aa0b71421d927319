"""The sampled Requirement 1 check, kept as the exact check's reference.

``LogicalClock.check_validity`` and ``Execution.check_validity`` test
Requirement 1 exactly, on every clock's breakpoints.  They replaced this
grid walk, which compares each clock's gain over back-to-back windows of
length ``step`` with ``rate * step`` (less a ``1e-6`` slack).  A grid can
only miss a violation, never invent one, so the exact check must raise
whenever this one does (``tests/test_hypothesis_clocks.py``), and
``tests/test_verifier_negatives.py`` holds violations it misses.
"""

from __future__ import annotations

import numpy as np

from repro._constants import window_starts
from repro.errors import ValidityError

__all__ = ["grid_check_clock", "grid_check_execution"]


def grid_check_clock(clock, horizon, *, rate=0.5, step=0.5):
    """Requirement 1 for one ``LogicalClock`` on an integer-index grid of
    windows ending at or before ``horizon``."""
    starts = window_starts(horizon, window=step, step=step)
    if starts.size == 0:
        return
    gains = clock.values_at(starts + step) - clock.values_at(starts)
    bad = np.nonzero(gains < rate * step - 1e-6)[0]
    if bad.size:
        t = float(starts[bad[0]])
        raise ValidityError(
            f"logical clock gained {float(gains[bad[0]])} over "
            f"[{t}, {t + step}]; requirement is {rate * step}"
        )


def grid_check_execution(execution, *, rate=0.5, step=0.5):
    """:func:`grid_check_clock` for every node over the whole execution."""
    for node in execution.topology.nodes:
        grid_check_clock(
            execution.logical[node], execution.duration, rate=rate, step=step
        )
