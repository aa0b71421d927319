"""``summarize``: the one-call headline skew numbers of an execution.

Every skew statistic is a :class:`~repro.analysis.field.SkewField`
method; this function survives only because the frozen end-to-end
ledger imports it (``benchmarks/e2e/workloads_live.py``).  New code
calls ``SkewField(execution).summary()``.
"""

from __future__ import annotations

from repro.analysis.field import SkewField, SkewSummary
from repro.sim.execution import Execution

__all__ = ["summarize"]


def summarize(  # repro: allow[DEAD001] frozen e2e workloads_live
    execution: Execution, *, step: float = 1.0
) -> SkewSummary:
    """``SkewField(execution, step=step).summary()``."""
    return SkewField(execution, step=step).summary()
