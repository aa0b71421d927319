"""Measurement and reporting helpers for experiments and tests.

:class:`SkewField` is the one measurement surface: every skew statistic
of an execution (series, peaks, the gradient profile ``f(d)``,
settling time, steady state, the headline :class:`SkewSummary`) is one
of its methods, answered from one materialized trajectory matrix.  The
rest of the package turns numbers into output — profile fits, tables,
sparklines and CSV.  ``summarize`` is kept for the frozen end-to-end
ledger only.
"""

from repro.analysis.field import SkewField, SkewSummary, SteadyState
from repro.analysis.gradient_profile import ProfileFit, fit_linear
from repro.analysis.reporting import Table
from repro.analysis.skew import summarize
from repro.analysis.timeseries import render_csv, sparkline, write_csv

__all__ = [
    "SkewField",
    "SkewSummary",
    "SteadyState",
    "ProfileFit",
    "fit_linear",
    "Table",
    "summarize",
    "sparkline",
    "write_csv",
    "render_csv",
]
