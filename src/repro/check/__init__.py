"""repro.check — the static invariant linter.

Every guarantee this repository sells — byte-identical engines, cache
stability at any worker count, simulator-equivalent live runs — rests
on invariants that the differential test suites enforce only *after* a
scenario runs.  This package enforces the syntactically-recognizable
part of those contracts *before* anything runs, with a stdlib-``ast``
walk over ``src/``:

===========  =======================================================
``DET001``   no wall clocks / entropy in the deterministic packages
``DET002``   no ambient (module-global or unseeded) randomness
``FLT001``   no bare float ``==``/``!=`` between time expressions
``LAY001``   the import graph must match the declared layer DAG
``PKL001``   no lambdas flowing into pickle-boundary payloads
``PKL002``   no locally-defined functions/classes into those payloads
``REG001``   trace-kind literals must exist in ``repro.sim.trace``
``REG002``   ``__all__`` entries must name real bindings
``REG003``   package ``__init__`` public names must be in ``__all__``
``REG004``   ``@job_kind`` metrics dicts must carry every CELL_KEY
``DEAD001``  a public def, class or method must be referenced in src/
===========  =======================================================

Run it with ``repro-check src``, ``python -m repro.check src``, or
``python -m repro.experiments check src``; it exits 1 on any finding.
The one way to suppress a finding — one rule, one line — is a
``# repro: allow[CODE] <reason>`` pragma; there is no baseline file.
Layering note: ``check`` sits outside the layer DAG and imports no
other repro package (it must be able to lint a broken tree).
"""

from repro.check.core import Finding, ModuleInfo, Project, Rule, parse_module
from repro.check.pragmas import PRAGMA_RE, suppressions, unknown_codes
from repro.check.runner import ALL_RULES, CheckReport, default_rules, run_check

__all__ = [
    "ALL_RULES",
    "CheckReport",
    "Finding",
    "ModuleInfo",
    "PRAGMA_RE",
    "Project",
    "Rule",
    "default_rules",
    "parse_module",
    "run_check",
    "suppressions",
    "unknown_codes",
]
