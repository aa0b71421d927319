"""Determinism rules: no wall clocks, no ambient randomness.

Every byte-identity contract in this repository — scalar-vs-batched
engine equivalence, empty-FaultPlan no-op, sweep cache stability at any
worker count — collapses if a deterministic package reads the wall
clock or draws from process-global RNG state.  These rules make that
ban static:

* ``DET001`` — wall-clock reads (``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``datetime.now``/``utcnow``/``today``) and
  entropy taps (``os.urandom``, ``uuid.uuid1``/``uuid4``) are forbidden
  inside the deterministic packages.  The live runtime (``repro.rt``)
  legitimately runs on wall clocks and is exempt via
  :data:`WALL_CLOCK_EXEMPT`; metadata-only timing sites (e.g. a job's
  ``elapsed`` stopwatch that never enters a cache key) carry an
  explicit ``# repro: allow[DET001]`` pragma.

  ``repro.serve`` sits outside :data:`DETERMINISTIC_PACKAGES` for the
  same reason as ``rt``: a daemon *is* a wall-clock artifact — socket
  timeouts, uptime, throughput, start-up polling.  Its determinism
  obligation is discharged one layer down: the metrics it stores come
  from the same :func:`repro.sweep.jobs.execute_job` the in-process
  runner calls, so a served sweep is bit-identical to ``run_jobs``
  (the differential contract ``tests/test_serve.py`` enforces), while
  the daemon's own clocks only ever feed operational metadata.  The
  pool it runs on (:mod:`repro.sweep.pool`, shared with ``run_jobs``)
  is *inside* the deterministic set and reads no clock at all.
* ``DET002`` — ambient randomness: calls through the ``random`` module
  itself (``random.random()``, ``random.shuffle`` — global Mersenne
  state), the legacy ``numpy.random.*`` global functions, an *unseeded*
  ``random.Random()`` or ``numpy.random.default_rng()``.  Seeded
  instances (``random.Random(seed)``, ``default_rng(seed)``) are the
  sanctioned idiom and pass.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.core import Finding, ModuleInfo, Project, Rule, attr_chain

__all__ = [
    "DETERMINISTIC_PACKAGES",
    "WALL_CLOCK_EXEMPT",
    "AmbientRandomnessRule",
    "WallClockRule",
]

#: Packages whose results must be a pure function of (spec, seed).
DETERMINISTIC_PACKAGES = frozenset(
    {"sim", "sweep", "analysis", "gcs", "topology", "algorithms", "apps"}
)

#: Declared allowlist: modules inside the deterministic packages that
#: may read wall clocks anyway.  Deliberately empty today — the live
#: runtime lives in ``repro.rt``, outside the deterministic set — but
#: the mechanism is the sanctioned escape hatch if a wall-clock module
#: ever needs to live inside one (each entry documents why).
WALL_CLOCK_EXEMPT: dict[str, str] = {}

_WALL_CLOCK_CALLS = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("os", "urandom"),
    ("uuid", "uuid1"),
    ("uuid", "uuid4"),
}

_DATETIME_NOW = {"now", "utcnow", "today"}

#: ``random``-module functions that mutate/read the global Mersenne
#: Twister.  ``random.Random`` (the class) is excluded: instantiating a
#: *seeded* generator is the sanctioned pattern.
_GLOBAL_RANDOM_FNS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "gauss",
    "normalvariate",
    "lognormvariate",
    "expovariate",
    "betavariate",
    "gammavariate",
    "paretovariate",
    "vonmisesvariate",
    "weibullvariate",
    "triangular",
    "getrandbits",
    "randbytes",
    "seed",
}

#: numpy.random constructors that are fine *when given a seed*.
_NP_SEEDED_CTORS = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}


def _applies(module: ModuleInfo) -> bool:
    if module.package not in DETERMINISTIC_PACKAGES:
        return False
    return module.module not in WALL_CLOCK_EXEMPT


class WallClockRule(Rule):
    code = "DET001"
    name = "no-wall-clock"
    hint = (
        "deterministic packages must take time from the simulator/schedule; "
        "move wall-clock code to repro.rt, add the module to "
        "WALL_CLOCK_EXEMPT with a reason, or pragma a metadata-only site"
    )
    contract = (
        "byte-identical engines and worker-count-stable sweep caches require "
        "results to be pure functions of (spec, seed) — never of the host clock"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not _applies(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            pair = tuple(chain[-2:]) if len(chain) >= 2 else None
            if pair in _WALL_CLOCK_CALLS:
                yield self.finding(
                    module, node, f"wall-clock/entropy call {'.'.join(chain)}()"
                )
            elif (
                len(chain) >= 2
                and chain[-1] in _DATETIME_NOW
                and chain[-2] in {"datetime", "date"}
            ):
                yield self.finding(
                    module, node, f"wall-clock call {'.'.join(chain)}()"
                )


class AmbientRandomnessRule(Rule):
    code = "DET002"
    name = "no-ambient-randomness"
    hint = (
        "draw from a seeded generator (random.Random(seed) / "
        "numpy.random.default_rng(seed)) threaded through the config, "
        "never from module-global RNG state"
    )
    contract = (
        "per-job deterministic seeding (identical metrics at any worker "
        "count) requires every random draw to come from an owned, seeded "
        "generator"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if not _applies(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            # random.<global fn>()
            if len(chain) == 2 and chain[0] == "random":
                if chain[1] in _GLOBAL_RANDOM_FNS:
                    yield self.finding(
                        module,
                        node,
                        f"module-global RNG call random.{chain[1]}()",
                    )
                elif chain[1] == "Random" and not (node.args or node.keywords):
                    yield self.finding(
                        module, node, "unseeded random.Random() instance"
                    )
            # numpy.random.* — the legacy global-state API, or an
            # unseeded default_rng().
            elif len(chain) >= 2 and chain[-2] == "random" and chain[0] in {
                "np",
                "numpy",
            }:
                fn = chain[-1]
                if fn in _NP_SEEDED_CTORS:
                    if not (node.args or node.keywords):
                        yield self.finding(
                            module, node, f"unseeded numpy.random.{fn}()"
                        )
                else:
                    yield self.finding(
                        module,
                        node,
                        f"global-state numpy.random.{fn}() "
                        "(legacy RandomState API)",
                    )
