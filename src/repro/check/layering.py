"""Layering rule: the import graph must match the declared layer DAG.

``docs/ARCHITECTURE.md`` describes the subsystem layering; this module
*declares* it as data and ``LAY001`` enforces it per import statement.
The declared DAG (transitively closed by the test suite, pinned by
``tests/test_check.py``) is, bottom to top::

    topology
    sim            -> topology
    algorithms     -> sim, topology
    analysis       -> sim, topology
    gcs            -> sim, topology, algorithms, analysis
    apps           -> sim, topology, algorithms, analysis
    sweep          -> sim, topology, algorithms, analysis
    rt             -> sweep and below
    viz            -> sweep and below (a leaf: nothing imports viz
                      at module top level)
    serve          -> sweep and below (a leaf: nothing imports serve
                      at module top level — the daemon wraps the sweep
                      engine's store, queue and pool; nothing depends
                      on the daemon)
    experiments    -> everything
    check          -> (nothing: the linter must lint a broken tree)

``_constants``, ``errors`` and ``wire`` (the length-prefixed JSON
framing ``rt`` and ``serve`` both speak) sit below the DAG and are
importable from anywhere.  Two escape hatches, both declared here as
reviewable data:

* :data:`MODULE_EXEMPT` — whole-module exemptions with reasons
  (``repro.sim.replay`` is the replay verification harness; it
  lives in ``sim`` for cohesion but is layered above ``algorithms`` and
  ``gcs``);
* :data:`LAZY_ALLOWED` — extra edges permitted only for *function-local*
  imports, the sanctioned cycle-breaking idiom (e.g. ``sweep`` reaching
  up to ``rt`` for the live-run job kind at dispatch time).

Anything else — in particular ``sim``/``analysis``/``gcs`` importing
``rt``/``sweep``/``viz`` even lazily — is a layering violation.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.core import (
    BASE_PACKAGES,
    Finding,
    ModuleInfo,
    Project,
    Rule,
    enclosing_function,
)

__all__ = ["ALLOWED_IMPORTS", "LAZY_ALLOWED", "MODULE_EXEMPT", "LayeringRule"]

#: package -> repro packages its modules may import at top level.
ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "topology": frozenset(),
    "sim": frozenset({"topology"}),
    "algorithms": frozenset({"sim", "topology"}),
    "analysis": frozenset({"sim", "topology"}),
    "gcs": frozenset({"sim", "topology", "algorithms", "analysis"}),
    "apps": frozenset({"sim", "topology", "algorithms", "analysis"}),
    "sweep": frozenset({"sim", "topology", "algorithms", "analysis"}),
    "rt": frozenset(
        {"sim", "topology", "algorithms", "analysis", "sweep"}
    ),
    "viz": frozenset(
        {"sim", "topology", "algorithms", "analysis", "sweep"}
    ),
    "serve": frozenset(
        {"sim", "topology", "algorithms", "analysis", "sweep"}
    ),
    "experiments": frozenset(
        {
            "sim",
            "topology",
            "algorithms",
            "analysis",
            "gcs",
            "apps",
            "sweep",
            "rt",
            "viz",
        }
    ),
    "check": frozenset(),
    # The top-level facade re-exports the public API.
    "repro": frozenset(
        {"sim", "topology", "algorithms", "analysis", "gcs", "apps"}
    ),
}

#: Extra edges allowed only inside function bodies (lazy imports): the
#: cycle-breaking idiom for optional, higher-layer integrations.
LAZY_ALLOWED: dict[str, frozenset[str]] = {
    "sim": frozenset({"analysis"}),  # Execution's measurement helpers
    "sweep": frozenset({"rt", "viz", "experiments"}),  # live-run job kind,
    # --report rendering, ExperimentResult table shapes
    "rt": frozenset({"viz"}),  # --tail streaming panels
    "viz": frozenset({"experiments"}),  # `viz experiment` re-runs
    "experiments": frozenset({"check", "serve"}),  # `check` / `serve`
    # CLI verb dispatch — the only sanctioned inbound edge to serve
}

#: module -> (extra allowed packages, reason).  Whole-module exemptions.
MODULE_EXEMPT: dict[str, tuple[frozenset[str], str]] = {
    "repro.sim.replay": (
        frozenset({"algorithms", "gcs"}),
        "replay verifier (also the reference-loop round-trip tests' "
        "script source): layered above algorithms/gcs, lives in sim for "
        "cohesion with the simulator it replays",
    ),
}


def _import_targets(node: ast.stmt) -> list[str]:
    """Top-level repro packages named by one import statement."""
    mods: list[str] = []
    if isinstance(node, ast.Import):
        mods = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
        mods = [node.module]
    targets = []
    for mod in mods:
        parts = mod.split(".")
        if parts[0] != "repro":
            continue
        targets.append(parts[1] if len(parts) > 1 else "repro")
    return targets


class LayeringRule(Rule):
    code = "LAY001"
    name = "layer-dag"
    hint = (
        "respect the declared layer DAG (repro.check.layering."
        "ALLOWED_IMPORTS); move the dependency down a layer, make the "
        "import function-local if LAZY_ALLOWED grants the edge, or add a "
        "documented MODULE_EXEMPT entry"
    )
    contract = (
        "lower layers must stay importable and testable without the "
        "runtimes above them; the DAG is what lets sim/analysis/gcs run "
        "inside sandboxed workers that never load rt/viz"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        package = module.package
        if package not in ALLOWED_IMPORTS:
            return
        allowed = ALLOWED_IMPORTS[package] | BASE_PACKAGES | {package}
        lazy_extra = LAZY_ALLOWED.get(package, frozenset())
        exempt, _reason = MODULE_EXEMPT.get(
            module.module, (frozenset(), "")
        )
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            is_lazy = enclosing_function(node) is not None
            for target in _import_targets(node):
                if target == "repro" and package != "repro":
                    yield self.finding(
                        module,
                        node,
                        "import of the top-level repro facade from inside "
                        "a subpackage (cycles through every layer)",
                    )
                    continue
                if target in allowed or target in exempt:
                    continue
                if is_lazy and target in lazy_extra:
                    continue
                kind = "lazy import" if is_lazy else "import"
                yield self.finding(
                    module,
                    node,
                    f"{kind} of repro.{target} from layer '{package}' "
                    "violates the declared DAG",
                )
