"""Registry-sync rules: literals must match their central registries.

Several contracts in this repo hinge on string literals staying in sync
with a single source of truth:

* trace-event kinds — ``repro.sim.trace`` declares the registry
  (``SEND`` .. ``TOPOLOGY``); a typo'd kind in a filter
  (``of_kind("recieve")``) silently matches nothing and a typo'd kind
  in a producer corrupts every digest-based byte-identity check.
  ``REG001`` flags any kind literal outside the registry.
* ``__all__`` — the explicit public API.  ``REG002`` flags entries that
  name nothing actually defined/imported in the module (an export that
  would crash ``from x import *``); ``REG003`` flags public names a
  package ``__init__`` binds but does not export (an API surface that
  has silently drifted from its declaration).
* sweep cell keys — ``repro.sweep.aggregate.CELL_KEYS`` defines the
  axes of one scenario cell.  Every job kind's metrics dict must carry
  *all* of them, or its rows silently collapse into the wrong cells
  during aggregation.  ``REG004`` checks the literal-keyed dicts that
  ``@job_kind`` functions — and ``cell_metrics``, the shared row both
  built-in kinds return — assign to ``metrics`` or ``return`` against
  the registry.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.core import (
    Finding,
    ModuleInfo,
    Project,
    Rule,
    terminal_name,
)

__all__ = [
    "AllExportsExistRule",
    "CellKeysCoveredRule",
    "InitExportsDeclaredRule",
    "TraceKindLiteralRule",
]

#: The function that writes the row shared by the built-in job kinds
#: (``repro.sweep.scenario.cell_metrics``); REG004 checks it like a kind.
_SHARED_ROW_FUNCTION = "cell_metrics"

#: Call/attribute sites whose string arguments are trace-event kinds.
_KIND_CALLS = {"of_kind"}
_KIND_KEYWORD_CALLS = {"TraceEvent"}


class TraceKindLiteralRule(Rule):
    code = "REG001"
    name = "trace-kind-registry"
    hint = (
        "use a kind registered in repro.sim.trace (import the constant "
        "instead of retyping the literal)"
    )
    contract = (
        "trace digests, indistinguishability projections and viz markers "
        "all dispatch on the kind string; an unregistered literal is a "
        "silent no-match or a corrupted digest"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        kinds = project.trace_kinds()
        if kinds is None or module.module == "repro.sim.trace":
            return
        for node in ast.walk(module.tree):
            # exec.trace.of_kind("send", "recieve")
            if isinstance(node, ast.Call):
                name = terminal_name(node.func)
                if name in _KIND_CALLS:
                    for arg in node.args:
                        if (
                            isinstance(arg, ast.Constant)
                            and isinstance(arg.value, str)
                            and arg.value not in kinds
                        ):
                            yield self.finding(
                                module,
                                arg,
                                f'unregistered trace kind "{arg.value}" '
                                f"in {name}(...)",
                            )
                if name in _KIND_KEYWORD_CALLS:
                    for kw in node.keywords:
                        if (
                            kw.arg == "kind"
                            and isinstance(kw.value, ast.Constant)
                            and isinstance(kw.value.value, str)
                            and kw.value.value not in kinds
                        ):
                            yield self.finding(
                                module,
                                kw.value,
                                f'unregistered trace kind '
                                f'"{kw.value.value}" in {name}(...)',
                            )
            # event.kind == "recieve"  /  event.kind in ("send", ...)
            if isinstance(node, ast.Compare):
                left = node.left
                if (
                    isinstance(left, ast.Attribute)
                    and left.attr == "kind"
                    and len(node.ops) == 1
                ):
                    literals: list[ast.Constant] = []
                    comp = node.comparators[0]
                    if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                        if isinstance(comp, ast.Constant):
                            literals = [comp]
                    elif isinstance(node.ops[0], (ast.In, ast.NotIn)):
                        if isinstance(comp, (ast.Tuple, ast.List, ast.Set)):
                            literals = [
                                e
                                for e in comp.elts
                                if isinstance(e, ast.Constant)
                            ]
                    for lit in literals:
                        if (
                            isinstance(lit.value, str)
                            and lit.value not in kinds
                        ):
                            yield self.finding(
                                module,
                                lit,
                                f'unregistered trace kind "{lit.value}" '
                                "compared against .kind",
                            )


def _top_level_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module top level (defs, classes, assigns, imports)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional/guarded definitions (TYPE_CHECKING blocks,
            # optional imports) still bind names.
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    names.add(sub.name)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            names.add(
                                alias.asname or alias.name.split(".")[0]
                            )
    return names


def _declared_all(tree: ast.Module) -> tuple[list[str], ast.AST] | None:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            entries = [
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            return entries, node
    return None


class AllExportsExistRule(Rule):
    code = "REG002"
    name = "all-exports-exist"
    hint = "remove the stale entry or define/import the name it promises"
    contract = (
        "__all__ is the declared public API; an entry naming nothing "
        "breaks `from package import *` and lies to readers"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        declared = _declared_all(module.tree)
        if declared is None:
            return
        entries, node = declared
        bound = _top_level_bindings(module.tree)
        for entry in entries:
            if entry not in bound:
                yield self.finding(
                    module,
                    node,
                    f'__all__ exports "{entry}" but the module never '
                    "binds that name",
                )


class InitExportsDeclaredRule(Rule):
    code = "REG003"
    name = "init-exports-declared"
    hint = (
        "add the name to __all__ (it is part of the public surface) or "
        "rename it with a leading underscore"
    )
    contract = (
        "package __init__ files exist to declare the API surface; a "
        "public binding missing from __all__ is silent API drift"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if module.path.name != "__init__.py":
            return
        declared = _declared_all(module.tree)
        if declared is None:
            if module.package:
                yield self.finding(
                    module,
                    module.tree.body[0] if module.tree.body else module.tree,
                    "package __init__ declares no __all__",
                )
            return
        entries, _node = declared
        exported = set(entries)
        for node in module.tree.body:
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                # Only repro re-exports constitute API surface; stdlib
                # helper imports (typing etc.) and registration-only
                # imports of the package's own submodules do not.
                if not source.startswith("repro") or source == module.module:
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name
                    if name == "*" or name.startswith("_"):
                        continue
                    if name not in exported:
                        yield self.finding(
                            module,
                            node,
                            f'public import "{name}" is missing from '
                            "__all__",
                        )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                if not node.name.startswith("_") and node.name not in exported:
                    yield self.finding(
                        module,
                        node,
                        f'public definition "{node.name}" is missing '
                        "from __all__",
                    )


class CellKeysCoveredRule(Rule):
    code = "REG004"
    name = "cell-keys-covered"
    hint = (
        "every @job_kind metrics dict (assigned or returned) must carry "
        "all repro.sweep.aggregate.CELL_KEYS keys, or its rows aggregate "
        "into the wrong scenario cells"
    )
    contract = (
        "sweep aggregation groups rows by CELL_KEYS; a job kind missing "
        "one key silently merges distinct cells"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        keys = project.cell_keys()
        if keys is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(
                isinstance(dec, ast.Call)
                and terminal_name(dec.func) == "job_kind"
                for dec in node.decorator_list
            ):
                what = f"@job_kind '{node.name}'"
            elif node.name == _SHARED_ROW_FUNCTION:
                what = f"shared row builder '{node.name}'"
            else:
                continue
            for sub, literal in _row_literals(node):
                literal_keys = {
                    k.value
                    for k in literal.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                }
                # Dicts built with **spreads or computed keys are
                # opaque to a static check; only literal dicts count.
                if len(literal_keys) != len(literal.keys):
                    continue
                missing = [k for k in keys if k not in literal_keys]
                if missing:
                    yield self.finding(
                        module,
                        sub,
                        f"{what} metrics dict is missing "
                        f"cell key(s) {', '.join(missing)}",
                    )


def _row_literals(fn: ast.AST) -> Iterator[tuple[ast.stmt, ast.Dict]]:
    """The dict literals a row-producing function assigns to ``metrics``
    or returns, each with the statement a finding should point at."""
    for sub in ast.walk(fn):
        if isinstance(sub, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "metrics" for t in sub.targets
        ):
            value = sub.value
        elif isinstance(sub, ast.Return):
            value = sub.value
        else:
            continue
        if isinstance(value, ast.Dict):
            yield sub, value
