"""Pickle-safety rules: nothing unpicklable flows into a job payload.

The sweep engine fans jobs across forked pipe workers
(:mod:`repro.sweep.pool` — ``run_jobs`` and the serve daemon alike), so
every value reaching a :class:`~repro.sweep.jobs.Job`, a
:class:`~repro.sweep.spec.SweepSpec` field, a
:class:`~repro.sim.faults.FaultPlan` (and its windows), or a
:class:`~repro.rt.run.LiveRunConfig` must survive ``pickle``.  Lambdas,
closures, and locally-defined classes do not — and the failure surfaces
far from the definition site, inside a worker, as an opaque
``PicklingError``.  These rules move the error to the definition site:

* ``PKL001`` — a ``lambda`` appears (anywhere, including inside a
  list/tuple/dict literal) in the arguments of a pickle-boundary
  constructor call;
* ``PKL002`` — a name bound to a function or class *defined inside an
  enclosing function body* is passed to a pickle boundary.  Such
  objects pickle by qualified name, which a worker process cannot
  resolve.

Module-level functions and classes pass: they are importable by name.
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

__all__ = ["PICKLE_BOUNDARIES", "LambdaIntoJobRule", "LocalDefIntoJobRule"]

#: Callables whose arguments cross a process boundary.
PICKLE_BOUNDARIES = frozenset(
    {
        "SweepSpec",
        "Job",
        "FaultPlan",
        "CrashWindow",
        "LinkFault",
        "LiveRunConfig",
        "run_jobs",
        "execute_job",
        "job_hash",
    }
)


def _boundary_call(node: ast.Call) -> str | None:
    name = terminal_name(node.func)
    return name if name in PICKLE_BOUNDARIES else None


def _iter_argument_exprs(node: ast.Call):
    for arg in node.args:
        yield arg
    for kw in node.keywords:
        yield kw.value


def _walk_payload(expr: ast.AST):
    """Walk an argument expression, but do not descend into nested
    calls' own argument lists (those are that call's responsibility)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.Call):
            continue
        stack.extend(ast.iter_child_nodes(node))


class LambdaIntoJobRule(Rule):
    code = "PKL001"
    name = "no-lambda-into-job"
    hint = (
        "replace the lambda with a module-level function (picklable by "
        "qualified name) or a spec string resolved via repro.sweep.families"
    )
    contract = (
        "job payloads cross the multiprocessing boundary; a lambda fails "
        "to pickle deep inside a worker instead of at the definition site"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            boundary = _boundary_call(node)
            if boundary is None:
                continue
            for arg in _iter_argument_exprs(node):
                for sub in _walk_payload(arg):
                    if isinstance(sub, ast.Lambda):
                        yield self.finding(
                            module,
                            sub,
                            f"lambda passed into pickle boundary "
                            f"{boundary}(...)",
                        )


class LocalDefIntoJobRule(Rule):
    code = "PKL002"
    name = "no-local-def-into-job"
    hint = (
        "hoist the function/class to module level so workers can import "
        "it by qualified name"
    )
    contract = (
        "closures and local classes pickle by qualified name, which a "
        "worker process cannot resolve; only module-level definitions "
        "survive the pool"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        # Collect names defined inside function bodies, per enclosing
        # function node, so a reference can be traced to a local def.
        local_defs: dict[ast.AST, set[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {
                    child.name
                    for child in ast.walk(node)
                    if isinstance(
                        child,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                    and child is not node
                }
                local_defs[node] = names

        def _locally_defined(call: ast.Call, name: str) -> bool:
            parent = getattr(call, "_repro_parent", None)
            while parent is not None:
                if parent in local_defs and name in local_defs[parent]:
                    return True
                parent = getattr(parent, "_repro_parent", None)
            return False

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            boundary = _boundary_call(node)
            if boundary is None:
                continue
            for arg in _iter_argument_exprs(node):
                for sub in _walk_payload(arg):
                    if isinstance(sub, ast.Name) and _locally_defined(
                        node, sub.id
                    ):
                        yield self.finding(
                            module,
                            sub,
                            f"locally-defined '{sub.id}' passed into "
                            f"pickle boundary {boundary}(...)",
                        )
