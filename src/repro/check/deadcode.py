"""Dead-API rule: every public definition has a caller in the tree.

``DEAD001`` flags a public top-level function or class, or a public
method of a top-level class, whose name nothing in the scan references
(:meth:`~repro.check.core.Project.references`: name and attribute
loads plus identifier-shaped strings outside ``__all__``).  Private
names, dunders and ``@job_kind`` functions (dispatched by their kind
string) are not candidates.

Matching is by name, so the rule can miss dead code that shares a name
with live code, but it never flags code that is called by name.  It
judges only a scan of the whole package (``repro/__init__.py`` among
the files): a partial scan cannot see every caller.  Code kept for a
caller outside ``src/`` carries a ``# repro: allow[DEAD001]`` pragma
naming that caller.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.core import Finding, ModuleInfo, Project, Rule, is_job_kind

__all__ = ["UnreferencedApiRule"]


def _candidates(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """``(definition, label)`` for every public def this rule judges."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield node, f'class "{node.name}"'
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield member, f'method "{node.name}.{member.name}"'
        elif (
            isinstance(node, functions)
            and not node.name.startswith("_")
            and not is_job_kind(node)
        ):
            yield node, f'function "{node.name}"'


class UnreferencedApiRule(Rule):
    code = "DEAD001"
    name = "unreferenced-api"
    hint = (
        "delete it with the tests that only exercise it, or keep it with "
        "a same-line '# repro: allow[DEAD001] <reason>' pragma naming the "
        "caller outside src/ that needs it"
    )
    contract = (
        "src/ keeps the paper's model and oracles plus what they run "
        "through; a public name nothing calls is unowned code"
    )

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        if project.get("repro") is None:
            return
        used = project.references()
        for node, label in _candidates(module.tree):
            if node.name not in used:
                yield self.finding(
                    module, node, f"public {label} has no reference in the tree"
                )
