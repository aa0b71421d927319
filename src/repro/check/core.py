"""Core data model of the invariant checker.

The checker is deliberately *static*: it parses source files with the
stdlib :mod:`ast` module and never imports the code under analysis, so
it can run on a broken tree, inside CI sandboxes, and on fixture
snippets that would be unsafe to execute.  Three objects carry all
state:

* :class:`ModuleInfo` — one parsed source file (path, dotted module
  name, package, AST annotated with parent links, raw source lines);
* :class:`Project` — every module of one scan plus lazily-extracted
  project-wide indexes (trace-event kinds, sweep cell keys, the names
  the tree references) that the registry-sync and dead-API rules
  compare against;
* :class:`Finding` — one rule violation at one source location.

Rules subclass :class:`Rule` and yield findings from
``check(module, project)``.  Every rule has a short *code* (``DET001``,
``FLT001``, ...) that the ``# repro: allow[CODE]`` pragma references,
and a *hint* telling the author how to fix the finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = [
    "BASE_PACKAGES",
    "Finding",
    "ModuleInfo",
    "Project",
    "Rule",
    "attr_chain",
    "enclosing_function",
    "is_job_kind",
    "parse_module",
    "terminal_name",
]

#: Packages every layer may import: shared constants, the exception
#: hierarchy and the wire framing sit below the DAG (see
#: :mod:`repro.check.layering`).
BASE_PACKAGES = frozenset({"_constants", "errors", "wire"})


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str
    source: str = ""

    def render(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    rel: str
    module: str
    package: str
    tree: ast.Module
    lines: list[str]

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


def _annotate_parents(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._repro_parent = node  # type: ignore[attr-defined]


def enclosing_function(node: ast.AST) -> ast.AST | None:
    """The innermost ``def``/``async def`` containing ``node``, if any."""
    parent = getattr(node, "_repro_parent", None)
    while parent is not None:
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return parent
        parent = getattr(parent, "_repro_parent", None)
    return None


def module_name_for(path: Path) -> tuple[str, str]:
    """``(dotted module, package)`` for a source file path.

    The dotted name is anchored at the nearest ancestor directory named
    ``repro`` (so ``src/repro/sim/trace.py`` -> ``repro.sim.trace``);
    files outside any ``repro`` tree fall back to their stem, with an
    empty package, and only package-agnostic rules apply to them.
    """
    parts = list(path.parts)
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        dotted = list(parts[anchor:])
    else:
        dotted = [parts[-1]]
    if dotted[-1].endswith(".py"):
        dotted[-1] = dotted[-1][:-3]
    if dotted[-1] == "__init__":
        dotted.pop()
    module = ".".join(dotted) or path.stem
    if len(dotted) >= 2 and dotted[0] == "repro":
        package = dotted[1]
    elif dotted == ["repro"]:
        package = "repro"
    else:
        package = ""
    return module, package


def parse_module(path: Path, root: Path | None = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (parent links included)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    _annotate_parents(tree)
    module, package = module_name_for(path)
    try:
        rel = str(path.relative_to(root)) if root is not None else str(path)
    except ValueError:
        rel = str(path)
    return ModuleInfo(
        path=path,
        rel=rel,
        module=module,
        package=package,
        tree=tree,
        lines=text.splitlines(),
    )


def _installed_source(module: str) -> Path | None:
    """The source file of an importable module, without executing it."""
    import importlib.util

    try:
        spec = importlib.util.find_spec(module)
    except (ImportError, ValueError):
        return None
    if spec is None or spec.origin is None:
        return None
    origin = Path(spec.origin)
    return origin if origin.suffix == ".py" and origin.exists() else None


@dataclass
class Project:
    """All modules of one scan plus the central registries rules sync to."""

    root: Path
    modules: list[ModuleInfo] = field(default_factory=list)
    _by_name: dict[str, ModuleInfo] = field(default_factory=dict)
    _registry_cache: dict[str, object] = field(default_factory=dict)

    def add(self, info: ModuleInfo) -> None:
        self.modules.append(info)
        self._by_name[info.module] = info

    def get(self, module: str) -> ModuleInfo | None:
        return self._by_name.get(module)

    def _registry_tree(self, module: str) -> ast.Module | None:
        """The AST of a registry module: scanned copy first, else the
        installed source (still parsed statically, never imported)."""
        info = self.get(module)
        if info is not None:
            return info.tree
        origin = _installed_source(module)
        if origin is None:
            return None
        return ast.parse(origin.read_text(encoding="utf-8"))

    def trace_kinds(self) -> frozenset[str] | None:
        """Trace-event kinds declared by ``repro.sim.trace``.

        Extracted statically: every module-level ``NAME = "literal"``
        with an uppercase name is a registered kind.  Returns ``None``
        when the registry module cannot be located (rules then skip).
        """
        if "trace_kinds" not in self._registry_cache:
            kinds: set[str] = set()
            tree = self._registry_tree("repro.sim.trace")
            if tree is None:
                self._registry_cache["trace_kinds"] = None
                return None
            for node in tree.body:
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id.isupper()
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)
                ):
                    kinds.add(node.value.value)
            self._registry_cache["trace_kinds"] = frozenset(kinds) or None
        return self._registry_cache["trace_kinds"]  # type: ignore[return-value]

    def cell_keys(self) -> tuple[str, ...] | None:
        """``CELL_KEYS`` declared by ``repro.sweep.aggregate``."""
        if "cell_keys" not in self._registry_cache:
            keys: tuple[str, ...] | None = None
            tree = self._registry_tree("repro.sweep.aggregate")
            if tree is not None:
                for node in tree.body:
                    if (
                        isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and node.targets[0].id == "CELL_KEYS"
                        and isinstance(node.value, (ast.Tuple, ast.List))
                    ):
                        elts = node.value.elts
                        if all(
                            isinstance(e, ast.Constant) and isinstance(e.value, str)
                            for e in elts
                        ):
                            keys = tuple(e.value for e in elts)  # type: ignore[misc]
            self._registry_cache["cell_keys"] = keys
        return self._registry_cache["cell_keys"]  # type: ignore[return-value]

    def references(self) -> frozenset[str]:
        """Every name the scanned modules use, for DEAD001.

        A reference is a ``Name``/``Attribute`` load, or an
        identifier-shaped string constant outside ``__all__`` (so
        ``getattr(obj, "name")`` and op-name dispatch tables count).
        Import statements and ``__all__`` re-exports do not.
        """
        if "references" not in self._registry_cache:
            names: set[str] = set()
            for info in self.modules:
                exported = {
                    id(node)
                    for stmt in info.tree.body
                    if isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "__all__"
                        for t in stmt.targets
                    )
                    for node in ast.walk(stmt.value)
                }
                for node in ast.walk(info.tree):
                    if isinstance(node, ast.Name):
                        if isinstance(node.ctx, ast.Load):
                            names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        if isinstance(node.ctx, ast.Load):
                            names.add(node.attr)
                    elif (
                        isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and node.value.isidentifier()
                        and id(node) not in exported
                    ):
                        names.add(node.value)
            self._registry_cache["references"] = frozenset(names)
        return self._registry_cache["references"]  # type: ignore[return-value]


class Rule:
    """Base class: one invariant, one code, one fix hint."""

    code: str = ""
    name: str = ""
    hint: str = ""
    #: One sentence tying the rule to the contract it protects
    #: (rendered by ``repro-check --list-rules`` and the docs).
    contract: str = ""

    def check(self, module: ModuleInfo, project: Project) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: ModuleInfo,
        node: ast.AST,
        message: str,
        hint: str | None = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.code,
            path=module.rel,
            line=line,
            col=col,
            message=message,
            hint=self.hint if hint is None else hint,
            source=module.source_line(line),
        )


def attr_chain(node: ast.AST) -> list[str] | None:
    """``["np", "random", "rand"]`` for ``np.random.rand``; None if not
    a pure Name/Attribute chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute/Subscript/Call expr."""
    if isinstance(node, ast.Call):
        node = node.func
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_job_kind(node: ast.AST) -> bool:
    """Whether a ``def`` is registered with a ``@job_kind(...)`` decorator."""
    return any(
        isinstance(dec, ast.Call) and terminal_name(dec.func) == "job_kind"
        for dec in getattr(node, "decorator_list", ())
    )
