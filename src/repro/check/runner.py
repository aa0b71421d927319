"""The checker runner: walk a tree, run every rule, apply pragmas.

``run_check`` is the programmatic entry point the CLI, the CI gate, and
the self-tests all share.  It parses every ``*.py`` under the given
paths (files or directories), runs each registered rule over each
module, drops findings suppressed by a same-line
``# repro: allow[CODE]`` pragma (the one suppression path), and reports
stale pragma codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.check.core import Finding, ModuleInfo, Project, Rule, parse_module
from repro.check.deadcode import UnreferencedApiRule
from repro.check.determinism import AmbientRandomnessRule, WallClockRule
from repro.check.floats import FloatTimeEqualityRule
from repro.check.layering import LayeringRule
from repro.check.pickles import LambdaIntoJobRule, LocalDefIntoJobRule
from repro.check.pragmas import suppressions, unknown_codes
from repro.check.registry import (
    AllExportsExistRule,
    CellKeysCoveredRule,
    InitExportsDeclaredRule,
    TraceKindLiteralRule,
)

__all__ = ["ALL_RULES", "CheckReport", "default_rules", "run_check"]

#: Every registered rule, in reporting order.  One instance each — the
#: rules are stateless.
ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    AmbientRandomnessRule(),
    FloatTimeEqualityRule(),
    LayeringRule(),
    LambdaIntoJobRule(),
    LocalDefIntoJobRule(),
    TraceKindLiteralRule(),
    AllExportsExistRule(),
    InitExportsDeclaredRule(),
    CellKeysCoveredRule(),
    UnreferencedApiRule(),
)


def default_rules(only: Iterable[str] | None = None) -> tuple[Rule, ...]:
    """All rules, optionally restricted to the given codes."""
    if only is None:
        return ALL_RULES
    wanted = {code.upper() for code in only}
    unknown = wanted - {rule.code for rule in ALL_RULES}
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return tuple(rule for rule in ALL_RULES if rule.code in wanted)


@dataclass
class CheckReport:
    """Everything one run produced."""

    new: list[Finding] = field(default_factory=list)
    suppressed: int = 0
    stale_pragmas: list[Finding] = field(default_factory=list)
    checked_files: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if (self.new or self.stale_pragmas) else 0


def _collect_files(paths: Sequence[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")
    return files


def run_check(
    paths: Sequence[Path | str],
    *,
    rules: Sequence[Rule] | None = None,
) -> CheckReport:
    """Run the checker over ``paths`` and return a :class:`CheckReport`."""
    resolved = [Path(p) for p in paths]
    for path in resolved:
        if not path.exists():
            raise FileNotFoundError(f"no such path: {path}")
    active = tuple(rules) if rules is not None else ALL_RULES
    known = frozenset(rule.code for rule in ALL_RULES)
    root = resolved[0] if resolved[0].is_dir() else resolved[0].parent

    project = Project(root=root)
    modules: list[ModuleInfo] = []
    for file in _collect_files(resolved):
        info = parse_module(file, root=root)
        project.add(info)
        modules.append(info)

    report = CheckReport(checked_files=len(modules))
    for info in modules:
        allow = suppressions(info)
        for rule in active:
            for finding in rule.check(info, project):
                if finding.rule in allow.get(finding.line, frozenset()):
                    report.suppressed += 1
                else:
                    report.new.append(finding)
        for lineno, code in unknown_codes(info, known):
            report.stale_pragmas.append(
                Finding(
                    rule="PRAGMA",
                    path=info.rel,
                    line=lineno,
                    col=0,
                    message=f"pragma allows unknown rule code {code}",
                    hint="remove the stale suppression or fix the code",
                    source=info.source_line(lineno),
                )
            )

    report.new.sort(key=lambda f: (f.path, f.line, f.rule))
    return report
