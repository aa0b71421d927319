"""Entry point: ``repro-check`` / ``python -m repro.check``.

Usage::

    repro-check [PATHS...]               # default: src/ (or cwd's repro/)
    repro-check src --format json
    repro-check src --rules FLT001,LAY001
    repro-check --list-rules

Exit codes: 0 — clean (no findings, no stale pragmas); 1 — findings;
2 — usage or I/O error.  The only way to suppress a finding is a
same-line ``# repro: allow[CODE] <reason>`` pragma.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.check.runner import ALL_RULES, default_rules, run_check

__all__ = ["main"]


def _default_paths() -> list[Path]:
    for candidate in (Path("src"), Path("repro")):
        if candidate.is_dir():
            return [candidate]
    return [Path(".")]


def _list_rules() -> str:
    lines = []
    for rule in ALL_RULES:
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"    contract: {rule.contract}")
        lines.append(f"    fix: {rule.hint}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Static invariant linter for the gradient-clock-sync repo: "
            "determinism, float discipline, layering, pickle safety, "
            "registry sync, dead API.  Suppress one finding with a same-line "
            "'# repro: allow[CODE]' pragma."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to check (default: src/)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="output format",
    )
    parser.add_argument(
        "--rules",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rules and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    paths = [Path(p) for p in args.paths] or _default_paths()

    try:
        rules = default_rules(
            args.rules.split(",") if args.rules else None
        )
        start = time.perf_counter()
        report = run_check(paths, rules=rules)
        elapsed = time.perf_counter() - start
    except (FileNotFoundError, SyntaxError, ValueError) as exc:
        print(f"repro-check: error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = {
            "checked_files": report.checked_files,
            "elapsed_s": round(elapsed, 3),
            "new": [vars(f) for f in report.new],
            "suppressed": report.suppressed,
            "stale_pragmas": [vars(f) for f in report.stale_pragmas],
            "exit_code": report.exit_code,
        }
        print(json.dumps(payload, indent=2))
        return report.exit_code

    for finding in report.new + report.stale_pragmas:
        print(finding.render())
    summary = (
        f"repro-check: {report.checked_files} file(s), "
        f"{len(report.new)} new finding(s), "
        f"{report.suppressed} suppressed, "
        f"{len(report.stale_pragmas)} stale pragma(s) "
        f"[{elapsed:.2f}s]"
    )
    print(summary)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
