"""numpy is the package's one third-party dependency, declared and real.

Every repro process — each CLI, each ``repro-serve`` daemon — pays at
start-up for whatever the package imports, so a heavy import for one
small graph walk is a cost on every run.  Two checks keep the list
short and honest: what a cold interpreter loads for the public entry
points, and what ``src/`` imports against what ``setup.py`` declares.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

ENTRY_POINTS = "repro, repro.serve.cli, repro.rt, repro.viz, repro.experiments"

#: Prints the top-level names of every loaded module that is not an
#: alias of ``__main__`` (multiprocessing registers ``__mp_main__``).
LIST_MODULES = (
    "import json, sys; main = sys.modules['__main__']; "
    "print(json.dumps(sorted({name.split('.')[0] "
    "for name, module in list(sys.modules.items()) if module is not main})))"
)


def loaded_top_level(prelude: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", f"{prelude}\n{LIST_MODULES}"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    return set(json.loads(out))


def test_cold_import_loads_only_numpy():
    bare = loaded_top_level("pass")
    loaded = loaded_top_level(f"import {ENTRY_POINTS}")
    extra = loaded - bare
    assert {"numpy", "repro"} <= extra
    foreign = sorted(
        name for name in extra - {"numpy", "repro"}
        if name not in sys.stdlib_module_names
    )
    assert foreign == []


def imported_packages() -> set[str]:
    """Top-level names of the absolute imports under ``src/``, minus
    the standard library and the package itself."""
    names = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {
        name for name in names
        if name != "repro" and name not in sys.stdlib_module_names
    }


def declared_requirements() -> set[str]:
    """The distribution names in ``setup.py``'s ``install_requires``."""
    for node in ast.walk(ast.parse((ROOT / "setup.py").read_text())):
        if isinstance(node, ast.keyword) and node.arg == "install_requires":
            return {
                re.match(r"[A-Za-z0-9_.-]+", spec).group()
                for spec in ast.literal_eval(node.value)
            }
    raise AssertionError("setup.py declares no install_requires")


def test_declared_dependencies_match_imports():
    assert imported_packages() == declared_requirements()
