"""Self-tests for ``repro.check``, the static invariant linter.

Three layers of coverage:

* **the repo itself is clean** — the full checker runs over ``src/``
  against the committed (empty) baseline and must report nothing: this
  is the tier-1 gate that makes every rule a standing guarantee;
* **per-rule fixtures** — for each rule family a known-good and a
  known-bad snippet, written into a ``repro/``-shaped tmp tree, with
  the bad one asserting exactly the expected code fires (and the good
  one that nothing does);
* **machinery** — a hypothesis property pinning that the
  ``# repro: allow[CODE]`` pragma suppresses *exactly* its rule, the
  declared layer DAG pinned literally and checked acyclic, baseline
  round-trips, and the CLI's exit-code/JSON contract.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.check import (
    ALL_RULES,
    default_rules,
    load_baseline,
    run_check,
    write_baseline,
)
from repro.check.core import BASE_PACKAGES
from repro.check.layering import ALLOWED_IMPORTS, LAZY_ALLOWED, MODULE_EXEMPT

pytestmark = pytest.mark.check

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
BASELINE = REPO / "check_baseline.json"

RULE_CODES = tuple(rule.code for rule in ALL_RULES)


# ----------------------------------------------------------------------
# fixture snippets: one known-bad (and its minimal fix) per rule

#: code -> (relative path inside the fixture tree, bad source,
#:          1-indexed line the finding lands on, good source)
SNIPPETS: dict[str, tuple[str, str, int, str]] = {
    "DET001": (
        "repro/sim/fix_det1.py",
        "import time\nT = time.time()\n",
        2,
        "def now(sim):\n    return sim.current_time\n",
    ),
    "DET002": (
        "repro/analysis/fix_det2.py",
        "import random\nX = random.random()\n",
        2,
        "import random\n\ndef draw(seed):\n    return random.Random(seed).random()\n",
    ),
    "FLT001": (
        "repro/gcs/fix_flt.py",
        "def same_instant(t, end):\n    return t == end\n",
        2,
        "EPS = 1e-9\n\ndef same_instant(t, end):\n    return abs(t - end) <= EPS\n",
    ),
    "LAY001": (
        "repro/sim/fix_lay.py",
        "from repro.sweep.runner import run_jobs\n",
        1,
        "from repro.topology.base import Topology\n",
    ),
    "PKL001": (
        "repro/experiments/fix_pkl1.py",
        "def submit(run_jobs, jobs):\n    return run_jobs(jobs, key=lambda j: j)\n",
        2,
        "def cell_key(j):\n    return j\n\ndef submit(run_jobs, jobs):\n    return run_jobs(jobs, key=cell_key)\n",
    ),
    "PKL002": (
        "repro/experiments/fix_pkl2.py",
        "def make(Job):\n    def local_fn(params):\n        return {}\n    return Job(params=local_fn)\n",
        4,
        "def module_fn(params):\n    return {}\n\ndef make(Job):\n    return Job(params=module_fn)\n",
    ),
    "REG001": (
        "repro/viz/fix_reg1.py",
        'def receives(trace):\n    return trace.of_kind("recieve")\n',
        2,
        'def receives(trace):\n    return trace.of_kind("receive")\n',
    ),
    "REG002": (
        "repro/analysis/fix_reg2.py",
        '__all__ = ["missing_name"]\n',
        1,
        '__all__ = ["present"]\n\npresent = 1\n',
    ),
    "REG003": (
        "repro/apps/__init__.py",
        'from repro.sim.trace import TraceEvent\n\n__all__ = []\n',
        1,
        'from repro.sim.trace import TraceEvent\n\n__all__ = ["TraceEvent"]\n',
    ),
    "REG004": (
        "repro/sweep/fix_reg4.py",
        'from repro.sweep.jobs import job_kind\n\n'
        '@job_kind("partial")\n'
        "def partial(params):\n"
        '    metrics = {"topology": "line:4"}\n'
        "    return metrics\n",
        5,
        'from repro.sweep.jobs import job_kind\n\n'
        '@job_kind("full")\n'
        "def full(params):\n"
        "    metrics = dict(params)\n"
        "    return metrics\n",
    ),
}


def _write_tree(tmp_path: Path, rel: str, source: str) -> Path:
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return path


def _codes(report) -> list[str]:
    return [f.rule for f in report.new]


class TestRepoIsClean:
    """The tier-1 gate: the tree at head has zero findings."""

    def test_full_tree_empty_against_committed_baseline(self):
        report = run_check([SRC], baseline=BASELINE)
        assert report.checked_files > 100
        assert report.new == [], "\n".join(f.render() for f in report.new)
        assert report.stale_pragmas == []
        assert report.exit_code == 0

    def test_committed_baseline_is_empty(self):
        assert load_baseline(BASELINE) == frozenset()

    def test_suppressions_in_tree_are_documented(self):
        # The tree carries a handful of reviewed pragmas (metadata
        # stopwatches, the exact-origin normalization); each must
        # suppress a rule that would otherwise fire, i.e. stay load-
        # bearing rather than rot.
        report = run_check([SRC], baseline=BASELINE)
        assert report.suppressed >= 1


class TestOneSimulatorLoop:
    """The reference loop stays a test oracle; no knob selects a loop."""

    def test_nothing_under_src_imports_the_reference_loop(self):
        import ast

        offenders = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                else:
                    continue
                if any(name.split(".")[-1] == "reference" for name in names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    def test_no_config_has_an_engine_field(self):
        from dataclasses import fields

        from repro.sim.simulator import SimConfig
        from repro.sweep.spec import SweepSpec

        for config in (SimConfig, SweepSpec):
            assert "engine" not in {f.name for f in fields(config)}


class TestOneShardRuntime:
    """udp and router share one multi-process loop; framing sits below."""

    @staticmethod
    def _rt_modules_with(needle):
        return sorted(
            path.name
            for path in (SRC / "repro" / "rt").glob("*.py")
            if needle in path.read_text(encoding="utf-8")
        )

    def test_the_udp_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.rt.udp") is None
        assert importlib.util.find_spec("repro.rt.router") is None

    def test_one_select_loop_and_one_socket_drain(self):
        assert self._rt_modules_with("select.select(") == ["shard.py"]
        assert self._rt_modules_with("def _drain_socket") == ["shard.py"]

    def test_serve_imports_nothing_from_rt(self):
        # LAY001 holds every import under src/repro/serve/, lazy ones
        # included, to these two sets (and the tree is clean, above).
        granted = ALLOWED_IMPORTS["serve"] | LAZY_ALLOWED.get("serve", frozenset())
        assert "rt" not in granted
        report = run_check([SRC / "repro" / "serve"])
        assert [f for f in report.new if f.rule == "LAY001"] == []


class TestOneScenarioCell:
    """One path from a cell's name to its row: Scenario builds it,
    cell_metrics measures it, one table says what a transport can do."""

    PACKAGE = SRC / "repro"

    @classmethod
    def _modules_with(cls, needle, under=None):
        root = cls.PACKAGE if under is None else cls.PACKAGE / under
        return sorted(
            str(path.relative_to(cls.PACKAGE))
            for path in root.rglob("*.py")
            if needle in path.read_text(encoding="utf-8")
        )

    @pytest.mark.parametrize(
        "builder, also",
        [
            ("rates_from_spec(", []),
            ("delay_policy_from_spec(", ["sweep/spec.py"]),
            ("fault_plan_from_spec(", ["sweep/spec.py"]),
            ("mobility_from_spec(", ["sweep/spec.py"]),
        ],
    )
    def test_spec_strings_are_built_in_one_place(self, builder, also):
        # families.py defines the builders, scenario.py is the one
        # caller; SweepSpec.validate probe-builds three of them.
        assert self._modules_with(builder) == sorted(
            ["sweep/families.py", "sweep/scenario.py", *also]
        )

    def test_an_execution_is_born_from_a_scenario_or_a_schedule(self):
        # The simulator's definition and its three callers: a benign
        # cell (Scenario.simulate), an adversary's dictation
        # (AdversarySchedule.run) and the replay of a recorded run.
        assert self._modules_with("run_simulation(") == [
            "gcs/schedule.py",
            "sim/replay.py",
            "sim/simulator.py",
            "sweep/scenario.py",
        ]
        for under in ("experiments", "apps"):
            assert self._modules_with("SimConfig(", under) == [], under
            assert self._modules_with("run_simulation", under) == [], under
        common = ast.parse(
            (self.PACKAGE / "experiments" / "common.py").read_text()
        )
        assert not [
            node.module
            for node in ast.walk(common)
            if isinstance(node, ast.ImportFrom) and "sweep" in node.module
        ]

    def test_the_metrics_row_is_written_once(self):
        assert self._modules_with('"steady_worst_adjacent_skew"') == [
            "sweep/scenario.py"
        ]

    def test_live_nodes_are_constructed_at_one_site(self):
        sites = [
            (path.name, line.strip())
            for path in sorted((self.PACKAGE / "rt").glob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "LiveNode(" in line and not line.lstrip().startswith(("#", "*"))
        ]
        assert sites == [("node.py", "node: LiveNode(")]

    def test_the_scenario_flags_are_defined_once(self):
        for flag in ('"--mobility"', '"--faults"', '"--topology"', '"--nodes"'):
            assert self._modules_with(flag) == ["sweep/cli.py"], flag

    def test_transport_capabilities_live_in_one_table(self):
        for needle in ('"udp", "router"', '!= "router"', '== "router"',
                       "_FORKING_TRANSPORTS"):
            assert self._modules_with(needle) == [], needle
        from repro.experiments.e14_live import BACKENDS
        from repro.rt.transport import TRANSPORT_NAMES
        from repro.sweep.families import TRANSPORT_FAMILIES

        assert TRANSPORT_NAMES == tuple(TRANSPORT_FAMILIES)
        assert BACKENDS == ("sim", *TRANSPORT_FAMILIES)
        assert [n for n, f in TRANSPORT_FAMILIES.items() if f.forks] == [
            "udp", "router",
        ]
        # One capability: what a transport *can run* is every cell.
        assert {f._fields for f in TRANSPORT_FAMILIES.values()} == {("forks",)}

    def test_validating_a_live_spec_never_loads_the_runtime(self):
        # The transport table is pure data in sweep: expanding a grid
        # that names live cells (the daemon's submit path) must not
        # import repro.rt — no lazy import is left to do it.
        probe = (
            "import sys\n"
            "from repro.sweep import SweepSpec\n"
            "SweepSpec(transports=('sim', 'router')).jobs()\n"
            "assert not [m for m in sys.modules if m.startswith('repro.rt')]\n"
        )
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr

    def test_the_copies_are_gone(self):
        import importlib.util

        import repro.experiments.e14_live as e14
        import repro.rt as rt
        import repro.rt.shard as shard

        assert importlib.util.find_spec("repro.rt.hostclock") is None
        assert not hasattr(rt, "HostClock")
        assert not hasattr(e14, "_jobs")
        assert not hasattr(shard, "_scenario")

    def test_no_config_grew_a_field(self):
        from dataclasses import fields

        from repro.rt import LiveRunConfig
        from repro.sweep.scenario import Scenario
        from repro.sweep.spec import SweepSpec

        assert len(fields(Scenario)) == 9
        assert len(fields(LiveRunConfig)) == 13
        assert [f.name for f in fields(SweepSpec)] == [
            "topologies", "algorithms", "rate_families", "delay_policies",
            "fault_families", "mobilities", "transports", "seeds",
            "duration", "rho", "step", "time_scale", "name",
        ]


class TestOneLedger:
    """benchmarks/e2e is the only measuring system in the tree."""

    def test_benchmarks_holds_only_the_ledger(self):
        assert [p.name for p in (REPO / "benchmarks").iterdir()] == ["e2e"]
        assert list(REPO.glob("BENCH_*.json")) == []

    def test_nothing_names_a_deleted_bench_script_or_headline_file(self):
        import re

        legacy = re.compile(r"bench_\w*\.py|BENCH_")
        roots = ["src", "scripts", "docs", "examples", ".claude",
                 "README.md", "EXPERIMENTS.md"]
        offenders = [
            str(path.relative_to(REPO))
            for root in roots
            for path in sorted((REPO / root).rglob("*")) or [REPO / root]
            if path.is_file() and path.suffix != ".pyc"
            and legacy.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []

    def test_ci_smoke_runs_the_test_suite_once(self):
        script = (REPO / "scripts" / "ci_smoke.sh").read_text(encoding="utf-8")
        assert script.count("pytest") == 1


class TestOneSweepBackEnd:
    """run_jobs and the daemon share one store, one queue, one pool."""

    PACKAGE = SRC / "repro"

    @classmethod
    def _calls(cls, *names, under):
        """``module:function`` of every ``name(...)`` / ``<x>.name(...)``."""
        import ast

        sites = []
        for package in under:
            for path in sorted((cls.PACKAGE / package).rglob("*.py")):
                tree = ast.parse(path.read_text(encoding="utf-8"))
                for scope in ast.walk(tree):
                    if not isinstance(scope, ast.FunctionDef):
                        continue
                    sites += [
                        f"{path.relative_to(cls.PACKAGE)}:{scope.name}"
                        for node in ast.walk(scope)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "attr",
                                    getattr(node.func, "id", None)) in names
                    ]
        return sites

    def test_no_multiprocessing_pool_is_left(self):
        offenders = [
            str(path.relative_to(SRC))
            for path in sorted(self.PACKAGE.rglob("*.py"))
            if any(needle in path.read_text(encoding="utf-8")
                   for needle in (".Pool(", "imap"))
        ]
        assert offenders == []

    def test_one_worker_loop_and_it_lives_in_sweep(self):
        import ast

        # Processes and pipes are made in one place outside rt ...
        assert self._calls("Process", "Pipe", under=["sweep", "serve"]) == [
            "sweep/pool.py:_spawn", "sweep/pool.py:_spawn",
        ]
        # ... whose target is the only forked loop calling execute_job.
        pool = ast.parse(
            (self.PACKAGE / "sweep" / "pool.py").read_text(encoding="utf-8")
        )
        targets = {
            kw.value.id
            for node in ast.walk(pool) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "target"
        }
        assert targets == {"_worker_main"}
        callers = self._calls("execute_job", under=["sweep", "serve"])
        # run_jobs' call is the workers=1 loop in the calling process.
        assert callers == ["sweep/pool.py:_worker_main", "sweep/runner.py:run_jobs"]

    def test_the_daemon_keeps_only_what_is_a_daemons(self):
        import repro.serve
        import repro.serve.daemon as daemon

        for name in ("_worker_main", "_RESPAWN_BUDGET"):
            assert not hasattr(daemon, name)
        for method in ("_spawn_worker", "_pump", "_on_worker_readable",
                       "_on_worker_death"):
            assert not hasattr(daemon.ServeDaemon, method)
        assert not hasattr(repro.serve, "endpoint_from_store")

    def test_one_store_class_under_both_names(self):
        import importlib.util

        import repro.serve
        from repro.sweep import ResultCache
        from repro.sweep.store import ContentStore

        assert ResultCache is ContentStore
        assert repro.serve.ContentStore is ContentStore
        assert importlib.util.find_spec("repro.serve.store") is None
        assert importlib.util.find_spec("repro.serve.jobqueue") is None

    def test_the_forking_rule_has_one_reader_per_scheduler(self):
        readers = sorted(
            str(path.relative_to(self.PACKAGE))
            for path in self.PACKAGE.rglob("*.py")
            if path.parts[-2] != "rt"
            and any(needle in path.read_text(encoding="utf-8")
                    for needle in ("forking_transports(", ".forks"))
        )
        assert readers == [
            "serve/daemon.py", "sweep/families.py", "sweep/runner.py",
        ]


class TestOneLiveLoop:
    """virtual, asyncio, udp and router are four settings of one loop."""

    RT = SRC / "repro" / "rt"

    @classmethod
    def _rt_modules_with(cls, *needles):
        return sorted(
            path.name
            for path in cls.RT.glob("*.py")
            if any(n in path.read_text(encoding="utf-8") for n in needles)
        )

    def test_the_in_process_loop_modules_are_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.rt.virtual") is None
        assert importlib.util.find_spec("repro.rt.asyncio_transport") is None

    def test_one_heap_loop_and_one_run(self):
        assert self._rt_modules_with("heapq.heappop(") == ["shard.py"]
        assert self._rt_modules_with("def run(self, nodes") == ["shard.py"]

    def test_rt_borrows_no_other_event_loop(self):
        # (The loop does import ``sim.events.CrashNode`` — the marker the
        # fault controller's ``schedule`` hands its sink — but no queue.)
        assert self._rt_modules_with(
            "import asyncio", "from asyncio", "EventQueue",
            "call_later", "abstractmethod",
        ) == []

    def test_the_transport_table_did_not_move(self):
        from repro.sweep.families import TRANSPORT_FAMILIES

        assert {n: tuple(f) for n, f in TRANSPORT_FAMILIES.items()} == {
            "virtual": (False,),
            "asyncio": (False,),
            "udp": (True,),
            "router": (True,),
        }
        assert tuple(TRANSPORT_FAMILIES) == ("virtual", "asyncio", "udp", "router")

    def test_live_stats_is_written_at_one_site(self):
        sites = [
            str(path.relative_to(SRC))
            for path in sorted((SRC / "repro").rglob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "live_stats={" in line
        ]
        assert sites == ["repro/rt/recorder.py"]


class TestOneFaultExecutor:
    """A FaultPlan is executed by FaultController and by nothing else."""

    _modules_with = TestOneScenarioCell._modules_with

    def test_the_controller_is_built_by_the_two_loops_only(self):
        # The simulator's RunSetup (shared by the reference loop) and
        # the live loop; the switch has none.
        assert self._modules_with("FaultController(") == [
            "rt/shard.py", "sim/simulator.py",
        ]

    @pytest.mark.parametrize("needle", [
        # the shard loop's hand-copied crash machinery
        "_delivery_lost", "_crash_by_node",
        # the switch's comm-edge check and its counter
        "dropped_no_edge", "lost_no_edge",
        # the capability column that kept three names away from churn
        ".churn",
        # the pre-FaultPlan wrappers and their sentinel
        "CrashingProcess", "DroppingDelayPolicy", "DROPPED",
    ])
    def test_the_copies_are_gone(self, needle):
        assert self._modules_with(needle) == []


class TestRuleFixtures:
    """Each rule family: the bad snippet fires, the good one does not."""

    @pytest.mark.parametrize("code", sorted(SNIPPETS))
    def test_bad_snippet_fires(self, tmp_path, code):
        rel, bad, lineno, _good = SNIPPETS[code]
        _write_tree(tmp_path, rel, bad)
        report = run_check([tmp_path])
        assert code in _codes(report), "\n".join(
            f.render() for f in report.new
        )
        lines = [f.line for f in report.new if f.rule == code]
        assert lineno in lines

    @pytest.mark.parametrize("code", sorted(SNIPPETS))
    def test_good_snippet_is_clean(self, tmp_path, code):
        rel, _bad, _lineno, good = SNIPPETS[code]
        _write_tree(tmp_path, rel, good)
        report = run_check([tmp_path])
        assert report.new == [], "\n".join(f.render() for f in report.new)

    @pytest.mark.parametrize("code", sorted(SNIPPETS))
    def test_injected_bad_fixture_fails_full_tree(self, tmp_path, code):
        """Acceptance criterion: src/ + any known-bad snippet -> nonzero."""
        rel, bad, _lineno, _good = SNIPPETS[code]
        import shutil

        tree = tmp_path / "src"
        shutil.copytree(SRC, tree)
        inject = tree / Path(rel).parent / ("injected_" + Path(rel).name)
        if Path(rel).name == "__init__.py":
            # Can't duplicate a package __init__; plant a sibling package.
            inject = tree / "repro" / "apps" / "injected" / "__init__.py"
            inject.parent.mkdir()
        inject.write_text(bad, encoding="utf-8")
        report = run_check([tree], baseline=BASELINE)
        assert report.exit_code == 1
        assert code in _codes(report)


    def test_reg004_checks_returned_literals_too(self, tmp_path):
        # A kind that returns its row without naming it `metrics` used
        # to escape REG004 entirely.
        returned = (
            'from repro.sweep.jobs import job_kind\n\n'
            '@job_kind("partial")\n'
            "def partial(params):\n"
            '    return {"topology": "line:4"}\n'
        )
        _write_tree(tmp_path, "repro/sweep/fix_reg4_return.py", returned)
        report = run_check([tmp_path])
        assert [(f.rule, f.line) for f in report.new] == [("REG004", 5)]

    def test_reg004_checks_the_shared_row_builder(self, tmp_path):
        shared = (
            "def cell_metrics(scenario, execution):\n"
            '    return {"topology": scenario.topology}\n'
        )
        _write_tree(tmp_path, "repro/sweep/scenario.py", shared)
        report = run_check([tmp_path])
        assert [(f.rule, f.line) for f in report.new] == [("REG004", 2)]


class TestPragma:
    """# repro: allow[CODE] silences exactly its rule on its line."""

    @given(
        target=st.sampled_from(sorted(SNIPPETS)),
        allowed=st.sampled_from(RULE_CODES),
    )
    @settings(max_examples=60, deadline=None)
    def test_pragma_silences_exactly_its_rule(
        self, tmp_path_factory, target, allowed
    ):
        rel, bad, lineno, _good = SNIPPETS[target]
        lines = bad.splitlines()
        lines[lineno - 1] += f"  # repro: allow[{allowed}]"
        tmp = tmp_path_factory.mktemp("pragma")
        _write_tree(tmp, rel, "\n".join(lines) + "\n")
        report = run_check([tmp])
        fired = [f.rule for f in report.new if f.line == lineno]
        if allowed == target:
            assert target not in fired
            assert report.suppressed >= 1
        else:
            assert target in fired

    def test_pragma_in_docstring_does_not_suppress(self, tmp_path):
        rel, bad, lineno, _good = SNIPPETS["DET001"]
        lines = bad.splitlines()
        lines[lineno - 1] = (
            '"""docs mention # repro: allow[DET001] here"""; '
            + lines[lineno - 1]
        )
        _write_tree(tmp_path, rel, "\n".join(lines) + "\n")
        report = run_check([tmp_path])
        assert "DET001" in _codes(report)

    def test_unknown_pragma_code_is_reported_stale(self, tmp_path):
        _write_tree(
            tmp_path,
            "repro/sim/stale.py",
            "X = 1  # repro: allow[NOPE99]\n",
        )
        report = run_check([tmp_path])
        assert [f.rule for f in report.stale_pragmas] == ["PRAGMA"]
        assert report.exit_code == 1

    def test_multi_code_pragma(self, tmp_path):
        _write_tree(
            tmp_path,
            "repro/sim/multi.py",
            "import time\n"
            "T = time.time()  # repro: allow[DET001,FLT001]\n",
        )
        report = run_check([tmp_path])
        assert report.new == []
        assert report.suppressed == 1


class TestLayerDag:
    """The declared DAG itself: pinned, acyclic, honest about the tree."""

    def test_declared_dag_is_pinned(self):
        # The reviewable contract from docs/ARCHITECTURE.md, verbatim.
        assert ALLOWED_IMPORTS["topology"] == frozenset()
        assert ALLOWED_IMPORTS["sim"] == {"topology"}
        assert ALLOWED_IMPORTS["algorithms"] == {"sim", "topology"}
        assert ALLOWED_IMPORTS["analysis"] == {"sim", "topology"}
        assert ALLOWED_IMPORTS["gcs"] == {
            "sim",
            "topology",
            "algorithms",
            "analysis",
        }
        assert ALLOWED_IMPORTS["sweep"] == {
            "sim",
            "topology",
            "algorithms",
            "analysis",
        }
        assert ALLOWED_IMPORTS["rt"] == ALLOWED_IMPORTS["sweep"] | {"sweep"}
        assert ALLOWED_IMPORTS["viz"] == ALLOWED_IMPORTS["sweep"] | {"sweep"}
        assert ALLOWED_IMPORTS["serve"] == ALLOWED_IMPORTS["rt"]
        assert ALLOWED_IMPORTS["check"] == frozenset()
        assert "check" not in ALLOWED_IMPORTS["experiments"]
        # serve is a leaf: only the experiments CLI verb may reach it,
        # and only lazily.
        assert "serve" not in ALLOWED_IMPORTS["experiments"]
        for pkg, deps in ALLOWED_IMPORTS.items():
            assert "serve" not in deps, pkg
        assert "serve" in LAZY_ALLOWED["experiments"]
        assert BASE_PACKAGES == {"_constants", "errors", "wire"}

    def test_declared_dag_is_acyclic(self):
        graph = {pkg: set(deps) for pkg, deps in ALLOWED_IMPORTS.items()}
        seen: dict[str, int] = {}  # 0 = visiting, 1 = done

        def visit(node: str, stack: tuple[str, ...]) -> None:
            if seen.get(node) == 1:
                return
            assert seen.get(node) != 0, f"cycle: {' -> '.join(stack)}"
            seen[node] = 0
            for dep in graph.get(node, ()):
                visit(dep, stack + (dep,))
            seen[node] = 1

        for pkg in graph:
            visit(pkg, (pkg,))

    def test_lazy_edges_do_not_weaken_low_layers(self):
        # The packages below the runtimes may never reach rt/sweep/viz,
        # not even lazily.
        for pkg in ("sim", "analysis", "gcs", "topology", "algorithms"):
            lazy = LAZY_ALLOWED.get(pkg, frozenset())
            assert not lazy & {"rt", "viz"}, pkg
            if pkg != "sim":
                assert not lazy & {"sweep"}, pkg

    def test_exemptions_carry_reasons(self):
        for module, (extra, reason) in MODULE_EXEMPT.items():
            assert module.startswith("repro.")
            assert extra
            assert len(reason) > 20, "exemptions must be justified"


class TestBaseline:
    def test_write_load_roundtrip_and_grandfathering(self, tmp_path):
        rel, bad, _lineno, _good = SNIPPETS["FLT001"]
        _write_tree(tmp_path, rel, bad)
        report = run_check([tmp_path])
        assert report.new
        baseline = tmp_path / "check_baseline.json"
        write_baseline(baseline, report.all_current)
        assert load_baseline(baseline)
        again = run_check([tmp_path], baseline=baseline)
        assert again.new == []
        assert len(again.grandfathered) == len(report.new)
        assert again.exit_code == 0

    def test_baseline_survives_line_shifts_not_edits(self, tmp_path):
        rel, bad, _lineno, _good = SNIPPETS["FLT001"]
        path = _write_tree(tmp_path, rel, bad)
        baseline = tmp_path / "check_baseline.json"
        write_baseline(baseline, run_check([tmp_path]).all_current)
        # Prepending comment lines shifts line numbers: still pinned.
        path.write_text("# moved\n# down\n" + bad, encoding="utf-8")
        assert run_check([tmp_path], baseline=baseline).new == []
        # Editing the offending line makes the finding new again.
        path.write_text(bad.replace("t == end", "t != end"), encoding="utf-8")
        assert run_check([tmp_path], baseline=baseline).new


class TestRunnerApi:
    def test_default_rules_selection(self):
        assert default_rules() == ALL_RULES
        only = default_rules(["flt001"])
        assert [r.code for r in only] == ["FLT001"]
        with pytest.raises(ValueError, match="NOPE99"):
            default_rules(["NOPE99"])

    def test_rule_metadata_complete(self):
        codes = set()
        for rule in ALL_RULES:
            assert rule.code and rule.code not in codes
            codes.add(rule.code)
            assert rule.name and rule.hint and rule.contract

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            run_check([Path("no/such/dir")])


class TestCli:
    def _run(self, *argv: str, cwd: Path = REPO):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "repro.check", *argv],
            capture_output=True,
            text=True,
            cwd=cwd,
            env=env,
        )

    def test_clean_tree_exits_zero(self):
        proc = self._run("src", "--baseline", str(BASELINE))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 new finding(s)" in proc.stdout

    def test_json_format(self):
        proc = self._run("src", "--format", "json")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["new"] == []
        assert payload["checked_files"] > 100

    def test_bad_fixture_exits_nonzero(self, tmp_path):
        rel, bad, _lineno, _good = SNIPPETS["DET001"]
        _write_tree(tmp_path, rel, bad)
        proc = self._run(str(tmp_path))
        assert proc.returncode == 1
        assert "DET001" in proc.stdout

    def test_list_rules_names_every_family(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0
        for code in RULE_CODES:
            assert code in proc.stdout

    def test_experiments_check_verb(self):
        import os

        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments",
                "check",
                "src",
                "--baseline",
                str(BASELINE),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=env,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_unknown_rule_exits_two(self):
        proc = self._run("src", "--rules", "NOPE99")
        assert proc.returncode == 2


class TestFixedSiteRegressions:
    """Runtime complements for the findings this PR fixed in src/."""

    def test_algorithms_all_exports_standard_suite(self):
        import repro.algorithms as algorithms

        assert "standard_suite" in algorithms.__all__
        assert callable(algorithms.standard_suite)

    def test_experiments_all_exports_error_type(self):
        import repro.experiments as experiments

        assert "ExperimentError" in experiments.__all__

    @pytest.mark.parametrize(
        "package",
        [
            "repro",
            "repro.sim",
            "repro.topology",
            "repro.algorithms",
            "repro.analysis",
            "repro.gcs",
            "repro.apps",
            "repro.sweep",
            "repro.rt",
            "repro.viz",
            "repro.serve",
            "repro.experiments",
            "repro.check",
        ],
    )
    def test_every_all_entry_resolves(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), package
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.__all__ lists {name}"

    def test_version_matches_setup(self):
        import repro

        setup_text = (REPO / "setup.py").read_text(encoding="utf-8")
        assert f'version="{repro.__version__}"' in setup_text
