"""The one scenario cell: ``Scenario`` names it, builds it, measures it.

Pins the contracts of :mod:`repro.sweep.scenario`:

* **byte identity** — four ``benign-run`` rows captured before the
  refactor (``tests/data/golden_benign_rows.json``) compare equal in
  keys, key order and values;
* **one row** — the simulator row and the live row of one cell agree on
  every scenario-derived key (they used to read ``diameter`` and the
  default ``settle_threshold`` off two different topologies);
* **one flag set** — ``repro-live`` and ``repro-viz dashboard`` parse the
  same scenario argv into equal :class:`Scenario` objects, and no
  front-end gained or lost a flag;
* ``LiveRunConfig`` is a ``Scenario`` plus four live fields and behaves
  like the frozen dataclass it always was.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from repro.errors import RtError
from repro.rt import LiveRunConfig
from repro.rt.cli import build_parser as live_parser
from repro.serve.cli import build_parser as serve_parser
from repro.sweep import Job, SweepSpec, execute_job
from repro.sweep.aggregate import CELL_KEYS
from repro.sweep.cli import build_parser as sweep_parser
from repro.sweep.cli import scenario_from_args
from repro.sweep.scenario import Scenario, cell_metrics
from repro.viz.cli import build_parser as viz_parser
from repro.viz.cli import run_scenario

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_benign_rows.json").read_text()
)

SCENARIO_FIELDS = (
    "topology", "algorithm", "rates", "delays", "faults", "mobility",
    "duration", "rho", "seed",
)


class TestGoldenRows:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_benign_run_row_is_byte_identical(self, name):
        cell = GOLDEN[name]
        metrics = execute_job(
            Job(kind="benign-run", params=cell["params"])
        ).metrics
        assert list(metrics) == cell["keys"]
        assert metrics == cell["metrics"]
        assert json.dumps(metrics) == json.dumps(cell["metrics"])

    def test_the_traced_cell_carries_its_digest(self):
        assert GOLDEN["static_traced"]["keys"][-1] == "trace_sha256"
        assert "trace_sha256" not in GOLDEN["static"]["keys"]


class TestScenario:
    def test_exactly_the_nine_cell_fields(self):
        assert tuple(f.name for f in dataclasses.fields(Scenario)) == (
            SCENARIO_FIELDS
        )

    def test_params_round_trip(self):
        scenario = Scenario(
            topology="grid:3,4", algorithm="averaging:0.5", rates="wandering",
            delays="uniform:0.25,0.75", faults="loss:0.2",
            mobility="blink:0.3,4", duration=12.0, rho=0.1, seed=3,
        )
        params = scenario.params()
        assert set(params) == set(SCENARIO_FIELDS)
        assert Scenario.from_params(params) == scenario
        assert Scenario(**params) == scenario
        json.dumps(params)  # JSON-able: it is a job's params

    def test_from_params_defaults_the_churn_axes(self):
        params = Scenario().params()
        del params["faults"], params["mobility"]
        scenario = Scenario.from_params(params)
        assert (scenario.faults, scenario.mobility) == ("none", "static")

    def test_grouping_keys_are_the_scenario_axes_plus_transport(self):
        # CELL_KEYS (what aggregation groups rows by) and the record
        # (what names a cell) cannot drift: the string-valued Scenario
        # fields, in declaration order, then the backend.
        axes = tuple(
            f.name for f in dataclasses.fields(Scenario) if f.type == "str"
        )
        assert CELL_KEYS == (*axes, "transport")

    def test_build_is_one_cell_for_static_and_moving_networks(self):
        static = Scenario(topology="line:6").build()
        assert static.dynamic is None and static.topology.n == 6
        assert set(static.processes) == set(static.rates) == set(
            static.topology.nodes
        )
        assert static.fault_plan is None  # the fault-free plan
        moving = Scenario(topology="line:6", mobility="waypoint:0.5").build()
        assert moving.dynamic is not None
        assert moving.topology is moving.dynamic.initial

    def test_run_scenario_is_simulate_with_tracing_on(self):
        fields = dict(
            topology="line:5", algorithm="gradient", faults="crash:0.3",
            duration=6.0, rho=0.2, seed=2,
        )
        via_viz = run_scenario(**fields)
        direct = Scenario(**fields).simulate(record_trace=True)
        assert len(via_viz.trace) > 0
        assert via_viz.trace.digest() == direct.trace.digest()


class TestSimAndLiveRowsAgree:
    """One cell, two backends: every scenario-derived key is equal."""

    SHARED = (
        "topology", "algorithm", "rates", "delays", "faults", "mobility",
        "seed", "n_nodes", "diameter", "settle_threshold",
    )

    @pytest.mark.rt
    @pytest.mark.parametrize("mobility", ["waypoint:0.5", "blink:0.3,4"])
    def test_router_row_matches_sim_row_on_scenario_keys(self, mobility):
        spec = SweepSpec(
            topologies=("line:8",), algorithms=("gradient",),
            mobilities=(mobility,), transports=("sim", "router"),
            seeds=(0,), duration=4.0, rho=0.2, time_scale=0.05,
        )
        sim_job, live_job = spec.jobs()
        sim = execute_job(sim_job).metrics
        live = execute_job(live_job).metrics
        assert (sim["transport"], live["transport"]) == ("sim", "router")
        for key in self.SHARED:
            assert sim[key] == live[key], key
        # The shared row, in the shared order, then the live counters.
        assert list(live)[: len(sim)] == list(sim)

    def test_cell_metrics_reads_the_built_topology(self):
        scenario = Scenario(
            topology="line:8", mobility="waypoint:0.5", duration=4.0, rho=0.2
        )
        execution = scenario.simulate()
        row = cell_metrics(scenario, execution, transport="sim")
        # The t = 0 snapshot, not the static line:8 (diameter 7.0).
        assert row["diameter"] == float(execution.topology.diameter) != 7.0
        assert row["settle_threshold"] == 2.0 * row["diameter"] * 0.2


# ----------------------------------------------------------------------
# front-ends: one flag set, nothing gained or lost


def _subparser(parser: argparse.ArgumentParser, name: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[name]
    raise AssertionError(f"no subcommand {name!r}")


#: Captured at the parent commit (c9555d9): the exact option strings each
#: front-end accepted before the scenario flags moved into one builder.
FLAGS_AT_PARENT = {
    "repro-live": [
        "--alg", "--algorithm", "--delays", "--duration", "--faults",
        "--help", "--mobility", "--nodes", "--rates", "--rho", "--seed",
        "--tail", "--tail-interval", "--time-scale", "--topology",
        "--transport", "--workers", "-h",
    ],
    "repro-viz dashboard": [
        "--alg", "--algorithm", "--delays", "--duration", "--faults",
        "--frames", "--help", "--mobility", "--nodes", "--out", "--rates",
        "--rho", "--seed", "--topology", "-h",
    ],
    "repro-experiments sweep": [
        "--algorithms", "--cache-dir", "--delays", "--duration", "--faults",
        "--full", "--help", "--json-out", "--mobility", "--per-job",
        "--quick", "--rates", "--report", "--rho", "--seeds", "--spec",
        "--time-scale", "--topologies", "--transports", "--workers", "-h",
    ],
    "repro-serve submit": [
        "--algorithms", "--delays", "--duration", "--faults", "--full",
        "--help", "--mobility", "--name", "--quick", "--rates", "--rho",
        "--seeds", "--spec", "--store", "--time-scale", "--topologies",
        "--transports", "--wait", "--wait-timeout", "-h",
    ],
}

#: The scenario-flag defaults both single-cell front-ends had.
SCENARIO_DEFAULTS_AT_PARENT = {
    "topology": "line", "nodes": 8, "algorithm": "gradient",
    "rates": "drifted", "delays": "uniform", "faults": "none",
    "mobility": "static", "duration": 20.0, "rho": 0.2, "seed": 0,
}


class TestFrontEnds:
    @staticmethod
    def _parsers():
        return {
            "repro-live": live_parser(),
            "repro-viz dashboard": _subparser(viz_parser(), "dashboard"),
            "repro-experiments sweep": sweep_parser(),
            "repro-serve submit": _subparser(serve_parser(), "submit"),
        }

    def test_every_front_end_accepts_exactly_its_old_flags(self):
        for name, parser in self._parsers().items():
            assert sorted(parser._option_string_actions) == (
                FLAGS_AT_PARENT[name]
            ), name

    def test_scenario_flag_defaults_are_unchanged(self):
        parsers = self._parsers()
        for args in (
            parsers["repro-live"].parse_args([]),
            parsers["repro-viz dashboard"].parse_args([]),
        ):
            for flag, default in SCENARIO_DEFAULTS_AT_PARENT.items():
                assert getattr(args, flag) == default, flag
        live = parsers["repro-live"].parse_args([])
        assert (live.transport, live.time_scale, live.workers) == (
            "virtual", 0.1, 0
        )

    @pytest.mark.parametrize(
        "argv, topology",
        [
            (["--topology", "grid:3,4", "--nodes", "99"], "grid:3,4"),
            (["--topology", "ring", "--nodes", "6"], "ring:6"),
            ([], "line:8"),
        ],
    )
    def test_live_and_dashboard_parse_one_argv_to_one_scenario(
        self, argv, topology
    ):
        argv = argv + [
            "--alg", "averaging", "--rates", "wandering", "--delays", "half",
            "--faults", "loss:0.1", "--mobility", "blink:0.2,2",
            "--duration", "7.5", "--rho", "0.1", "--seed", "4",
        ]
        via_live = scenario_from_args(live_parser().parse_args(argv))
        via_dash = scenario_from_args(
            viz_parser().parse_args(["dashboard", *argv])
        )
        assert via_live == via_dash
        assert via_live == Scenario(
            topology=topology, algorithm="averaging", rates="wandering",
            delays="half", faults="loss:0.1", mobility="blink:0.2,2",
            duration=7.5, rho=0.1, seed=4,
        )


class TestLiveRunConfig:
    def test_same_thirteen_fields_and_is_a_scenario(self):
        names = {f.name for f in dataclasses.fields(LiveRunConfig)}
        assert names == set(SCENARIO_FIELDS) | {
            "transport", "time_scale", "record_trace", "workers",
        }
        assert issubclass(LiveRunConfig, Scenario)

    def test_replace_and_pickle_round_trip(self):
        config = LiveRunConfig(
            topology="ring:6", algorithm="averaging", rates="spread",
            delays="half", duration=9.0, rho=0.1, seed=5,
            transport="router", time_scale=0.2, record_trace=False,
            faults="crash-recover:0.25,5", mobility="blink:0.2,2", workers=3,
        )
        assert dataclasses.replace(config) == config
        moved = dataclasses.replace(config, seed=6)
        assert moved.seed == 6 and moved.workers == 3
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config and type(clone) is LiveRunConfig
        # The scenario half rebuilds the plain cell.
        assert Scenario(**config.params()).params() == config.params()

    @pytest.mark.parametrize("transport", ["virtual", "asyncio", "udp"])
    def test_churn_accepted_off_router(self, transport):
        # Churn is the loop's business, not a transport's: the config
        # that was refused here builds the same cell on every name.
        config = LiveRunConfig(
            transport=transport, faults="crash:0.25", mobility="blink:0.2,2",
        )
        router = dataclasses.replace(config, transport="router")
        assert config.params() == router.params()
        cell = config.build()
        assert cell.fault_plan == router.build().fault_plan is not None
        assert cell.dynamic is not None

    def test_unknown_transport_names_the_backends(self):
        with pytest.raises(RtError) as err:
            LiveRunConfig(transport="carrier-pigeon")
        assert str(err.value) == (
            "unknown transport 'carrier-pigeon'; "
            "backends: ['virtual', 'asyncio', 'udp', 'router']"
        )
