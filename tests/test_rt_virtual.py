"""Cross-validation: the virtual-time live runtime vs the simulator.

The acceptance contract of the LiveNode adapter (contract 2): an
unchanged algorithm process run through ``run_live`` on the ``virtual``
transport produces the **same execution** as ``Scenario.simulate`` of
the same cell — same trace digest, same ``Message`` tuples, bitwise the
same logical- and hardware-clock matrices, the same fault counters and
topology timeline, no tolerance anywhere — because the two loops share
event ordering, RNG streams, clock arithmetic and the one
``FaultController`` that executes a fault plan.  The contract covers
every algorithm x fault family x mobility family.
``assert_equivalent`` is the harness the simulator's own
reference-vs-production contract uses, so a divergence is reported as
the index of the first differing event, both events, and the last
common one.
"""

from __future__ import annotations

import pytest
from _engine_helpers import assert_equivalent

from repro.errors import RtError
from repro.experiments.e14_live import skew_bound
from repro.rt import LiveRunConfig, run_live
from repro.sim.faults import FaultPlan
from repro.sweep import scenario as scenario_module
from repro.sweep.families import ALGORITHM_KINDS

GRADIENT_8 = LiveRunConfig(
    topology="line:8", algorithm="gradient", rates="drifted",
    delays="uniform", duration=30.0, rho=0.2, seed=5, transport="virtual",
)


class TestCrossValidation:
    def test_gradient_skew_trajectory_matches_simulator(self):
        """The acceptance criterion: 8-node line, gradient, same seed —
        the max-skew trajectory is equal, bit for bit, at every sample."""
        live = run_live(GRADIENT_8)
        sim = GRADIENT_8.simulate(record_trace=True)
        times = sim.sample_times(0.5)
        assert [live.max_skew(t) for t in times] == [sim.max_skew(t) for t in times]

    def test_trace_and_messages_identical(self):
        assert_equivalent(GRADIENT_8.simulate(record_trace=True), run_live(GRADIENT_8))

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHM_KINDS))
    def test_every_algorithm_matches_simulator(self, algorithm):
        for delays in ("half", "uniform"):
            config = LiveRunConfig(
                topology="ring:6", algorithm=algorithm, rates="spread",
                delays=delays, duration=15.0, rho=0.2, seed=2,
                transport="virtual",
            )
            assert_equivalent(config.simulate(record_trace=True), run_live(config))

    def test_an_event_due_exactly_at_the_horizon_still_runs(self):
        # Constant rates put the period-1 timers on whole numbers, so
        # one fires at t == duration: the simulator runs it, and so must
        # the virtual clock's horizon test.
        config = LiveRunConfig(
            topology="line:4", algorithm="max-based", rates="constant",
            delays="half", duration=6.0, seed=1, transport="virtual",
        )
        live = run_live(config)
        assert_equivalent(config.simulate(record_trace=True), live)
        assert live.trace.events[-1].real_time == config.duration

    def test_virtual_runs_deterministic(self):
        assert_equivalent(run_live(GRADIENT_8), run_live(GRADIENT_8))


FAULT_FAMILIES = (
    "none", "loss:0.2", "duplicate:0.2", "reorder:0.3", "crash:0.25",
    "crash-recover:0.25,3", "churn:0.25,3",
)
MOBILITY_FAMILIES = ("static", "blink:0.3,4", "waypoint:0.5,4", "interleave:0.5")


def churn_cell(**fields) -> LiveRunConfig:
    base = dict(
        topology="line:8", algorithm="gradient", rates="drifted",
        delays="uniform", duration=12.0, rho=0.2, seed=3, transport="virtual",
    )
    return LiveRunConfig(**{**base, **fields})


def assert_cell_equivalent(config: LiveRunConfig):
    sim, live = config.simulate(record_trace=True), run_live(config)
    assert_equivalent(sim, live)
    return sim, live


class TestChurnGrid:
    """Contract 2 over faults x mobility: one executor, one execution."""

    @pytest.mark.parametrize("mobility", MOBILITY_FAMILIES)
    @pytest.mark.parametrize("faults", FAULT_FAMILIES)
    def test_every_fault_and_mobility_family_matches_simulator(
        self, faults, mobility
    ):
        for algorithm in ("gradient", "max-based"):
            assert_cell_equivalent(
                churn_cell(algorithm=algorithm, faults=faults, mobility=mobility)
            )

    @pytest.mark.parametrize("faults", ["loss:0.2", "duplicate:0.2"])
    def test_messages_are_the_copies_the_link_carried(self, faults):
        # Lost copies are never recorded and duplicates are (the
        # simulator's identity), so the sim and virtual rows agree.
        config = churn_cell(faults=faults)
        sim, live = assert_cell_equivalent(config)
        stats = live.fault_stats
        assert stats["lost_random"] + stats["duplicated"] > 0
        assert len(live.messages) == (
            len(live.trace.of_kind("send")) - stats["lost_random"]
            - stats["lost_link_down"] + stats["duplicated"]
        )
        sim_row, live_row = (
            scenario_module.cell_metrics(config, run, transport="either")
            for run in (sim, live)
        )
        assert live_row == sim_row
        assert live_row["fault_events"] == stats

    def test_mobile_cell_records_one_topology_event_per_swap(self):
        sim, live = assert_cell_equivalent(churn_cell(mobility="blink:0.3,4"))
        swaps = live.trace.of_kind("topology")
        assert [e.real_time for e in swaps] == [
            t for t, _ in live.topology_timeline[1:]
        ]
        assert {e.node for e in swaps} == {-1}
        assert live.fault_stats is None and sim.fault_stats is None

    def test_change_point_due_exactly_at_the_horizon(self):
        # blink period 8 on a 12-unit run brings its last edges back at
        # t = 12: the swap is on both heaps and in both timelines.
        config = churn_cell(mobility="blink:0.3,8")
        _, live = assert_cell_equivalent(config)
        assert live.topology_timeline[-1][0] == config.duration
        assert live.trace.of_kind("topology")[-1].real_time == config.duration

    def test_crash_at_time_zero(self, monkeypatch):
        # Down from the start: START is recorded, on_start never runs,
        # and the crash is an event at t = 0 like any other.
        plan = (
            FaultPlan().with_crash(2, 0.0, recover_at=4.0).with_crash(5, 0.0)
            .with_link(loss=0.1)
        )
        monkeypatch.setattr(
            scenario_module, "fault_plan_from_spec", lambda *a, **k: plan
        )
        _, live = assert_cell_equivalent(churn_cell(faults="crash:0.25"))
        assert [(e.real_time, e.node) for e in live.trace.of_kind("crash")] == [
            (0.0, 2), (0.0, 5),
        ]
        assert len(live.trace.of_kind("start")) == 8
        assert live.fault_stats["crashes"] == 2

    def test_swap_coinciding_with_a_crash(self, monkeypatch):
        # interleave:0.5 rewires at t = 6; so does the crash.  The swap
        # dispatches first, on both loops.
        plan = FaultPlan().with_crash(3, 6.0, recover_at=9.0)
        monkeypatch.setattr(
            scenario_module, "fault_plan_from_spec", lambda *a, **k: plan
        )
        _, live = assert_cell_equivalent(
            churn_cell(faults="crash:0.25", mobility="interleave:0.5")
        )
        at_six = [e.kind for e in live.trace.events if e.real_time == 6.0]
        assert at_six[:2] == ["topology", "crash"]

    @pytest.mark.rt
    @pytest.mark.parametrize("transport", ["asyncio", "udp"])
    def test_wall_clock_names_run_churn_cells(self, transport):
        config = LiveRunConfig(
            topology="line:6", algorithm="gradient", duration=6.0, rho=0.2,
            seed=4, transport=transport, time_scale=0.03,
            faults="crash-recover:0.34,2", mobility="blink:0.3,2",
        )
        execution = run_live(config)
        execution.check_validity()
        execution.check_delay_bounds()
        assert execution.max_skew(config.duration) <= skew_bound(
            execution.topology.diameter
        )
        stats = execution.fault_stats
        assert stats["crashes"] >= 1 and stats["recoveries"] >= 1
        assert len(execution.trace.of_kind("crash")) == stats["crashes"]
        assert len(execution.trace.of_kind("topology")) >= 1
        assert execution.is_dynamic


class TestExecutionCompatibility:
    """Live executions feed the whole measurement stack verbatim."""

    def test_model_compliance_checks_pass(self):
        execution = run_live(GRADIENT_8)
        execution.check_validity()
        execution.check_drift_bounds()
        execution.check_delay_bounds()

    def test_analysis_functions_accept_live_runs(self):
        from repro.analysis.convergence import settling_time
        from repro.analysis.skew import summarize

        execution = run_live(GRADIENT_8)
        skew = summarize(execution)
        assert skew.max_skew > 0.0
        settling_time(execution, threshold=5.0)  # shape check, value free
        profile = execution.gradient_profile()
        assert min(profile) == pytest.approx(1.0)
        assert execution.source == "live-virtual"

    def test_trace_queries_work(self):
        execution = run_live(GRADIENT_8)
        for node in execution.topology.nodes:
            observations = execution.trace.local_observations(node)
            assert observations[0][0] == "start"


class TestConfigValidation:
    def test_unknown_transport_rejected(self):
        with pytest.raises(RtError):
            LiveRunConfig(transport="carrier-pigeon")

    def test_bad_duration_rejected(self):
        with pytest.raises(RtError):
            LiveRunConfig(duration=0.0)

    def test_bad_time_scale_rejected(self):
        with pytest.raises(RtError):
            LiveRunConfig(time_scale=-1.0)

    def test_virtual_transport_runs_once(self):
        from repro.rt import LiveRecorder, ShardTransport

        transport = ShardTransport(
            recorder=LiveRecorder(), delay_policy=None, seed=0,
            duration=1.0, time_scale=None,
        )
        transport.run({})
        with pytest.raises(RtError):
            transport.run({})
