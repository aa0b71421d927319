"""Cross-validation: the virtual-time live runtime vs the simulator.

The acceptance contract of the LiveNode adapter (contract 2): an
unchanged algorithm process run through ``run_live`` on the ``virtual``
transport produces the **same execution** as ``Scenario.simulate`` of
the same cell — same trace digest, same ``Message`` tuples, bitwise the
same logical- and hardware-clock matrices, no tolerance anywhere —
because the two loops share event ordering, RNG streams and clock
arithmetic.  ``assert_equivalent`` is the harness the simulator's own
reference-vs-production contract uses, so a divergence is reported as
the index of the first differing event, both events, and the last
common one.
"""

from __future__ import annotations

import pytest
from _engine_helpers import assert_equivalent

from repro.errors import RtError
from repro.rt import LiveRunConfig, run_live
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
