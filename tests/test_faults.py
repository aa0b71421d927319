"""Fault & churn adversary tests (sim.faults) — extensions beyond the paper.

The load-bearing guarantees:

* an empty ``FaultPlan`` is *free*: traces byte-identical to a run with
  no plan at all;
* identical (plan, seed) pairs produce identical traces;
* a down node executes nothing — no sends, no receives, no timer
  firings, not even trace events — and recovery restarts it through
  ``on_recover``;
* link faults (loss / duplication / reordering / down windows) stay
  inside the ``[0, d_ij]`` delay band and are fully counted in
  ``fault_stats``.
"""

import pickle

import pytest

from repro.algorithms import AveragingAlgorithm, MaxBasedAlgorithm
from repro.errors import FaultError
from repro.sim.faults import CrashWindow, FaultPlan, LinkFault
from repro.sim.messages import HalfDistanceDelay, UniformRandomDelay
from repro.sim.simulator import SimConfig, Simulator, run_simulation
from repro.topology.generators import line, ring

pytestmark = pytest.mark.faults


def run(topo, alg, *, duration=20.0, seed=0, plan=None, delay_policy=None, rho=0.2):
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=rho, seed=seed),
        delay_policy=delay_policy,
        fault_plan=plan,
    )


class TestFaultPlan:
    def test_empty_plan_is_empty(self):
        assert FaultPlan().is_empty()
        assert not FaultPlan().with_crash(0, at=1.0).is_empty()
        assert not FaultPlan().with_link(loss=0.1).is_empty()

    def test_builders_are_pure(self):
        base = FaultPlan()
        grown = base.with_crash(1, at=2.0).with_link(0, 1, loss=0.5)
        assert base.is_empty()
        assert len(grown.crashes) == 1 and len(grown.links) == 1

    def test_picklable_and_hashable(self):
        plan = (
            FaultPlan()
            .with_crash(0, at=3.0, recover_at=6.0)
            .with_link(loss=0.2, duplicate=0.1)
            .with_link_down(1, 2, (4.0, 8.0))
        )
        assert pickle.loads(pickle.dumps(plan)) == plan
        assert isinstance(hash(plan), int)

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan().with_crash(99, at=1.0),
            FaultPlan().with_crash(0, at=-1.0),
            FaultPlan().with_crash(0, at=5.0, recover_at=5.0),
            FaultPlan().with_crash(0, at=1.0).with_crash(0, at=2.0),
            FaultPlan().with_link(0, 99, loss=0.1),
            FaultPlan().with_link(loss=1.0),
            FaultPlan().with_link(0, 1, down=((3.0, 2.0),)),
        ],
    )
    def test_bad_plans_rejected(self, plan):
        topo = line(3)
        alg = MaxBasedAlgorithm()
        with pytest.raises(FaultError):
            run(topo, alg, plan=plan)

    def test_link_fault_wildcards(self):
        assert LinkFault(loss=0.1).matches(0, 5)
        assert LinkFault(sender=0).matches(0, 5)
        assert not LinkFault(sender=1).matches(0, 5)
        assert LinkFault(receiver=5).matches(0, 5)
        assert not LinkFault(receiver=4).matches(0, 5)


class TestDeterminismContract:
    def test_empty_plan_reproduces_fault_free_trace_exactly(self):
        topo = line(5)
        alg = MaxBasedAlgorithm()
        bare = run(topo, alg, delay_policy=UniformRandomDelay())
        empty = run(topo, alg, plan=FaultPlan(), delay_policy=UniformRandomDelay())
        assert bare.trace.events == empty.trace.events
        assert bare.messages == empty.messages
        assert bare.fault_stats is None and empty.fault_stats is None

    def test_same_plan_same_seed_identical_traces(self):
        topo = ring(6)
        plan = (
            FaultPlan()
            .with_crash(2, at=5.0, recover_at=11.0)
            .with_link(loss=0.2, duplicate=0.1, reorder=0.3)
        )
        runs = [
            run(topo, MaxBasedAlgorithm(), plan=plan,
                delay_policy=UniformRandomDelay())
            for _ in range(2)
        ]
        assert runs[0].trace.events == runs[1].trace.events
        assert runs[0].messages == runs[1].messages
        assert runs[0].fault_stats == runs[1].fault_stats

    def test_different_seed_different_losses(self):
        topo = line(5)
        plan = FaultPlan().with_link(loss=0.3)
        a = run(topo, MaxBasedAlgorithm(), plan=plan, seed=0)
        b = run(topo, MaxBasedAlgorithm(), plan=plan, seed=1)
        assert a.fault_stats != b.fault_stats or a.trace.events != b.trace.events


class TestCrashStop:
    def test_down_node_emits_and_observes_nothing(self):
        topo = line(4)
        plan = FaultPlan().with_crash(3, at=5.0)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=30.0)
        post = [
            e for e in ex.trace.events if e.node == 3 and e.real_time > 5.0
        ]
        # Nothing after the crash: no sends, receives, or timer firings.
        assert [e.kind for e in post] == []
        crash_events = ex.trace.of_kind("crash")
        assert [(e.node, e.real_time) for e in crash_events] == [(3, 5.0)]

    def test_in_flight_messages_lost_by_default(self):
        # 0 -> 1 at distance 1, full delay: a message sent at t=0.9
        # arrives at 1.9, after the sender's crash at t=1.0.
        topo = line(2)
        plan = FaultPlan().with_crash(0, at=1.0)
        ex = run(
            topo,
            MaxBasedAlgorithm(period=0.45),
            plan=plan,
            delay_policy=UniformRandomDelay(1.0, 1.0),
            duration=10.0,
        )
        assert ex.fault_stats["lost_in_flight"] > 0
        receives_from_0 = [
            e for e in ex.trace.of_kind("receive")
            if e.node == 1 and e.real_time > 1.0
        ]
        assert receives_from_0 == []

    def test_in_flight_messages_survive_when_asked(self):
        topo = line(2)
        plan = FaultPlan().with_crash(0, at=1.0, lose_in_flight=False)
        ex = run(
            topo,
            MaxBasedAlgorithm(period=0.45),
            plan=plan,
            delay_policy=UniformRandomDelay(1.0, 1.0),
            duration=10.0,
        )
        assert ex.fault_stats["lost_in_flight"] == 0
        assert [
            e for e in ex.trace.of_kind("receive")
            if e.node == 1 and e.real_time > 1.0
        ]

    def test_crash_at_zero_never_starts(self):
        topo = line(3)
        plan = FaultPlan().with_crash(1, at=0.0)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=10.0)
        assert not [e for e in ex.trace.of_kind("send") if e.node == 1]
        # The time-0 crash is still fully accounted for.
        assert ex.fault_stats["crashes"] == 1
        assert [(e.node, e.real_time) for e in ex.trace.of_kind("crash")] == [
            (1, 0.0)
        ]

    def test_crash_at_zero_with_recovery_balances_stats(self):
        topo = line(3)
        plan = FaultPlan().with_crash(1, at=0.0, recover_at=3.0)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=10.0)
        assert ex.fault_stats["crashes"] == ex.fault_stats["recoveries"] == 1
        assert len(ex.trace.of_kind("crash")) == len(ex.trace.of_kind("recover"))
        # The node joins the network for the first time at recovery.
        assert [e for e in ex.trace.of_kind("send") if e.node == 1]

    def test_survivors_keep_syncing(self):
        topo = line(4)
        plan = FaultPlan().with_crash(3, at=2.0)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=30.0)
        ex.check_validity()
        late_sends = [
            e
            for e in ex.trace.of_kind("send")
            if e.node in (0, 1, 2) and e.real_time > 10.0
        ]
        assert late_sends


class TestCrashRecovery:
    def test_recovery_restarts_gossip(self):
        topo = line(4)
        plan = FaultPlan().with_crash(1, at=5.0, recover_at=12.0)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=30.0)
        assert ex.fault_stats["crashes"] == 1
        assert ex.fault_stats["recoveries"] == 1
        recover_events = ex.trace.of_kind("recover")
        assert [(e.node, e.real_time) for e in recover_events] == [(1, 12.0)]
        # Silent while down, gossiping again after recovery.
        sends = [e for e in ex.trace.of_kind("send") if e.node == 1]
        assert not [e for e in sends if 5.0 < e.real_time < 12.0]
        assert [e for e in sends if e.real_time >= 12.0]

    def test_pre_crash_timers_never_fire_after_recovery(self):
        # Period 10 > outage [2, 4]: the pre-crash timer would come due
        # at ~10, after recovery — it must stay cancelled, replaced by
        # the timer on_recover re-arms at ~14.
        topo = line(2)
        plan = FaultPlan().with_crash(0, at=2.0, recover_at=4.0)
        ex = run(topo, MaxBasedAlgorithm(period=10.0), plan=plan, duration=30.0)
        assert ex.fault_stats["timers_cancelled"] == 1
        timers = [
            e.real_time for e in ex.trace.of_kind("timer") if e.node == 0
        ]
        assert timers and min(timers) == pytest.approx(14.0)

    def test_logical_clock_never_goes_backward_through_outage(self):
        topo = line(5)
        plan = FaultPlan().with_crash(2, at=4.0, recover_at=9.0)
        ex = run(topo, AveragingAlgorithm(), plan=plan, duration=25.0)
        times = [t / 4 for t in range(100)]
        values = [ex.logical_value(2, t) for t in times]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        ex.check_validity()


class TestLinkFaults:
    def test_loss_reduces_deliveries(self):
        topo = line(4)
        plan = FaultPlan().with_link(loss=0.5)
        ex = run(topo, MaxBasedAlgorithm(period=0.5), plan=plan, duration=40.0)
        sent = len(ex.trace.of_kind("send"))
        received = len(ex.trace.of_kind("receive"))
        assert ex.fault_stats["lost_random"] > 0
        assert received < sent
        assert 0.3 < ex.fault_stats["lost_random"] / sent < 0.7

    def test_duplication_adds_deliveries(self):
        topo = line(3)
        plan = FaultPlan().with_link(duplicate=0.5)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=20.0)
        sent = len(ex.trace.of_kind("send"))
        received = len(ex.trace.of_kind("receive"))
        assert ex.fault_stats["duplicated"] > 0
        # Every extra delivery is a duplicate (some copies may still be
        # in flight when the run ends).
        assert sent < received <= sent + ex.fault_stats["duplicated"]
        ex.check_delay_bounds()

    def test_reordering_stays_in_band(self):
        topo = line(3)
        plan = FaultPlan().with_link(reorder=0.8)
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=20.0)
        assert ex.fault_stats["reordered"] > 0
        ex.check_delay_bounds()

    def test_down_window_silences_the_link(self):
        topo = line(3)
        plan = FaultPlan().with_link_down(0, 1, (5.0, 15.0))
        ex = run(topo, MaxBasedAlgorithm(), plan=plan, duration=20.0)
        assert ex.fault_stats["lost_link_down"] > 0
        in_window = [
            m for m in ex.messages
            if {m.sender, m.receiver} == {0, 1} and 5.0 <= m.send_time < 15.0
        ]
        assert in_window == []
        # The other link was untouched.
        assert [
            m for m in ex.messages
            if {m.sender, m.receiver} == {1, 2} and 5.0 <= m.send_time < 15.0
        ]

    def test_directed_fault_hits_one_direction_only(self):
        topo = line(2)
        plan = FaultPlan().with_link(0, 1, loss=0.9)
        ex = run(topo, MaxBasedAlgorithm(period=0.5), plan=plan, duration=40.0)
        forward = [e for e in ex.trace.of_kind("receive") if e.node == 1]
        backward = [e for e in ex.trace.of_kind("receive") if e.node == 0]
        assert len(forward) < len(backward)


class TestCrashingProcessWrapper:
    """Crash at a *hardware* reading, expressed on the plan.

    (The class keeps the name of the pre-``FaultPlan`` wrapper whose
    cases these are; the wrapper itself is gone.)  A node only knows its
    hardware clock, so "crash when H reads 5" is
    ``with_crash(node, hardware.time_at(5.0))`` — the rate schedule
    makes the conversion exact.
    """

    @staticmethod
    def _run(topo, node, reading, *, duration=20.0, rho=0.2, rates=None):
        from repro.sim.clock import HardwareClock
        from repro.sim.rates import PiecewiseConstantRate

        schedule = (rates or {}).get(node, PiecewiseConstantRate.constant(1.0))
        at = HardwareClock(schedule, rho).time_at(reading)
        return run_simulation(
            topo,
            MaxBasedAlgorithm().processes(topo),
            SimConfig(duration=duration, rho=rho, seed=0),
            rate_schedules=rates,
            fault_plan=FaultPlan().with_crash(node, at),
        )

    def test_crashed_node_stops_sending(self):
        ex = self._run(line(3), 0, 5.0)
        sends_from_0 = [e for e in ex.trace.of_kind("send") if e.node == 0]
        assert sends_from_0, "node 0 should send before crashing"
        assert all(e.hardware < 5.0 + 1e-9 for e in sends_from_0)

    def test_crashed_node_stops_emitting_entirely(self):
        """No timer firings, receives or in-flight deliveries from the
        crashed node after the crash."""
        ex = self._run(line(3), 0, 5.0)
        post = [e for e in ex.trace.events if e.node == 0 and e.real_time > 5.0]
        assert post == []
        assert ex.trace.of_kind("crash")

    def test_promotion_respects_rate_schedules(self):
        """The crash reading converts through the node's own rate."""
        from repro.sim.rates import PiecewiseConstantRate

        rates = {0: PiecewiseConstantRate.constant(0.5),
                 1: PiecewiseConstantRate.constant(1.0)}
        ex = self._run(line(2), 0, 5.0, rho=0.5, rates=rates)
        [crash] = ex.trace.of_kind("crash")
        assert crash.real_time == pytest.approx(10.0)  # H(10) = 5 at rate 0.5

    def test_crash_at_zero_never_starts(self):
        ex = self._run(line(3), 1, 0.0, duration=10.0)
        assert not [e for e in ex.trace.of_kind("send") if e.node == 1]

    def test_survivors_keep_syncing(self):
        ex = self._run(line(4), 3, 2.0, duration=30.0)
        ex.check_validity()
        late_sends = [
            e
            for e in ex.trace.of_kind("send")
            if e.node in (0, 1, 2) and e.real_time > 10.0
        ]
        assert late_sends

    def test_rejects_negative_reading(self):
        from repro.errors import ScheduleError

        with pytest.raises(ScheduleError):  # no clock ever reads -1
            self._run(line(2), 0, -1.0)


class TestDropping:
    """Random message loss, expressed on the plan (``with_link(loss=p)``)."""

    @staticmethod
    def _run(topo, loss, *, duration=40.0, seed=0, plan_seed_salt=0):
        plan = FaultPlan(seed_salt=plan_seed_salt).with_link(loss=loss)
        return run_simulation(
            topo,
            MaxBasedAlgorithm(period=0.5).processes(topo),
            SimConfig(duration=duration, seed=seed),
            fault_plan=plan,
        )

    def test_rejects_bad_probability(self):
        with pytest.raises(FaultError):  # refused when the run is built
            self._run(line(2), 1.0)

    def test_drops_expected_fraction(self):
        ex = self._run(line(4), 0.5, plan_seed_salt=3)
        sent = len(ex.trace.of_kind("send"))
        received = len(ex.trace.of_kind("receive"))
        dropped = ex.fault_stats["lost_random"]
        assert dropped > 0
        assert received < sent
        # Roughly half dropped (binomial; wide tolerance).
        assert 0.3 < dropped / sent < 0.7

    def test_zero_probability_drops_nothing(self):
        ex = self._run(line(3), 0.0, duration=10.0)
        assert ex.fault_stats["lost_random"] == 0
        assert len(ex.messages) == len(ex.trace.of_kind("send"))

    def test_shared_instance_leaks_nothing_between_runs(self):
        """One plan value reused across a grid: every run derives its
        drop stream from (run seed, plan salt) alone, so rerunning a
        cell never sees the runs in between."""
        topo = line(4)
        alg = MaxBasedAlgorithm(period=0.5)
        plan = FaultPlan(seed_salt=7).with_link(loss=0.4)

        def one_run(seed):
            ex = run_simulation(
                topo,
                alg.processes(topo),
                SimConfig(duration=30.0, seed=seed),
                fault_plan=plan,
            )
            return ex.fault_stats["lost_random"], [e for e in ex.trace.events]

        first = one_run(0)
        second = one_run(1)
        again = one_run(0)
        assert first == again, "rerunning a cell must not see earlier runs"
        assert first != second

    def test_sync_survives_light_loss(self):
        self._run(line(4), 0.2, plan_seed_salt=1).check_validity()


@pytest.mark.engine
class TestBatchedEngineParity:
    """Fault paths, production simulator vs. reference loop: regression guards.

    Crash-epoch timer cancellation is the subtlest interaction between
    faults and batch-scheduled timers — a timer set before a crash must
    never fire after the node's epoch advanced, and the simulator must
    cancel *exactly* the firings the reference loop cancels (counted by
    ``timers_cancelled``).
    """

    def _run_both(self, topo, plan, *, duration=16.0, seed=4):
        from _engine_helpers import assert_equivalent, run_both

        scalar, batched = run_both(
            topo,
            MaxBasedAlgorithm,
            duration=duration,
            seed=seed,
            fault_plan=plan,
        )
        assert_equivalent(scalar, batched)
        return scalar, batched

    def test_mid_epoch_crash_cancels_identical_timers(self):
        # Crash mid-tick (period 1.0, crash at 4.3) with recovery: the
        # pending firing set in epoch 0 comes due inside the outage and
        # must be cancelled under both loops.
        topo = line(5)
        plan = FaultPlan().with_crash(2, at=4.3, recover_at=9.7)
        scalar, batched = self._run_both(topo, plan)
        assert scalar.fault_stats["timers_cancelled"] > 0
        assert (
            scalar.fault_stats["timers_cancelled"]
            == batched.fault_stats["timers_cancelled"]
        )

    def test_repeated_crash_windows_cancel_identically(self):
        topo = ring(6)
        plan = (
            FaultPlan()
            .with_crash(1, at=3.4, recover_at=6.6)
            .with_crash(4, at=8.2, recover_at=12.1)
        )
        scalar, batched = self._run_both(topo, plan)
        assert scalar.fault_stats == batched.fault_stats

    def test_crash_without_recovery_equivalent(self):
        topo = line(6)
        plan = FaultPlan().with_crash(0, at=5.5)
        self._run_both(topo, plan)

    def test_empty_plan_byte_identical_under_batched(self):
        # An empty plan must be a no-op for the production simulator:
        # same digest as its fault-free run *and* as the reference loop.
        from _engine_helpers import run_engine

        topo = line(5)
        kwargs = dict(duration=16.0, seed=4)
        batched_bare = run_engine("batched", topo, MaxBasedAlgorithm(), **kwargs)
        batched_empty = run_engine(
            "batched", topo, MaxBasedAlgorithm(), fault_plan=FaultPlan(), **kwargs
        )
        scalar_empty = run_engine(
            "scalar", topo, MaxBasedAlgorithm(), fault_plan=FaultPlan(), **kwargs
        )
        assert batched_bare.trace.digest() == batched_empty.trace.digest()
        assert batched_empty.trace.digest() == scalar_empty.trace.digest()
        assert batched_bare.messages == batched_empty.messages == scalar_empty.messages
        assert batched_bare.fault_stats is None
        assert batched_empty.fault_stats is None
