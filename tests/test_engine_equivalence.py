"""Differential trace-equivalence harness: production loop vs. reference.

The production simulator (``repro.sim.simulator``) is allowed to
reorganize *how* work is done — array-backed event queue,
batch-scheduled broadcast deliveries, memoized schedule cursors — but
never *what* happens: every scenario must produce a byte-identical trace
digest, identical message list, identical fault counters and
bitwise-equal clock values to the naive reference loop
(``repro.sim.reference``; see ``tests/_engine_helpers.py`` for the exact
contract, where ``scalar`` is the reference and ``batched`` production).

The suite crosses every algorithm with every topology family, layers
fault plans, random-delay policies, mobility (dynamic topology) and
untraced runs on top, and finishes with a hypothesis property test that
draws whole random scenarios.  Select with ``-m engine``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from _engine_helpers import (
    assert_equivalent,
    example_budget,
    first_divergence,
    run_both,
    run_engine,
)
from repro.algorithms import (
    AveragingAlgorithm,
    BoundedCatchUpAlgorithm,
    MaxBasedAlgorithm,
    SlewingMaxAlgorithm,
)
from repro.errors import DelayBoundError, SimulationError
from repro.sim.faults import FaultPlan
from repro.sim.messages import (
    FixedFractionDelay,
    HalfDistanceDelay,
    PerPairDelay,
    SequenceDelay,
    UniformRandomDelay,
)
from repro.sim.node import Process
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.reference import ReferenceSimulator
from repro.sim.simulator import SimConfig, Simulator
from repro.sweep.families import (
    drifted_rates,
    fault_plan_from_spec,
    mobility_from_spec,
    wandering_rates,
)
from repro.topology.dynamic import snapshot_sequence
from repro.topology.generators import complete, grid, line, random_geometric, ring

pytestmark = pytest.mark.engine

ALGORITHMS = {
    "max": MaxBasedAlgorithm,
    "avg": AveragingAlgorithm,
    "bcu": BoundedCatchUpAlgorithm,
    "slew": SlewingMaxAlgorithm,
}

TOPOLOGIES = {
    "line": lambda: line(7),
    "ring": lambda: ring(8),
    "grid": lambda: grid(3, 3),
    "geometric": lambda: random_geometric(12, seed=4),
}


class TestAlgorithmTopologyGrid:
    """Every algorithm x every topology family, benign half-distance runs."""

    @pytest.mark.parametrize("alg_name", sorted(ALGORITHMS))
    @pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
    def test_equivalent(self, alg_name, topo_name):
        topo = TOPOLOGIES[topo_name]()
        rates = drifted_rates(topo, rho=0.3, seed=7)
        scalar, batched = run_both(
            topo, ALGORITHMS[alg_name], duration=12.0, seed=7, rate_schedules=rates
        )
        assert_equivalent(scalar, batched)


class TestHighFanOut:
    """A broadcast reaching >= 32 neighbors in one batch-scheduled pass."""

    def test_complete_40_half_delays(self):
        topo = complete(40)
        assert len(topo.neighbors(0)) >= 32
        scalar, batched = run_both(
            topo,
            MaxBasedAlgorithm,
            duration=6.0,
            seed=5,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=5),
        )
        assert_equivalent(scalar, batched)


class TestSecondaryRun:
    """Runs whose small batches keep the queue's secondary run alive.

    A dense random field under delays drawn anywhere in ``[0, d]`` is
    the shape the ``scale_large`` ``geometric`` × ``uniform`` cell runs:
    almost every batch of pushes holds an entry due before the queue's
    heads, so the production loop merges often, keeps a secondary sorted
    run and folds it into the spine many times per run.
    """

    @pytest.mark.parametrize("alg_name", ["bcu", "max"])
    def test_geometric_64(self, alg_name):
        topo = random_geometric(64, comm_radius_factor=20.0, seed=2)
        assert sum(map(len, map(topo.neighbors, topo.nodes))) / topo.n >= 10
        scalar, batched = run_both(
            topo,
            ALGORITHMS[alg_name],
            duration=8.0,
            seed=3,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=3),
            delay_policy=UniformRandomDelay(),
        )
        assert_equivalent(scalar, batched)

    def test_sixteenth_grid_ties_across_spine_and_run(self):
        # Unit rates, timers and delays on a 1/16 grid: many deliveries
        # and timers share an instant, and each instant's batch is small
        # next to the spine, so the secondary run persists across
        # merges and its entries tie with spine entries.  The drain's
        # tie rule (spine first) must order them as the reference
        # heap's seqs do.
        class SixteenthDelay:
            def delay(self, sender, receiver, send_time, distance, seq, rng):
                return distance * rng.randrange(17) / 16

        class JitterTick(Process):
            def on_start(self, api):
                api.set_timer(api.rng.randrange(1, 17) / 16)

            def on_timer(self, api, name):
                api.broadcast(name)
                api.set_timer(api.rng.randrange(1, 17) / 16)

        class JitterGossip:
            def processes(self, topology):
                return {node: JitterTick() for node in topology.nodes}

        scalar, batched = run_both(
            grid(8, 8), JitterGossip, duration=8.0, seed=3, delay_policy=SixteenthDelay()
        )
        assert_equivalent(scalar, batched)


class TestPastTheHorizon:
    """Runs where most deliveries are due after the execution ends.

    The production loop never queues a delivery, timer or fault instant
    due after ``duration + TIME_EPS``, while the reference heap holds all
    of them and just never pops them.  On a field whose neighbor
    distances dwarf the duration (the ``scale_large`` geometric cell's
    average is 33.8) most copies are recorded but never queued, so the
    two loops' queues differ most here — the executions must not.
    """

    DURATION = 6.0

    @staticmethod
    def field():
        # Complete: every pair is within the radius; mean distance 24.6.
        topo = random_geometric(32, comm_radius_factor=80.0, seed=1)
        distances = [topo.distance(u, v) for u in topo.nodes for v in topo.neighbors(u)]
        assert sum(distances) / len(distances) > 3 * TestPastTheHorizon.DURATION
        return topo

    def run(self, delay_policy, **kwargs):
        topo = self.field()
        scalar, batched = run_both(
            topo,
            BoundedCatchUpAlgorithm,
            duration=self.DURATION,
            seed=3,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=3),
            delay_policy=delay_policy,
            **kwargs,
        )
        assert_equivalent(scalar, batched)
        late = sum(m.receive_time > self.DURATION for m in batched.messages)
        assert late > len(batched.messages) / 2
        return batched

    @pytest.mark.parametrize(
        "delay_policy", [HalfDistanceDelay(), UniformRandomDelay()], ids=["half", "uniform"]
    )
    def test_most_deliveries_past_the_horizon(self, delay_policy):
        self.run(delay_policy)

    def test_duplicated_and_reordered_copies(self):
        batched = self.run(
            UniformRandomDelay(),
            fault_plan=FaultPlan().with_link(duplicate=0.3, reorder=0.3),
        )
        assert batched.fault_stats["duplicated"] > 0
        assert batched.fault_stats["reordered"] > 0

    def test_crash_recover_with_recoveries_past_the_horizon(self):
        # A plan drawn for twice the run: crashes fall across the whole
        # run and past it, and recoveries of crashes inside the run fall
        # past the horizon, as do many timers those crashes cancel.
        plan = fault_plan_from_spec(
            "crash-recover:0.4,4", self.field(), seed=5, horizon=2 * self.DURATION
        )
        assert any(crash.at < self.DURATION < crash.recover_at for crash in plan.crashes)
        batched = self.run(UniformRandomDelay(), fault_plan=plan)
        assert batched.fault_stats["crashes"] > 0
        assert batched.fault_stats["timers_cancelled"] > 0


class _NaNDelay:
    def delay(self, sender, receiver, send_time, distance, seq, rng):
        return float("nan")


class _Once(Process):
    """Sends once, or sets a NaN timer, at start."""

    def __init__(self, action):
        self.action = action

    def on_start(self, api):
        if self.action == "send":
            api.send(api.neighbors()[0], "x")
        else:
            api.set_timer(float("nan"))


class TestNaNFailsByName:
    """A NaN delay or timer fails by name on both loops.

    NaN fails every comparison, so unchecked it would pass as "not due
    before the horizon" and the delivery or timer would vanish silently.
    """

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_nan_policy_on_broadcast(self, engine):
        with pytest.raises(DelayBoundError, match="nan"):
            run_engine(engine, line(4), MaxBasedAlgorithm(), duration=4.0,
                       delay_policy=_NaNDelay())

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_nan_policy_on_send(self, engine):
        class SendOnce:
            def processes(self, topology):
                return {node: _Once("send") for node in topology.nodes}

        with pytest.raises(DelayBoundError, match="nan"):
            run_engine(engine, line(4), SendOnce(), duration=4.0,
                       delay_policy=_NaNDelay())

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_nan_timer(self, engine):
        class NaNTimer:
            def processes(self, topology):
                return {node: _Once("timer") for node in topology.nodes}

        with pytest.raises(SimulationError, match="nan"):
            run_engine(engine, line(4), NaNTimer(), duration=4.0)


class TestDelayPolicies:
    """Policies with and without a ``broadcast_delays`` hook.

    Every broadcast is batch-scheduled.  ``FixedFractionDelay``
    has the hook, so its delays are fixed once per topology; the
    RNG-driven and stateful policies have none, so the batch draws each
    delay inside the pass — in exactly the reference loop's per-send RNG
    order, which the delay RNG's final state pins.
    """

    POLICIES = [
        lambda: FixedFractionDelay(0.75),
        lambda: UniformRandomDelay(),
        lambda: UniformRandomDelay(0.25, 0.75),
        lambda: UniformRandomDelay(),
        lambda: PerPairDelay().set(0, 1, 0.9).set_after(1, 0, 6.0, 0.1),
        # What ``sim/replay.py`` feeds: scripted seqs, random fallback.
        lambda: SequenceDelay({0: 0.5, 3: 0.0, 7: 1.0}, UniformRandomDelay()),
    ]

    @pytest.mark.parametrize("policy_factory", POLICIES)
    def test_equivalent(self, policy_factory):
        topo = line(6)
        scalar, batched = run_both(
            topo,
            MaxBasedAlgorithm,
            duration=15.0,
            seed=3,
            rate_schedules=drifted_rates(topo, rho=0.2, seed=3),
            delay_policy=policy_factory(),
        )
        assert_equivalent(scalar, batched)

    @pytest.mark.parametrize("faulted", [False, True])
    @pytest.mark.parametrize("policy_factory", POLICIES)
    def test_delay_rng_draw_order(self, policy_factory, faulted):
        # A batch that drew in another order could still land on equal
        # digests by luck; it cannot leave the RNG in the same state.
        # With link faults the pass draws from the fault RNG too.
        topo = line(6)
        rates = drifted_rates(topo, rho=0.2, seed=3)
        plan = FaultPlan().with_link(loss=0.1, duplicate=0.1, reorder=0.2)
        loops = []
        for loop in (ReferenceSimulator, Simulator):
            sim = loop(
                topo,
                MaxBasedAlgorithm().processes(topo),
                SimConfig(duration=15.0, rho=0.3, seed=3),
                rate_schedules=rates,
                delay_policy=policy_factory(),
                fault_plan=plan if faulted else None,
            )
            sim.run()
            loops.append(sim)
        reference, production = loops
        assert production._delay_rng.getstate() == reference._delay_rng.getstate()
        if faulted:
            assert (
                production._faults._rng.getstate()
                == reference._faults._rng.getstate()
            )


class TestFaultPlans:
    """Crash windows, link faults and down windows under both loops.

    A faulted broadcast is batch-scheduled like any other: per neighbor
    the pass draws the policy's delay (delay RNG), then asks the fault
    controller for the send's copies (fault RNG).  The uniform variant
    puts both RNG streams into that one pass.
    """

    PLANS = {
        "crash-recover": lambda: FaultPlan().with_crash(2, 4.0, recover_at=9.0),
        "crash-forever": lambda: FaultPlan().with_crash(1, 3.0),
        "link-noise": lambda: FaultPlan().with_link(
            loss=0.15, duplicate=0.1, reorder=0.1
        ),
        "link-down": lambda: FaultPlan().with_link_down(0, 1, (2.0, 8.0)),
        "everything": lambda: FaultPlan()
        .with_crash(3, 5.0, recover_at=10.0)
        .with_link(loss=0.1, duplicate=0.1, reorder=0.2)
        .with_link_down(1, 2, (3.0, 7.0)),
    }

    @pytest.mark.parametrize("delays", ["half", "uniform"])
    @pytest.mark.parametrize("plan_name", sorted(PLANS))
    @pytest.mark.parametrize("alg_name", ["max", "avg", "bcu"])
    def test_equivalent(self, plan_name, alg_name, delays):
        topo = grid(3, 3)
        scalar, batched = run_both(
            topo,
            ALGORITHMS[alg_name],
            duration=14.0,
            seed=11,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=11),
            delay_policy=UniformRandomDelay() if delays == "uniform" else None,
            fault_plan=self.PLANS[plan_name](),
        )
        assert scalar.fault_stats is not None
        assert_equivalent(scalar, batched)

    def test_faulted_mobile_random_delays(self):
        # Crashes, a rewiring with messages in flight, and random delays:
        # every ingredient of the batched faulted pass at once.
        base = line(9)
        plan = fault_plan_from_spec("crash-recover:0.3,4", base, seed=5, horizon=20.0)
        dyn = mobility_from_spec("interleave:0.5", base, seed=5, horizon=20.0)
        for alg_name in sorted(ALGORITHMS):
            scalar, batched = run_both(
                dyn, ALGORITHMS[alg_name], duration=20.0, seed=5,
                rate_schedules=drifted_rates(base, rho=0.3, seed=5),
                delay_policy=UniformRandomDelay(),
                fault_plan=plan,
            )
            assert scalar.fault_stats["crashes"] > 0 and scalar.is_dynamic
            assert_equivalent(scalar, batched)


class TestMobility:
    """Dynamic-topology runs: rewires interleave with deliveries and timers."""

    @pytest.mark.parametrize("alg_name", sorted(ALGORITHMS))
    def test_snapshot_sequence_equivalent(self, alg_name):
        dyn = snapshot_sequence((0.0, line(6)), (8.0, ring(6)), (16.0, line(6)))
        scalar, batched = run_both(
            dyn, ALGORITHMS[alg_name], duration=20.0, seed=5
        )
        assert scalar.is_dynamic and batched.is_dynamic
        assert_equivalent(scalar, batched)

    @pytest.mark.parametrize("alg_name", sorted(ALGORITHMS))
    def test_interleave_family_equivalent(self, alg_name):
        # Every neighborhood re-forms at one instant, with messages to
        # the old neighbors still in flight.
        dyn = mobility_from_spec("interleave:0.5", line(9), seed=0, horizon=20.0)
        scalar, batched = run_both(
            dyn, ALGORITHMS[alg_name], duration=20.0, seed=5,
            rate_schedules=drifted_rates(line(9), rho=0.3, seed=5),
            delay_policy=UniformRandomDelay(),
        )
        assert scalar.is_dynamic and batched.is_dynamic
        assert_equivalent(scalar, batched)

    def test_swap_coinciding_with_timers(self):
        # Change-points landing exactly on whole-period timer instants:
        # the swap must pop before every same-instant delivery or firing
        # under both loops (lowest seq at the instant).
        dyn = snapshot_sequence((0.0, line(5)), (4.0, ring(5)), (8.0, line(5)))
        scalar, batched = run_both(dyn, MaxBasedAlgorithm, duration=12.0, seed=2)
        assert_equivalent(scalar, batched)

    def test_wandering_rates_equivalent(self):
        topo = line(6)
        rates = wandering_rates(topo, rho=0.4, horizon=15.0, seed=9)
        scalar, batched = run_both(
            topo, MaxBasedAlgorithm, duration=15.0, rho=0.4, seed=9,
            rate_schedules=rates,
        )
        assert_equivalent(scalar, batched)


class TestUntraced:
    """``record_trace=False`` must not change what the run computes."""

    def test_untraced_matches_scalar_untraced(self):
        topo = line(8)
        scalar, batched = run_both(
            topo,
            MaxBasedAlgorithm,
            duration=15.0,
            seed=1,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=1),
            record_trace=False,
        )
        assert len(scalar.trace) == len(batched.trace) == 0
        assert_equivalent(scalar, batched)

    def test_untraced_clocks_match_traced_run(self):
        # Tracing is pure observation: turning it off must leave
        # messages and clocks bitwise identical to the traced run.
        topo = ring(7)
        traced = run_engine("batched", topo, MaxBasedAlgorithm(), duration=12.0, seed=6)
        untraced = run_engine(
            "batched", topo, MaxBasedAlgorithm(), duration=12.0, seed=6,
            record_trace=False,
        )
        assert traced.messages == untraced.messages
        import numpy as np

        probe = np.linspace(0.0, 12.0, 61)
        assert np.array_equal(
            traced.logical_matrix(probe), untraced.logical_matrix(probe)
        )


class TestFirstDivergenceReport:
    """A failing comparison must say *where* the traces part ways."""

    def test_names_index_both_events_and_last_common(self):
        short = run_engine("scalar", line(4), MaxBasedAlgorithm(), duration=3.0)
        long = run_engine("batched", line(4), MaxBasedAlgorithm(), duration=5.0)
        assert first_divergence(short.trace, short.trace) is None
        report = first_divergence(short.trace, long.trace)
        index = len(short.trace)
        assert f"event {index}" in report
        assert "<end of trace>" in report
        assert repr(long.trace.events[index]) in report
        assert f"last common event: {short.trace.events[-1]!r}" in report

    def test_assert_equivalent_raises_the_report(self):
        topo = line(4)
        plain = run_engine("scalar", topo, MaxBasedAlgorithm(), duration=3.0)
        drifted = run_engine(
            "batched", topo, MaxBasedAlgorithm(), duration=3.0,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=1),
        )
        with pytest.raises(AssertionError, match=r"first diverge at event \d+\n"):
            assert_equivalent(plain, drifted)


@st.composite
def scenarios(draw):
    """A whole random scenario: network, mobility, rates, algorithm,
    delays, faults."""
    n = draw(st.integers(min_value=3, max_value=8))
    shape = draw(st.sampled_from(["line", "ring", "grid"]))
    if shape == "line":
        topo = line(n)
    elif shape == "ring":
        topo = ring(max(n, 3))
    else:
        topo = grid(2, max(n // 2, 2))
    rho = draw(st.sampled_from([0.1, 0.3, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = random.Random(seed)
    rates = {
        node: PiecewiseConstantRate.constant(rng.uniform(1 - rho, 1 + rho))
        for node in topo.nodes
    }
    alg_name = draw(st.sampled_from(sorted(ALGORITHMS)))
    policy = draw(
        st.sampled_from(["half", "fraction", "uniform", "jitter"])
    )
    delay_policy = {
        "half": None,
        "fraction": FixedFractionDelay(0.5),
        "uniform": UniformRandomDelay(),
        "jitter": UniformRandomDelay(),
    }[policy]
    plan = None
    if draw(st.booleans()):
        plan = FaultPlan(seed_salt=draw(st.integers(min_value=0, max_value=2**16)))
        if draw(st.booleans()):
            node = draw(st.integers(min_value=0, max_value=len(topo.nodes) - 1))
            at = draw(st.floats(min_value=0.5, max_value=6.0))
            recover = (
                at + draw(st.floats(min_value=0.5, max_value=4.0))
                if draw(st.booleans())
                else None
            )
            plan = plan.with_crash(node, at, recover_at=recover)
        if draw(st.booleans()):
            plan = plan.with_link(
                loss=draw(st.sampled_from([0.0, 0.1, 0.4])),
                duplicate=draw(st.sampled_from([0.0, 0.2])),
                reorder=draw(st.sampled_from([0.0, 0.3])),
            )
    mobility = draw(st.sampled_from(["static", "interleave", "blink"]))
    dynamic = mobility_from_spec(mobility, topo, seed=seed, horizon=10.0)
    if dynamic is not None:
        topo = dynamic
    return topo, rho, seed, rates, alg_name, delay_policy, plan


class TestRandomScenarios:
    @given(scenarios())
    @settings(max_examples=example_budget(25), deadline=None)
    def test_random_scenario_equivalent(self, scenario):
        topo, rho, seed, rates, alg_name, delay_policy, plan = scenario
        scalar, batched = run_both(
            topo,
            ALGORITHMS[alg_name],
            duration=10.0,
            rho=rho,
            seed=seed,
            rate_schedules=rates,
            delay_policy=delay_policy,
            fault_plan=plan,
        )
        assert_equivalent(scalar, batched)
