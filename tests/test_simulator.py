"""Tests for the discrete-event simulator (sim.simulator)."""

import random

import numpy as np
import pytest

from repro.algorithms.base import PeriodicProcess, SyncAlgorithm
from repro.errors import SimulationError
from repro.sim import node as node_module
from repro.sim.messages import HalfDistanceDelay
from repro.sim.node import NodeAPI, Process
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.reference import run_reference
from repro.sim.simulator import SimConfig, Simulator, run_simulation
from repro.sim.trace import RECEIVE, SEND, TIMER
from repro.topology.base import Topology
from repro.topology.dynamic import snapshot_sequence
from repro.topology.generators import line, ring


def pair(distance):
    """Two nodes at ``distance``: the single pair communicates."""
    d = np.array([[0.0, distance], [distance, 0.0]])
    return Topology.fully_connected(d)


class Echo(Process):
    """Send one message at start; reply once to anything received."""

    def on_start(self, api: NodeAPI) -> None:
        if api.node == 0:
            api.send(1, ("ping", 0))

    def on_message(self, api: NodeAPI, sender: int, payload) -> None:
        kind, hops = payload
        if hops < 3:
            api.send(sender, (kind, hops + 1))


class TickCounter(Process):
    def __init__(self, period: float):
        self.period = period
        self.fired_at_hardware: list[float] = []

    def on_start(self, api: NodeAPI) -> None:
        api.set_timer(self.period, "tick")

    def on_timer(self, api: NodeAPI, name: str) -> None:
        self.fired_at_hardware.append(api.hardware_now())
        api.set_timer(self.period, "tick")


class TestBasics:
    def test_message_round_trip(self):
        topo = pair(2.0)
        ex = run_simulation(
            topo, {0: Echo(), 1: Echo()}, SimConfig(duration=10.0, seed=0)
        )
        receives = ex.trace.of_kind(RECEIVE)
        assert len(receives) == 4  # ping + 3 replies
        # delay is d/2 = 1 each hop
        assert receives[0].real_time == pytest.approx(1.0)
        assert receives[-1].real_time == pytest.approx(4.0)

    def test_self_send_rejected(self):
        class SelfSender(Process):
            def on_start(self, api):
                api.send(api.node, "oops")

        topo = pair(1.0)
        with pytest.raises(SimulationError):
            run_simulation(
                topo, {0: SelfSender(), 1: Process()}, SimConfig(duration=1.0)
            )

    def test_processes_must_cover_nodes(self):
        topo = line(3)
        with pytest.raises(SimulationError):
            Simulator(topo, {0: Process()}, SimConfig(duration=1.0))

    def test_duration_must_be_positive(self):
        topo = line(2)
        with pytest.raises(SimulationError):
            Simulator(topo, {0: Process(), 1: Process()}, SimConfig(duration=0.0))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_duration_must_be_finite(self, duration):
        # NaN passes ``<= 0`` and the loop's ``time > limit`` never ends it.
        topo = line(2)
        with pytest.raises(SimulationError, match="positive and finite"):
            Simulator(
                topo, {0: Process(), 1: Process()}, SimConfig(duration=duration)
            )

    def test_run_only_once(self):
        topo = line(2)
        sim = Simulator(topo, {0: Process(), 1: Process()}, SimConfig(duration=1.0))
        sim.run()
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_beyond_duration_not_processed(self):
        topo = pair(10.0)

        class LateSender(Process):
            def on_start(self, api):
                if api.node == 0:
                    api.send(1, "late")  # delay 5 > duration 3

        ex = run_simulation(
            topo, {0: LateSender(), 1: Process()}, SimConfig(duration=3.0)
        )
        assert ex.trace.of_kind(RECEIVE) == []
        assert len(ex.trace.of_kind(SEND)) == 1


class TestTimers:
    def test_timers_fire_in_hardware_time(self):
        topo = line(2)
        procs = {0: TickCounter(1.0), 1: Process()}
        # Node 0 runs at rate 2: hardware 1.0 every 0.5 real seconds.
        rates = {0: PiecewiseConstantRate.constant(1.4)}
        ex = run_simulation(
            topo,
            procs,
            SimConfig(duration=5.0, rho=0.5, seed=0),
            rate_schedules=rates,
        )
        fired = procs[0].fired_at_hardware
        assert fired == pytest.approx([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        timer_events = [e for e in ex.trace.of_kind(TIMER) if e.node == 0]
        # real times are hardware / 1.4
        assert timer_events[0].real_time == pytest.approx(1.0 / 1.4)

    def test_timer_rejects_nonpositive_delta(self):
        class BadTimer(Process):
            def on_start(self, api):
                api.set_timer(0.0, "bad")

        topo = line(2)
        with pytest.raises(SimulationError):
            run_simulation(
                topo, {0: BadTimer(), 1: Process()}, SimConfig(duration=1.0)
            )


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        from repro.algorithms import MaxBasedAlgorithm

        topo = line(6)
        alg = MaxBasedAlgorithm()
        config = SimConfig(duration=15.0, rho=0.5, seed=7)
        ex1 = run_simulation(topo, alg.processes(topo), config)
        ex2 = run_simulation(topo, alg.processes(topo), config)
        assert len(ex1.trace) == len(ex2.trace)
        for a, b in zip(ex1.trace, ex2.trace):
            assert a.real_time == b.real_time
            assert a.node == b.node
            assert a.kind == b.kind
            assert a.hardware == b.hardware

    def test_seed_changes_random_delays(self):
        from repro.algorithms import MaxBasedAlgorithm
        from repro.sim.messages import UniformRandomDelay

        topo = line(4)
        alg = MaxBasedAlgorithm()
        ex1 = run_simulation(
            topo,
            alg.processes(topo),
            SimConfig(duration=10.0, seed=1),
            delay_policy=UniformRandomDelay(),
        )
        ex2 = run_simulation(
            topo,
            alg.processes(topo),
            SimConfig(duration=10.0, seed=2),
            delay_policy=UniformRandomDelay(),
        )
        d1 = [m.delay for m in ex1.messages[:20]]
        d2 = [m.delay for m in ex2.messages[:20]]
        assert d1 != d2


class TestTraceToggle:
    def test_record_trace_false_still_measures_clocks(self):
        from repro.algorithms import MaxBasedAlgorithm

        topo = line(4)
        alg = MaxBasedAlgorithm()
        ex = run_simulation(
            topo,
            alg.processes(topo),
            SimConfig(duration=10.0, seed=0, record_trace=False),
        )
        assert len(ex.trace) == 0
        # Clock histories and messages are independent of the trace.
        assert ex.messages
        assert ex.logical_value(0, 5.0) > 0
        ex.check_validity()
        ex.check_delay_bounds()


class TestNodeAPI:
    def test_api_exposes_no_real_time(self):
        # The model: nodes must not see real time.  Make sure the API
        # namespace doesn't leak it.
        api_attrs = {a for a in dir(NodeAPI) if not a.startswith("_")}
        assert "now" not in api_attrs
        assert "real_time" not in api_attrs

    def test_neighbors_and_distance(self):
        topo = line(4)
        seen = {}

        class Inspect(Process):
            def on_start(self, api):
                seen[api.node] = (api.neighbors(), api.distance((api.node + 1) % 4))

        run_simulation(
            topo, {n: Inspect() for n in topo.nodes}, SimConfig(duration=1.0)
        )
        assert seen[0][0] == [1]
        assert seen[1][0] == [0, 2]
        assert seen[0][1] == 1.0
        assert seen[3][1] == 3.0  # distance(3, 0)

    def test_distance_table_follows_a_rewiring(self):
        # ring(6) until 8.25, then line(6).  Node 5's broadcast at 8.0 is
        # in flight to node 0 across the swap and lands from a sender
        # that is no longer a neighbor: ring distance 1, line distance 5.
        new = line(6)
        dyn = snapshot_sequence((0.0, ring(6)), (8.25, new))
        seen = []

        class Probe(PeriodicProcess):
            def on_message(self, api, sender, payload):
                live = api._sim.topology
                asked = [sender, *api.neighbors()]
                seen.append((
                    live is new,
                    sender in api.neighbors(),
                    [api.distance(u) for u in asked],
                    [live.distance(api.node, u) for u in asked],
                ))

        run_simulation(
            dyn, {n: Probe(1.0) for n in new.nodes}, SimConfig(duration=12.0)
        )
        assert all(table == truth for _, _, table, truth in seen)
        after = [(neighbor, table) for rewired, neighbor, table, _ in seen if rewired]
        assert after
        assert (False, [5.0, 1.0]) in after  # node 0 hears node 5

    def test_jump_records_trace_event(self):
        class Jumper(Process):
            def on_start(self, api):
                api.jump_logical_by(2.0)

        topo = line(2)
        ex = run_simulation(
            topo, {0: Jumper(), 1: Process()}, SimConfig(duration=1.0)
        )
        jumps = ex.trace.of_kind("jump")
        assert len(jumps) == 1
        assert jumps[0].detail == pytest.approx(2.0)

    def test_multiplier_records_trace_event(self):
        class Speeder(Process):
            def on_start(self, api):
                api.set_logical_multiplier(1.5)

        topo = line(2)
        ex = run_simulation(
            topo, {0: Speeder(), 1: Process()}, SimConfig(duration=1.0)
        )
        rates = ex.trace.of_kind("rate")
        assert len(rates) == 1
        assert rates[0].detail == pytest.approx(1.5)


class RngDrawer(Process):
    """Draws from ``api.rng`` at start and on every tick, jumping by each
    draw, and records the draws in a shared ``{node: [draw, ...]}``."""

    def __init__(self, draws):
        self.draws = draws

    def on_start(self, api):
        self._draw(api)

    def on_timer(self, api, name):
        self._draw(api)

    def _draw(self, api):
        x = api.rng.random()
        self.draws.setdefault(api.node, []).append(x)
        api.jump_logical_by(x)
        api.set_timer(1.0, "tick")


class RngAlgorithm(SyncAlgorithm):
    name = "rng-drawer"

    def __init__(self):
        self.draws = {}

    def processes(self, topology):
        return {n: RngDrawer(self.draws) for n in topology.nodes}


class TestLazyNodeRng:
    """``api.rng`` is made on first access, from the eager formula."""

    SEED = 7

    def eager(self, node, count):
        rng = random.Random((self.SEED * 1_000_003) ^ node)
        return [rng.random() for _ in range(count)]

    def test_sim_reference_and_virtual_draw_the_eager_stream(self, monkeypatch):
        from repro.rt import LiveRunConfig, run_live
        from repro.sweep import scenario as scenario_module

        topo = line(4)
        config = SimConfig(duration=5.0, seed=self.SEED)
        runs = {}
        for name, loop in (("sim", run_simulation), ("reference", run_reference)):
            algorithm = RngAlgorithm()
            loop(topo, algorithm.processes(topo), config)
            runs[name] = algorithm.draws
        live = RngAlgorithm()
        monkeypatch.setattr(scenario_module, "algorithm_from_spec", lambda spec: live)
        run_live(LiveRunConfig(topology="line:4", algorithm="null", duration=5.0,
                               seed=self.SEED, transport="virtual"))
        runs["virtual"] = live.draws
        for name, draws in runs.items():
            assert sorted(draws) == list(topo.nodes), name
            for node, seq in draws.items():
                assert len(seq) >= 3, name
                assert seq == self.eager(node, len(seq)), (name, node)

    def test_each_node_makes_its_rng_once(self, monkeypatch):
        made = []
        real = node_module.node_rng
        monkeypatch.setattr(
            node_module, "node_rng", lambda seed, node: made.append(node) or real(seed, node)
        )
        topo = line(4)
        algorithm = RngAlgorithm()
        run_simulation(topo, algorithm.processes(topo), SimConfig(duration=5.0, seed=1))
        assert sorted(made) == list(topo.nodes)

    def test_a_fault_free_gossip_cell_makes_no_node_rng(self):
        from repro.sweep.scenario import Scenario

        for algorithm in ("max-based", "gradient", "averaging"):
            scenario = Scenario(topology="grid:3,3", algorithm=algorithm,
                                delays="uniform", duration=8.0, seed=2)
            cell = scenario.build()
            sim = Simulator(
                cell.topology, cell.processes,
                SimConfig(duration=scenario.duration, rho=scenario.rho,
                          seed=scenario.seed, record_trace=True),
                rate_schedules=cell.rates, delay_policy=cell.delay_policy,
            )
            sim.run()
            assert all(api._rng is None for api in sim._api.values()), algorithm
