"""Tests for execution replay (sim.replay)."""

import pytest

from repro.algorithms import AveragingAlgorithm, MaxBasedAlgorithm
from repro.sweep import drifted_rates
from repro.sim.messages import UniformRandomDelay
from repro.sim.replay import delay_script, replay, verify_replay
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.generators import line


def random_run(alg, seed=3, duration=25.0):
    topo = line(6)
    return run_simulation(
        topo,
        alg.processes(topo),
        SimConfig(duration=duration, rho=0.3, seed=seed),
        rate_schedules=drifted_rates(topo, rho=0.3, seed=seed),
        delay_policy=UniformRandomDelay(),
    )


class TestDelayScript:
    def test_covers_all_messages(self):
        ex = random_run(MaxBasedAlgorithm())
        script = delay_script(ex)
        assert len(script) == len(ex.messages)
        for m in ex.messages:
            assert script[m.seq] == m.delay


class TestReplay:
    def test_replay_of_random_run_is_identical(self):
        alg = MaxBasedAlgorithm()
        ex = random_run(alg)
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        # Logical trajectories match at sampled times.
        for node in ex.topology.nodes:
            for t in (5.0, 15.0, 25.0):
                assert replayed.logical_value(node, t) == pytest.approx(
                    ex.logical_value(node, t), abs=1e-6
                )

    def test_replay_keeps_delays_frozen(self):
        alg = MaxBasedAlgorithm()
        ex = random_run(alg)
        replayed = replay(ex, MaxBasedAlgorithm())
        assert [m.delay for m in replayed.messages] == pytest.approx(
            [m.delay for m in ex.messages]
        )

    def test_replay_with_different_seed_is_still_identical(self):
        # Seeds only feed random delay policies and node RNGs; a scripted
        # replay of a deterministic algorithm ignores both.
        alg = MaxBasedAlgorithm()
        ex = random_run(alg, seed=3)
        replayed = verify_replay(ex, MaxBasedAlgorithm(), seed=99)
        assert len(replayed.trace) == len(ex.trace)

    def test_different_algorithm_detected(self):
        from repro.errors import IndistinguishabilityError, SimulationError

        ex = random_run(MaxBasedAlgorithm())
        with pytest.raises((IndistinguishabilityError, SimulationError)):
            verify_replay(ex, AveragingAlgorithm())


@pytest.mark.engine
class TestEngineRoundTrip:
    """Replay across the two loops, in both directions.

    An execution recorded on the reference loop must replay — and verify
    — on the production simulator, and the other way round.  The
    byte-identity contract between the loops makes the replayed runs
    comparable down to the trace digest.  (``scalar`` is the reference
    loop, ``batched`` the production one.)
    """

    def scalar_run(self, alg, seed=3, duration=25.0):
        from _engine_helpers import run_engine

        topo = line(6)
        return run_engine(
            "scalar",
            topo,
            alg,
            duration=duration,
            seed=seed,
            rate_schedules=drifted_rates(topo, rho=0.3, seed=seed),
            delay_policy=UniformRandomDelay(),
        )

    def test_scalar_run_replays_under_batched(self):
        ex = self.scalar_run(MaxBasedAlgorithm())
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        assert replayed.trace.digest() == ex.trace.digest()
        assert replayed.messages == ex.messages

    def test_batched_run_replays_under_scalar(self):
        from _engine_helpers import replay_on_reference
        from repro.gcs.indistinguishability import assert_indistinguishable_prefix

        ex = random_run(MaxBasedAlgorithm())
        replayed = replay_on_reference(ex, MaxBasedAlgorithm())
        assert_indistinguishable_prefix(ex, replayed)
        assert replayed.trace.digest() == ex.trace.digest()
        assert replayed.messages == ex.messages

    def test_batched_run_replays_under_batched(self):
        ex = random_run(MaxBasedAlgorithm())
        replayed = verify_replay(ex, MaxBasedAlgorithm())
        assert replayed.trace.digest() == ex.trace.digest()

    def test_scalar_and_batched_replays_agree(self):
        from _engine_helpers import replay_on_reference

        ex = random_run(MaxBasedAlgorithm())
        via_scalar = replay_on_reference(ex, MaxBasedAlgorithm())
        via_batched = replay(ex, MaxBasedAlgorithm())
        assert via_scalar.trace.digest() == via_batched.trace.digest()
        assert via_scalar.messages == via_batched.messages
