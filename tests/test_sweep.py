"""Tests for the parallel scenario-sweep engine (repro.sweep).

The load-bearing guarantees: grids expand deterministically, metrics are
identical at any worker count, the cache returns exactly what the run
produced, and the family registries reject unknown names loudly.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import time

import pytest

from repro.algorithms import BoundedCatchUpAlgorithm, MaxBasedAlgorithm
from repro.errors import SweepError
from repro.sim.faults import FaultPlan
from repro.sim.messages import UniformRandomDelay
from repro.sweep import (
    Job,
    ResultCache,
    SweepSpec,
    algorithm_from_spec,
    delay_policy_from_spec,
    drifted_rates,
    execute_job,
    fault_plan_from_spec,
    job_hash,
    job_kind,
    mobility_from_spec,
    quick_spec,
    run_jobs,
    spread_rates,
    summary_table,
    sweep_result,
    to_json_payload,
    topology_from_spec,
    write_json,
)
from repro.topology.dynamic import DynamicTopology
from repro.topology.generators import line
from repro.sweep.aggregate import CELL_KEYS
from repro.sweep.spec import full_spec

TINY = SweepSpec(
    name="tiny",
    topologies=("line:5", "ring:6"),
    algorithms=("max-based", "bounded-catch-up"),
    rate_families=("drifted",),
    delay_policies=("uniform",),
    seeds=(0, 1),
    duration=8.0,
    rho=0.2,
)


def metrics_of(outcomes):
    return [o.metrics for o in outcomes]


@job_kind("test-hazard")
def _hazard(params):
    """A cell that can take its worker down, or raise, on request."""
    if params.get("hazard") == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
    if params.get("hazard") == "raise":
        raise ValueError(f"cell {params['n']} is poisoned")
    return {"n": params["n"]}


def hazard_jobs(hazard: str):
    """Six cells; the one at index 3 carries the hazard."""
    return [
        Job(kind="test-hazard",
            params={"n": n, **({"hazard": hazard} if n == 3 else {})})
        for n in range(6)
    ]


class TestRates:
    def test_drifted_rates_within_band(self):
        topo = line(10)
        rates = drifted_rates(topo, rho=0.3, seed=1)
        assert set(rates) == set(topo.nodes)
        for r in rates.values():
            assert 0.7 - 1e-9 <= r.rate_at(0.0) <= 1.3 + 1e-9

    def test_drifted_rates_seeded(self):
        topo = line(5)
        a = drifted_rates(topo, rho=0.3, seed=7)
        b = drifted_rates(topo, rho=0.3, seed=7)
        c = drifted_rates(topo, rho=0.3, seed=8)
        assert [a[n].rate_at(0.0) for n in topo.nodes] == [
            b[n].rate_at(0.0) for n in topo.nodes
        ]
        assert [a[n].rate_at(0.0) for n in topo.nodes] != [
            c[n].rate_at(0.0) for n in topo.nodes
        ]

    def test_spread_rates_linear(self):
        topo = line(5)
        rates = spread_rates(topo, rho=0.2)
        values = [rates[n].rate_at(0.0) for n in topo.nodes]
        assert values[0] == pytest.approx(0.8)
        assert values[-1] == pytest.approx(1.2)
        assert values == sorted(values)


class TestFamilies:
    def test_topology_specs(self):
        assert topology_from_spec("line:5").n == 5
        assert topology_from_spec("grid:3,4").n == 12
        assert topology_from_spec("tree:2,2").n == 7
        assert topology_from_spec("geometric:8,3").n == 8

    def test_algorithm_specs(self):
        algorithm = algorithm_from_spec("max-based:0.5")
        assert isinstance(algorithm, MaxBasedAlgorithm)
        assert algorithm.period == 0.5
        assert algorithm_from_spec("null").name == "null"

    @pytest.mark.parametrize("name", ["bounded-catch-up", "gradient"])
    def test_algorithm_specs_take_trailing_arguments(self, name):
        algorithm = algorithm_from_spec(f"{name}:0.5,0.5,0.5")
        assert isinstance(algorithm, BoundedCatchUpAlgorithm)
        assert (algorithm.period, algorithm.kappa, algorithm.mu) == (0.5, 0.5, 0.5)
        default = algorithm_from_spec(name)
        assert algorithm_from_spec(f"{name}:1") == default
        assert (default.kappa, default.mu) == (2.0, 1.0)
        assert algorithm_from_spec("slewing-max:0.5,2").sigma == 2.0

    def test_rbs_spec(self):
        algorithm = algorithm_from_spec("rbs:2")
        assert algorithm.name == "rbs"
        assert algorithm.period == 2.0 and algorithm.beacon == 0

    def test_delay_specs(self):
        assert delay_policy_from_spec("half").delay(0, 1, 0.0, 2.0, 0, None) == 1.0
        policy = delay_policy_from_spec("fraction:0.25")
        assert policy.delay(0, 1, 0.0, 4.0, 0, None) == 1.0

    def test_fault_specs(self):
        topo = topology_from_spec("line:6")
        assert fault_plan_from_spec("none", topo, seed=0, horizon=30.0).is_empty()
        lossy = fault_plan_from_spec("loss:0.2", topo, seed=0, horizon=30.0)
        assert lossy.links and lossy.links[0].loss == 0.2
        crash = fault_plan_from_spec("crash:0.3", topo, seed=0, horizon=30.0)
        assert crash.crashes and all(c.recover_at is None for c in crash.crashes)
        recover = fault_plan_from_spec(
            "crash-recover:0.3,5", topo, seed=0, horizon=30.0
        )
        assert all(c.recover_at is not None for c in recover.crashes)
        churn = fault_plan_from_spec("churn:0.25,4", topo, seed=0, horizon=30.0)
        assert churn.links and all(f.down for f in churn.links)

    def test_mobility_specs(self):
        topo = topology_from_spec("line:6")
        assert mobility_from_spec("static", topo, seed=0, horizon=20.0) is None
        moving = mobility_from_spec("waypoint:0.5", topo, seed=0, horizon=20.0)
        assert isinstance(moving, DynamicTopology)
        assert moving.n == topo.n and len(moving) == 4
        blink = mobility_from_spec("blink:0.3,8", topo, seed=0, horizon=20.0)
        assert isinstance(blink, DynamicTopology)
        assert blink.change_times  # edges actually blink
        # Blinking rewires the comm graph, never the distances.
        assert all(
            (t.distances == topo.distances).all() for _, t in blink.snapshots
        )

    def test_mobility_deterministic_per_seed(self):
        topo = topology_from_spec("line:6")
        build = lambda s: mobility_from_spec(
            "waypoint:0.5", topo, seed=s, horizon=20.0
        )
        assert build(3).at(10.0).comm_edges == build(3).at(10.0).comm_edges
        assert (build(3).at(10.0).distances != build(4).at(10.0).distances).any()

    @pytest.mark.parametrize(
        "spec",
        ["teleport", "waypoint:fast", "waypoint:-1", "waypoint:0.5,0",
         "blink:1.5", "blink:0.3,0", "blink:0.3,8,9,10",
         "interleave:0", "interleave:0.5,2"],
    )
    def test_bad_mobility_specs_raise(self, spec):
        topo = topology_from_spec("line:5")
        with pytest.raises(SweepError):
            mobility_from_spec(spec, topo, seed=0, horizon=20.0)

    @pytest.mark.parametrize("spec", ["null:3", "srikanth-toueg:0.25", "max-based:x"])
    def test_bad_algorithm_specs_fail_at_spec_validation(self, spec):
        # ... before any job is hashed.
        with pytest.raises(SweepError, match=spec):
            SweepSpec(algorithms=(spec,)).jobs()

    def test_interleave_is_one_even_nodes_first_rewiring(self):
        # The two-phase line E16 used to author by hand: at half time
        # node k moves to where [0, 2, 4, 6, 8, 1, 3, 5, 7][.] puts it.
        topo = topology_from_spec("line:9")
        dyn = mobility_from_spec("interleave:0.5", topo, seed=0, horizon=40.0)
        assert dyn.change_times == (20.0,)
        (_, before), (_, after) = dyn.snapshots
        assert before is topo
        place = {node: k for k, node in enumerate([0, 2, 4, 6, 8, 1, 3, 5, 7])}
        for i in range(9):
            for j in range(9):
                assert after.distance(i, j) == abs(place[i] - place[j])
        assert after.comm_pairs() == sorted(
            (i, j) for i in range(9) for j in range(i + 1, 9)
            if abs(place[i] - place[j]) == 1
        )
        default = mobility_from_spec("interleave", topo, seed=0, horizon=40.0)
        assert default.change_times == dyn.change_times

    @pytest.mark.parametrize(
        "spec", ["teleport", "waypoint:fast", "blink:1.5", "interleave:1"]
    )
    def test_bad_mobility_specs_fail_at_spec_validation(self, spec):
        with pytest.raises(SweepError):
            SweepSpec(mobilities=(spec,)).jobs()

    def test_live_transports_accept_mobility(self):
        jobs = SweepSpec(
            transports=("sim", "virtual"), mobilities=("static", "waypoint:0.5")
        ).jobs()
        assert [(j.kind, j.params["mobility"]) for j in jobs] == [
            ("benign-run", "static"), ("live-run", "static"),
            ("benign-run", "waypoint:0.5"), ("live-run", "waypoint:0.5"),
        ]

    def test_fault_plans_deterministic_per_seed(self):
        topo = topology_from_spec("ring:8")
        build = lambda s: fault_plan_from_spec(
            "crash-recover:0.25,5", topo, seed=s, horizon=40.0
        )
        assert build(3) == build(3)
        assert build(3) != build(4)

    def test_distinct_fault_specs_get_distinct_salts(self):
        topo = topology_from_spec("line:5")
        a = fault_plan_from_spec("loss:0.2", topo, seed=0, horizon=30.0)
        b = fault_plan_from_spec("loss:0.3", topo, seed=0, horizon=30.0)
        assert a.seed_salt != b.seed_salt

    @pytest.mark.parametrize(
        "builder, spec",
        [
            (topology_from_spec, "moebius:5"),
            (topology_from_spec, "line:x"),
            (topology_from_spec, "grid:3"),
            (algorithm_from_spec, "quantum"),
            (algorithm_from_spec, "max-based:1,2"),
            # Arguments the algorithm does not take used to be dropped:
            # one execution under two job hashes.
            (algorithm_from_spec, "null:3"),
            (algorithm_from_spec, "srikanth-toueg:0.25"),
            (algorithm_from_spec, "rbs:2,1"),
            (algorithm_from_spec, "bounded-catch-up:0.5,0.5,0.5,0.5"),
            (algorithm_from_spec, "bounded-catch-up:0.5,-1"),
            (algorithm_from_spec, "averaging:fast"),
            (delay_policy_from_spec, "telepathy"),
            (delay_policy_from_spec, "fraction:fast"),
        ],
    )
    def test_unknown_specs_raise(self, builder, spec):
        with pytest.raises(SweepError):
            builder(spec)

    @pytest.mark.parametrize(
        "spec", ["heisenbug", "loss:high", "loss", "loss:1.5", "crash:1.5",
                 "crash-recover:0.3", "churn:0.2,0"]
    )
    def test_bad_fault_specs_raise(self, spec):
        topo = topology_from_spec("line:5")
        with pytest.raises(SweepError):
            fault_plan_from_spec(spec, topo, seed=0, horizon=30.0)

    @pytest.mark.parametrize("spec", ["loss", "loss:1.5", "crash-recover:0.3"])
    def test_bad_fault_specs_fail_at_spec_validation(self, spec):
        # Fail-fast parity with the other axes: before any forking.
        with pytest.raises(SweepError):
            SweepSpec(fault_families=(spec,)).jobs()


class TestSpec:
    def test_grid_size_and_order(self):
        jobs = TINY.jobs()
        assert len(jobs) == TINY.size == 2 * 2 * 1 * 1 * 2
        # Deterministic expansion: same spec, same order, same hashes.
        assert [job_hash(j) for j in jobs] == [job_hash(j) for j in TINY.jobs()]
        # All cells distinct.
        assert len({job_hash(j) for j in jobs}) == len(jobs)

    def test_empty_axis_rejected(self):
        with pytest.raises(SweepError):
            SweepSpec(topologies=())

    def test_unknown_family_rejected_before_running(self):
        bad = SweepSpec(topologies=("klein-bottle:4",))
        with pytest.raises(SweepError):
            bad.jobs()

    def test_round_trips_through_json(self):
        spec = quick_spec()
        clone = SweepSpec.from_dict(json.loads(json.dumps(spec.payload())))
        assert clone == spec
        with pytest.raises(SweepError):
            SweepSpec.from_dict({"warp_factor": 9})

    @pytest.mark.parametrize(
        "payload, named",
        [
            ({"seeds": 3}, "'seeds'"),
            ({"rate_families": 5}, "'rate_families'"),
            ({"duration": "x"}, "'duration'"),
            ({"seeds": ["a"]}, "seed 'a'"),
            ({"transports": [["sim"]]}, "'transports'"),
            ({"topologies": ["line:1"]}, "'line:1'"),
            ({"topologies": ["grid:0,3"]}, "'grid:0,3'"),
            ({"delay_policies": ["uniform:0.5,0.2"]}, "'uniform:0.5,0.2'"),
            ({"delay_policies": ["fraction:2"]}, "'fraction:2'"),
            ({"delay_policies": ["jitter:2"]}, "'jitter:2'"),
            ({"duration": float("nan")}, "'duration'"),
            ({"duration": float("inf")}, "'duration'"),
            ({"rho": float("nan")}, "'rho'"),
            ({"step": float("-inf")}, "'step'"),
            ({"time_scale": float("nan")}, "'time_scale'"),
        ],
    )
    def test_a_mistyped_grid_is_a_sweep_error_naming_it(self, payload, named):
        # A JSON grid can carry any type in any field: each one must fail
        # as a SweepError naming the field or spec, never a bare
        # TypeError/ValueError/TopologyError/DelayBoundError.
        with pytest.raises(SweepError, match=re.escape(named)):
            SweepSpec.from_dict(payload).jobs()

    def test_jitter_is_the_uniform_draw_from_zero(self):
        # One delay class: ``jitter[:frac]`` is uniform on [0, frac * d].
        assert delay_policy_from_spec("jitter") == UniformRandomDelay(0.0, 1.0)
        assert delay_policy_from_spec("jitter:0.3") == UniformRandomDelay(0.0, 0.3)

    def test_retired_engine_field_is_accepted_and_discarded(self):
        # Manifests on disk and older clients still carry the field.
        payload = TINY.payload()
        for retired in ("scalar", "batched"):
            assert SweepSpec.from_dict({**payload, "engine": retired}) == TINY
        with pytest.raises(SweepError):
            SweepSpec.from_dict({**payload, "engine": "warp"})

    def test_default_cell_hashes_are_pinned(self):
        # Only a CACHE_VERSION bump re-keys a stored result (last: 7 -> 8,
        # live churn rows); nothing else in the hash recipe may move.
        from repro.sweep.jobs import CACHE_VERSION

        spec = SweepSpec(
            topologies=("line:5", "ring:6"), algorithms=("max-based",),
            seeds=(0,), duration=10.0,
        )
        assert CACHE_VERSION == 8
        assert [job_hash(j) for j in spec.jobs()] == [
            "dd93c362b21a660d2fb387395eb36cca92dda08d850b894571f3a4deac294d46",
            "d9c3403ac46e94becb4d37b6ea42d6695292e38e98c5e91d8eb9ca5a54c9ee26",
        ]

    def test_live_cell_hash_is_pinned(self):
        # A live cell's key is (the nine scenario fields, transport,
        # step, time_scale) whatever order they are assembled in;
        # re-captured at the CACHE_VERSION 7 -> 8 bump, recipe unchanged.
        (job,) = SweepSpec(
            topologies=("line:5",), algorithms=("max-based",),
            transports=("virtual",), seeds=(0,), duration=10.0,
        ).jobs()
        assert (job.kind, job.module) == ("live-run", "repro.rt.jobs")
        assert job_hash(job) == (
            "60603d77bcc23b07d9005c07341fcf610125998f9e1f44bbf6c6305d475e7b47"
        )

    def test_presets_expand(self):
        assert quick_spec().size >= 12
        assert full_spec().size >= 100


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_outcomes(self):
        return run_jobs(TINY.jobs(), workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_same_metrics_at_any_worker_count(self, serial_outcomes, workers):
        parallel = run_jobs(TINY.jobs(), workers=workers)
        assert metrics_of(parallel) == metrics_of(serial_outcomes)

    def test_outcomes_in_job_order(self, serial_outcomes):
        jobs = TINY.jobs()
        assert [job_hash(o.job) for o in serial_outcomes] == [
            job_hash(j) for j in jobs
        ]

    def test_workers_must_be_positive(self):
        with pytest.raises(SweepError):
            run_jobs(TINY.jobs(), workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_job_given_twice_runs_once(self, serial_outcomes, workers):
        jobs = TINY.jobs()[:2]
        ran = []
        twice = run_jobs(
            [jobs[0], jobs[1], jobs[0]], workers=workers,
            progress=lambda done, total, outcome: ran.append(outcome.elapsed),
        )
        assert metrics_of(twice) == metrics_of(
            [serial_outcomes[0], serial_outcomes[1], serial_outcomes[0]]
        )
        # One execution filled both slots: same stopwatch reading.
        assert twice[0].elapsed == twice[2].elapsed and len(ran) == 3


class TestPoolFailures:
    """The pool fails promptly and by name; it never hangs."""

    def test_sigkilled_worker_fails_its_cell_by_name(self, tmp_path):
        jobs = hazard_jobs("sigkill")
        poisoned = job_hash(jobs[3])
        store = ResultCache(tmp_path)
        begin = time.perf_counter()
        with pytest.raises(SweepError) as caught:
            run_jobs(jobs, workers=2, cache=store)
        assert time.perf_counter() - begin < 5.0
        message = str(caught.value)
        assert poisoned in message
        assert "exit code -9" in message and "2 attempts" in message
        # No pool worker outlives the call.
        assert multiprocessing.active_children() == []
        # The healthy cells finished and were stored ...
        assert all(store.has_hash(job_hash(j)) for j in jobs if j is not jobs[3])
        assert not store.has_hash(poisoned)
        # ... so a second run executes only the poisoned one.
        ran = []
        with pytest.raises(SweepError, match=poisoned):
            run_jobs(
                jobs, workers=2, cache=store,
                progress=lambda done, total, o: ran.append(o.cached),
            )
        assert ran == [True] * 5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_raising_job_raises_in_the_caller(self, tmp_path, workers):
        jobs = hazard_jobs("raise")
        store = ResultCache(tmp_path)
        # In-process the job's own exception propagates; from a pool
        # worker it arrives as a SweepError carrying the traceback.
        raised = SweepError if workers > 1 else ValueError
        with pytest.raises(raised, match="cell 3 is poisoned") as caught:
            run_jobs(jobs, workers=workers, cache=store)
        if workers > 1:
            assert job_hash(jobs[3]) in str(caught.value)
            assert "Traceback" in str(caught.value)
        # The cells that finished are already stored.
        finished = [j for j in jobs if store.has_hash(job_hash(j))]
        assert jobs[3] not in finished
        assert len(finished) == (5 if workers > 1 else 3)


@pytest.mark.faults
class TestFaultAxisDeterminism:
    """The robustness axis keeps the engine's determinism contract."""

    FAULTED = SweepSpec(
        name="faulted",
        topologies=("line:5",),
        algorithms=("max-based", "averaging"),
        rate_families=("drifted",),
        delay_policies=("uniform",),
        fault_families=("none", "loss:0.3", "crash-recover:0.3,4", "churn:0.3,3"),
        seeds=(0, 1),
        duration=12.0,
        rho=0.2,
    )

    @pytest.fixture(scope="class")
    def digest_jobs(self):
        # trace_digest folds the *entire* trace into the metrics, so
        # worker-count comparisons check trace identity, not just skew.
        return [
            Job(kind=j.kind, params={**j.params, "trace_digest": True})
            for j in self.FAULTED.jobs()
        ]

    @pytest.fixture(scope="class")
    def serial_outcomes(self, digest_jobs):
        return run_jobs(digest_jobs, workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_traces_at_any_worker_count(
        self, digest_jobs, serial_outcomes, workers
    ):
        parallel = run_jobs(digest_jobs, workers=workers)
        assert metrics_of(parallel) == metrics_of(serial_outcomes)
        assert all("trace_sha256" in o.metrics for o in parallel)

    def test_empty_fault_family_matches_plain_benign_run(self):
        faulted = execute_job(
            Job(
                kind="benign-run",
                params={
                    "topology": "line:5",
                    "algorithm": "max-based",
                    "rates": "drifted",
                    "delays": "uniform",
                    "faults": "none",
                    "seed": 0,
                    "duration": 10.0,
                    "rho": 0.2,
                    "trace_digest": True,
                },
            )
        )
        # The same cell without the fault key at all (pre-fault-axis shape).
        legacy = execute_job(
            Job(
                kind="benign-run",
                params={
                    "topology": "line:5",
                    "algorithm": "max-based",
                    "rates": "drifted",
                    "delays": "uniform",
                    "seed": 0,
                    "duration": 10.0,
                    "rho": 0.2,
                    "trace_digest": True,
                },
            )
        )
        assert faulted.metrics["trace_sha256"] == legacy.metrics["trace_sha256"]
        assert faulted.metrics["fault_events"] == {}

    def test_faulted_cells_actually_inject(self, serial_outcomes):
        injected = [
            o for o in serial_outcomes if o.metrics["faults"] != "none"
        ]
        assert injected
        assert all(
            sum(o.metrics["fault_events"].values()) > 0 for o in injected
        )


class TestMobilityAxisDeterminism:
    """The mobility axis keeps the engine's determinism contract."""

    MOBILE = SweepSpec(
        name="mobile",
        topologies=("line:5",),
        algorithms=("max-based", "averaging"),
        rate_families=("drifted",),
        delay_policies=("uniform",),
        mobilities=("static", "waypoint:0.5,4", "blink:0.3,6"),
        seeds=(0, 1),
        duration=12.0,
        rho=0.2,
    )

    @pytest.fixture(scope="class")
    def digest_jobs(self):
        # trace_digest folds the *entire* trace (including topology-swap
        # events) into the metrics, so worker-count comparisons check
        # trace identity, not just skew.
        return [
            Job(kind=j.kind, params={**j.params, "trace_digest": True})
            for j in self.MOBILE.jobs()
        ]

    @pytest.fixture(scope="class")
    def serial_outcomes(self, digest_jobs):
        return run_jobs(digest_jobs, workers=1)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_identical_traces_at_any_worker_count(
        self, digest_jobs, serial_outcomes, workers
    ):
        parallel = run_jobs(digest_jobs, workers=workers)
        assert metrics_of(parallel) == metrics_of(serial_outcomes)
        assert all("trace_sha256" in o.metrics for o in parallel)

    def test_static_mobility_matches_plain_benign_run(self):
        base_params = {
            "topology": "line:5",
            "algorithm": "max-based",
            "rates": "drifted",
            "delays": "uniform",
            "seed": 0,
            "duration": 10.0,
            "rho": 0.2,
            "trace_digest": True,
        }
        static = execute_job(
            Job(kind="benign-run", params={**base_params, "mobility": "static"})
        )
        # The same cell without the mobility key at all (pre-axis shape).
        legacy = execute_job(Job(kind="benign-run", params=base_params))
        assert static.metrics["trace_sha256"] == legacy.metrics["trace_sha256"]
        assert static.metrics["rewirings"] == 0

    def test_mobile_cells_actually_rewire(self, serial_outcomes):
        moving = [
            o for o in serial_outcomes if o.metrics["mobility"] != "static"
        ]
        assert moving
        assert all(o.metrics["rewirings"] > 0 for o in moving)
        static = [
            o for o in serial_outcomes if o.metrics["mobility"] == "static"
        ]
        assert static and all(o.metrics["rewirings"] == 0 for o in static)


class TestCache:
    def test_second_run_is_all_hits_with_identical_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        first = run_jobs(TINY.jobs(), workers=2, cache=cache)
        assert cache.hits == 0 and cache.misses == TINY.size
        assert len(cache) == TINY.size

        warm = ResultCache(tmp_path / "c")
        second = run_jobs(TINY.jobs(), workers=2, cache=warm)
        assert warm.hits == TINY.size and warm.misses == 0
        assert all(o.cached for o in second)
        assert metrics_of(second) == metrics_of(first)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = TINY.jobs()[0]
        run_jobs([job], cache=cache)
        cache.path_for(job_hash(job)).write_text("{not json")
        fresh = ResultCache(tmp_path)
        [outcome] = run_jobs([job], cache=fresh)
        assert fresh.hits == 0 and fresh.misses == 1
        assert not outcome.cached

    def test_cache_key_tracks_params(self):
        job_a = Job(kind="benign-run", params={"seed": 0})
        job_b = Job(kind="benign-run", params={"seed": 1})
        assert job_hash(job_a) != job_hash(job_b)
        assert job_hash(job_a) == job_hash(Job(kind="benign-run", params={"seed": 0}))


class TestJobs:
    def test_unknown_kind_raises(self):
        with pytest.raises(SweepError):
            execute_job(Job(kind="perpetual-motion", params={}))

    def test_benign_run_metrics_shape(self):
        job = TINY.jobs()[0]
        outcome = execute_job(job)
        m = outcome.metrics
        assert m["n_nodes"] == 5
        assert m["max_skew"] >= m["max_adjacent_skew"] >= 0.0
        assert m["messages"] > 0
        # JSON-able: survives a cache round trip bit-for-bit.
        assert json.loads(json.dumps(m)) == m


class TestAggregation:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return run_jobs(TINY.jobs(), workers=1)

    def test_summary_groups_cells(self, outcomes):
        table = summary_table(outcomes, title="t")
        # 4 cells (2 topologies x 2 algorithms), each averaging 2 seeds.
        assert len(table.rows) == 4
        seeds_column = len(CELL_KEYS)
        assert all(row[seeds_column] == "2" for row in table.rows)

    def test_sweep_result_renders(self, outcomes):
        result = sweep_result(TINY, outcomes, include_seed_rows=True)
        rendered = result.render()
        assert "SWEEP" in rendered and "line:5" in rendered
        assert len(result.data["metrics"]) == len(outcomes)

    def test_json_artifact(self, outcomes, tmp_path):
        payload = to_json_payload(TINY, outcomes, workers=1, elapsed=1.0)
        path = write_json(tmp_path / "artifacts" / "sweep.json", payload)
        loaded = json.loads(path.read_text())
        assert len(loaded["jobs"]) == TINY.size
        assert loaded["spec"]["name"] == "tiny"


class TestExperimentIntegration:
    def test_e05_identical_across_worker_counts(self):
        from repro.experiments import run_experiment

        serial = run_experiment("E05", workers=1)
        parallel = run_experiment("E05", workers=2)
        assert serial.tables[0].rows == parallel.tables[0].rows

    @pytest.mark.faults
    @pytest.mark.parametrize("workers", [2, 4])
    def test_e13_identical_across_worker_counts(self, workers):
        from repro.experiments import run_experiment

        serial = run_experiment("E13", workers=1)
        parallel = run_experiment("E13", workers=workers)
        assert serial.tables[0].rows == parallel.tables[0].rows
        assert serial.data["curves"] == parallel.data["curves"]

    @pytest.mark.faults
    def test_e13_reports_every_ladder_rung(self):
        from repro.experiments import run_experiment

        result = run_experiment("E13", workers=2)
        faults = {row[2] for row in result.tables[0].rows}
        assert "none" in faults and len(faults) >= 4
        # Baseline rows are exactly 1x themselves.
        for row in result.tables[0].rows:
            if row[2] == "none":
                assert float(row[6]) == pytest.approx(1.0)
            assert float(row[4]) >= 0.0  # final_skew
        # Churn measurably hurts at least one algorithm somewhere.
        assert any(
            float(row[6]) > 1.05
            for row in result.tables[0].rows
            if row[2].startswith("churn")
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_e16_identical_across_worker_counts(self, workers):
        from repro.experiments import run_experiment

        serial = run_experiment("E16", workers=1)
        parallel = run_experiment("E16", workers=workers)
        assert serial.tables[0].rows == parallel.tables[0].rows
        assert serial.tables[1].rows == parallel.tables[1].rows
        assert serial.data["curves"] == parallel.data["curves"]

    def test_e16_reports_every_ladder_rung_and_reconvergence(self):
        from repro.experiments import run_experiment

        result = run_experiment("E16", workers=2)
        mobilities = {row[2] for row in result.tables[0].rows}
        assert "static" in mobilities and len(mobilities) >= 3
        # Stillness anchors are exactly 1x themselves.
        for row in result.tables[0].rows:
            if row[2] == "waypoint:0,4":
                assert float(row[6]) == pytest.approx(1.0)
        # Motion raises the *adjacent* skew of at least one algorithm
        # over its still twin (same geometry, speed 0).
        final_adj = {
            tuple(row[:3]): float(row[5]) for row in result.tables[0].rows
        }
        assert any(
            adj > final_adj[(topology, algorithm, "waypoint:0,4")] + 1e-6
            for (topology, algorithm, mobility), adj in final_adj.items()
            if mobility.startswith("waypoint:") and mobility != "waypoint:0,4"
        )
        # Part 2 has one verdict per algorithm, each on a series that
        # peaked at or above its pre-rewiring band.
        assert len(result.tables[1].rows) >= 3
        for row in result.tables[1].rows:
            assert row[5] in {"yes", "NO"}
            assert float(row[2]) >= float(row[1]) - 1e-9

    def test_unported_experiment_ignores_workers(self):
        from repro.experiments import run_experiment

        result = run_experiment("E01", workers=4)
        assert result.experiment_id == "E01"


class TestSweepCLI:
    def test_sweep_verb_runs(self, capsys, tmp_path):
        from repro.experiments.cli import main as cli_main

        code = cli_main(
            [
                "sweep",
                "--quick",
                "--topologies", "line:5",
                "--algorithms", "max-based",
                "--rates", "drifted",
                "--seeds", "1",
                "--duration", "5",
                "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--json-out", str(tmp_path / "out.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SWEEP" in out and "line:5" in out
        assert (tmp_path / "out.json").exists()

    @pytest.mark.faults
    def test_sweep_verb_accepts_fault_axis(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(
            [
                "sweep",
                "--topologies", "line:5",
                "--algorithms", "max-based",
                "--rates", "drifted",
                # Commas inside a family's numeric args must survive.
                "--faults", "none,loss:0.3,crash-recover:0.3,4",
                "--seeds", "1",
                "--duration", "8",
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 fault families" in out
        assert "crash-recover:0.3,4" in out

    def test_sweep_verb_accepts_mobility_axis(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(
            [
                "sweep",
                "--topologies", "line:5",
                "--algorithms", "max-based",
                "--rates", "drifted",
                # Commas inside a family's numeric args must survive.
                "--mobility", "static,waypoint:0.5,4,blink:0.3,6",
                "--seeds", "1",
                "--duration", "8",
                "--workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 mobility families" in out
        assert "waypoint:0.5,4" in out and "blink:0.3,6" in out

    def test_sweep_verb_bad_mobility_family_exits_nonzero(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(["sweep", "--mobility", "teleport:9"])
        assert code == 2
        assert "unknown mobility family" in capsys.readouterr().err

    def test_sweep_verb_bad_spec_exits_nonzero(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(["sweep", "--topologies", "klein-bottle:4"])
        assert code == 2
        assert "unknown topology" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, spec",
        [
            ("--topologies", "line:1"),
            ("--topologies", "grid:0,3"),
            ("--delays", "fraction:2"),
            ("--delays", "jitter:2"),
        ],
    )
    def test_sweep_verb_out_of_range_spec_exits_two(self, capsys, flag, spec):
        from repro.experiments.cli import main as cli_main

        code = cli_main(["sweep", flag, spec])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(spec) in err

    def test_sweep_verb_bad_fault_family_exits_nonzero(self, capsys):
        from repro.experiments.cli import main as cli_main

        code = cli_main(["sweep", "--faults", "heisenbug:0.5"])
        assert code == 2
        assert "unknown fault family" in capsys.readouterr().err
