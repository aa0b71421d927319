"""The live runtime as a sweep axis and as experiment E14.

Covers the ``transports`` axis of :class:`SweepSpec` (expansion into
``benign-run`` vs ``live-run`` jobs, cache-stability of sim cells,
validation), the ``live-run`` job kind end to end through ``run_jobs``
(including worker processes resolving the kind by module name), and the
E14 comparison experiment.  Only the E14 test touches wall-clock
backends, so it carries the ``rt`` marker; the rest are virtual-time
fast.
"""

from __future__ import annotations

import pytest

from repro.errors import SweepError
from repro.experiments import run_experiment
from repro.sweep import Job, SweepSpec, run_jobs
from repro.sweep.aggregate import summary_table
from repro.sweep.jobs import job_hash


def _spec(**overrides) -> SweepSpec:
    base = dict(
        name="rt-test",
        topologies=("line:5",),
        algorithms=("gradient",),
        rate_families=("drifted",),
        delay_policies=("uniform",),
        transports=("sim", "virtual"),
        seeds=(0,),
        duration=8.0,
        rho=0.2,
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestTransportAxis:
    def test_jobs_split_by_transport(self):
        jobs = _spec().jobs()
        assert [j.kind for j in jobs] == ["benign-run", "live-run"]
        live = jobs[1]
        assert live.params["transport"] == "virtual"
        assert live.module == "repro.rt.jobs"
        # sim cells keep the exact historical benign-run params: the
        # transport axis itself never perturbs sim-cell hashes (cache
        # invalidation happens only through CACHE_VERSION bumps).
        assert "transport" not in jobs[0].params
        assert "time_scale" not in jobs[0].params

    def test_sim_only_spec_hashes_unchanged_by_axis_default(self):
        with_axis = _spec(transports=("sim",)).jobs()
        field_free = SweepSpec(
            name="rt-test",
            topologies=("line:5",),
            algorithms=("gradient",),
            rate_families=("drifted",),
            delay_policies=("uniform",),
            seeds=(0,),
            duration=8.0,
            rho=0.2,
        ).jobs()
        assert [job_hash(j) for j in with_axis] == [
            job_hash(j) for j in field_free
        ]

    def test_unknown_transport_rejected(self):
        with pytest.raises(SweepError):
            _spec(transports=("sim", "telepathy")).jobs()

    def test_fault_axis_crosses_every_live_transport(self):
        jobs = _spec(
            transports=("sim", "virtual", "asyncio", "udp", "router"),
            fault_families=("none", "loss:0.2"),
        ).jobs()
        assert len(jobs) == 10
        assert {j.params["faults"] for j in jobs} == {"none", "loss:0.2"}

    def test_mobility_axis_crosses_every_live_transport(self):
        jobs = _spec(
            transports=("sim", "virtual", "asyncio", "udp", "router"),
            mobilities=("static", "blink:0.2,2"),
        ).jobs()
        assert len(jobs) == 10
        assert {j.params["mobility"] for j in jobs} == {"static", "blink:0.2,2"}

    def test_router_cells_accept_faults_and_mobility(self):
        jobs = _spec(
            transports=("sim", "router"),
            fault_families=("crash-recover:0.25,5",),
            mobilities=("blink:0.2,2",),
        ).jobs()
        assert [j.kind for j in jobs] == ["benign-run", "live-run"]
        live = jobs[1]
        assert live.params["transport"] == "router"
        assert live.params["faults"] == "crash-recover:0.25,5"
        assert live.params["mobility"] == "blink:0.2,2"

    def test_size_counts_transport_axis(self):
        assert _spec().size == 2

    def test_from_dict_roundtrip_keeps_transports(self):
        import json

        spec = _spec()
        again = SweepSpec.from_dict(json.loads(spec.to_json()))
        assert again.transports == ("sim", "virtual")
        assert again == spec

    @pytest.mark.rt
    @pytest.mark.parametrize("transport", ["udp", "router"])
    def test_cli_runs_forking_cells_with_pool_workers(self, capsys, transport):
        # run_jobs keeps cells that fork node processes off its pool, so
        # no worker count needs rejecting any more.
        from repro.sweep.cli import main as sweep_main

        code = sweep_main(
            ["--topologies", "line:4", "--algorithms", "gradient",
             "--transports", f"sim,{transport}", "--seeds", "1",
             "--duration", "4", "--time-scale", "0.05", "--workers", "2",
             "--per-job"]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        rows = [line for line in captured.out.splitlines() if "line:4" in line]
        assert any(transport in row for row in rows)
        assert any("sim" in row for row in rows)


class TestLiveRunJobs:
    def test_live_matches_sim_metrics_on_virtual(self):
        outcomes = run_jobs(_spec().jobs(), workers=1)
        sim, live = (o.metrics for o in outcomes)
        assert sim["transport"] == "sim"
        assert live["transport"] == "virtual"
        for metric in ("max_skew", "final_skew", "mean_abs_skew", "messages"):
            assert live[metric] == pytest.approx(sim[metric], abs=1e-9)
        assert live["wall_elapsed"] >= 0.0

    def test_virtual_rows_equal_sim_rows_on_faulted_cells(self):
        # One fault executor: a virtual cell's row is its sim twin's on
        # every key the scenario determines, injected losses included.
        live_only = {
            "transport", "frames_dropped", "frames_routed", "events",
            "workers", "wall_elapsed",
        }
        outcomes = run_jobs(
            _spec(fault_families=("none", "loss:0.2")).jobs(), workers=1
        )
        rows = {
            (o.metrics["faults"], o.metrics["transport"]): o.metrics
            for o in outcomes
        }
        for faults in ("none", "loss:0.2"):
            sim, live = rows[faults, "sim"], rows[faults, "virtual"]
            assert set(live) - set(sim) == live_only - {"transport"}
            assert {k: v for k, v in live.items() if k not in live_only} == {
                k: v for k, v in sim.items() if k != "transport"
            }
        assert rows["loss:0.2", "virtual"]["fault_events"]["lost_random"] > 0

    def test_workers_resolve_live_kind_by_module(self):
        # A worker pool (fresh interpreter state on spawn platforms)
        # must find the kind through the Job's module field.
        outcomes = run_jobs(_spec().jobs(), workers=2)
        assert [o.metrics["transport"] for o in outcomes] == ["sim", "virtual"]

    def test_summary_table_carries_transport_column(self):
        outcomes = run_jobs(_spec().jobs(), workers=1)
        table = summary_table(outcomes, title="t")
        rendered = table.render()
        assert "transport" in rendered
        assert "virtual" in rendered

    def test_plain_live_run_job_executes(self):
        job = Job(
            kind="live-run",
            params={
                "topology": "line:4",
                "algorithm": "max-based",
                "rates": "constant",
                "delays": "half",
                "transport": "virtual",
                "seed": 1,
                "duration": 6.0,
                "rho": 0.1,
            },
            module="repro.rt.jobs",
        )
        (outcome,) = run_jobs([job], workers=1)
        assert outcome.metrics["faults"] == "none"
        assert outcome.metrics["n_nodes"] == 4


@pytest.mark.rt
class TestE14:
    def test_quick_scale_table_and_guarantees(self):
        result = run_experiment("E14", "quick", workers=2)
        assert result.experiment_id == "E14"
        cells = result.data["cells"]
        assert set(cells) == {"gradient", "averaging"}
        for algorithm, backends in cells.items():
            assert set(backends) == {
                "sim", "virtual", "asyncio", "udp", "router"
            }
            # The virtual backend replays the simulator exactly.
            assert backends["virtual"]["delta_vs_sim"] <= result.data[
                "virtual_tolerance"
            ]
            # Every backend stays inside the diameter+1 gradient budget.
            for cell in backends.values():
                assert cell["bounded"]
        # The router node-count ladder rode along (quick rungs only).
        ladder = result.data["ladder"]
        assert [cell["topology"] for cell in ladder] == ["line:8", "line:32"]
        assert all(cell["bounded"] for cell in ladder)
        assert all(cell["events_per_sec"] > 0 for cell in ladder)
        rendered = result.render()
        assert "d final vs sim" in rendered
        assert "scale ladder" in rendered
        assert " NO " not in rendered
