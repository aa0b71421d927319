"""The two in-process simulation workloads: ``grid_small`` and
``scale_large``.

Untraced passes go through the public entry points a user calls
(``spec.jobs()`` → ``run_jobs`` → ``sweep_result`` → ``write_json`` →
``write_report``; ``execute_job`` for the big cells).  ``execute_job``
hides its stages, so traced passes drive :func:`traced_benign_run`
instead — the same public calls ``benign-run`` makes, one span per
stage — and ``verify`` requires its metrics to equal the untraced
``execute_job`` metrics, so the replica cannot drift.

No ``engine=`` (nor any other speed knob) is passed anywhere: the
harness measures whatever the default path is.
"""

from __future__ import annotations

import json
import time
import xml.etree.ElementTree as ElementTree
from typing import Any, Mapping

from harness import Pass, Workload, values_match

from repro.analysis.field import SkewField
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep import (
    Job,
    JobOutcome,
    ResultCache,
    SweepSpec,
    algorithm_from_spec,
    delay_policy_from_spec,
    execute_job,
    fault_plan_from_spec,
    job_hash,
    mobility_from_spec,
    rates_from_spec,
    run_jobs,
    sweep_result,
    to_json_payload,
    topology_from_spec,
    write_json,
)
from repro.viz.report import rows_from_artifact, write_report

__all__ = ["GridSmall", "ScaleLarge", "traced_benign_run", "check_cells"]

_CALLBACKS = ("on_start", "on_message", "on_timer", "on_recover")


def _time_callbacks(processes: Mapping[int, Any], acc: list) -> None:
    """Patch a stopwatch onto each process *instance*'s callbacks.

    Instance-level, so the ``Process`` classes and anything the engine
    inspects on them are untouched.  ``acc`` is ``[seconds, calls]``.
    Engine work a callback triggers through its ``NodeAPI`` (broadcast,
    set_timer, jump) is charged to the callback, not to ``sim.self_s``.
    """
    clock = time.perf_counter
    for process in processes.values():
        for name in _CALLBACKS:
            bound = getattr(process, name)

            def timed(*args, _bound=bound):
                start = clock()
                try:
                    return _bound(*args)
                finally:
                    acc[0] += clock() - start
                    acc[1] += 1

            setattr(process, name, timed)


def traced_benign_run(params: Mapping[str, Any], tracer, counters: dict,
                      suffix: str = "") -> dict:
    """``benign-run``, stage by stage, with a span around each stage.

    Mirrors :func:`repro.sweep.jobs.benign_run` call for call (same
    ``*_from_spec`` builders, ``run_simulation``, ``SkewField``, the same
    queries) and returns the same metrics dict.  ``suffix`` (``".half"``
    / ``".uniform"``) additionally files the sim counters per delay
    family.
    """
    duration = float(params["duration"])
    rho = float(params["rho"])
    seed = int(params["seed"])
    faults = str(params.get("faults", "none"))
    mobility = str(params.get("mobility", "static"))
    with tracer.span("topology.build"):
        topology = topology_from_spec(params["topology"])
    with tracer.span("topology.mobility_build"):
        dynamic = mobility_from_spec(
            mobility, topology, seed=seed, horizon=duration)
        if dynamic is not None:
            topology = dynamic.initial
    with tracer.span("algorithms.build"):
        processes = algorithm_from_spec(params["algorithm"]).processes(topology)
    with tracer.span("sweep.families_other"):
        rates = rates_from_spec(
            params["rates"], topology, rho=rho, seed=seed, horizon=duration)
        fault_plan = fault_plan_from_spec(
            faults, topology, seed=seed, horizon=duration)
        delay_policy = delay_policy_from_spec(params["delays"])
    callback = [0.0, 0]
    _time_callbacks(processes, callback)
    with tracer.span("sim.run"):
        run_start = time.perf_counter()
        execution = run_simulation(
            dynamic if dynamic is not None else topology,
            processes,
            SimConfig(duration=duration, rho=rho, seed=seed,
                      record_trace=False),
            rate_schedules=rates,
            delay_policy=delay_policy,
            fault_plan=fault_plan,
        )
        run_s = time.perf_counter() - run_start
    with tracer.span("analysis.field_build"):
        field = SkewField(execution, step=float(params.get("step", 1.0)))
    with tracer.span("analysis.query"):
        skew = field.summary()
        threshold = float(
            params.get("settle_threshold", 2.0 * topology.diameter * rho))
        settled = field.settling_time(threshold)
        tail = field.steady_state()
    stats = execution.fault_stats or {}
    messages = (
        len(execution.messages)
        - stats.get("lost_receiver_down", 0)
        - stats.get("lost_in_flight", 0)
    )
    for key, value in (
        ("topology.nodes", int(topology.n)),
        ("algorithms.callback_s", callback[0]),
        ("algorithms.callbacks", callback[1]),
        ("analysis.samples", int(field.values.size)),
        ("sim.messages", messages),
        ("sim.run_s", run_s),
        ("sim.self_s", run_s - callback[0]),
    ):
        counters[key] = counters.get(key, 0) + value
        if suffix and key.startswith("sim."):
            counters[key + suffix] = counters.get(key + suffix, 0) + value
    return {
        "topology": params["topology"],
        "algorithm": params["algorithm"],
        "rates": params["rates"],
        "delays": params["delays"],
        "faults": faults,
        "mobility": mobility,
        "transport": "sim",
        "seed": seed,
        "n_nodes": int(topology.n),
        "diameter": float(topology.diameter),
        "max_skew": float(skew.max_skew),
        "max_adjacent_skew": float(skew.max_adjacent_skew),
        "final_skew": float(skew.final_skew),
        "final_adjacent_skew": float(skew.final_adjacent_skew),
        "mean_abs_skew": float(skew.mean_abs_skew),
        "settling_time": None if settled is None else float(settled),
        "settle_threshold": threshold,
        "steady_mean_max_skew": float(tail.mean_max_skew),
        "steady_worst_adjacent_skew": float(tail.worst_adjacent_skew),
        "messages": messages,
        "fault_events": stats,
        "rewirings": (
            0 if execution.topology_timeline is None
            else len(execution.topology_timeline) - 1
        ),
    }


def check_cells(got: list[dict], want: list[dict], what: str) -> list[str]:
    """One failure message per cell whose metrics differ from ``want``."""
    failures = [
        f"{what}: cell {k} ({w.get('topology')}/{w.get('algorithm')}/"
        f"{w.get('delays')}/{w.get('faults')}/{w.get('mobility')}) "
        "metrics differ"
        for k, (g, w) in enumerate(zip(got, want))
        if not values_match(g, w)
    ]
    if len(got) != len(want):
        failures.append(f"{what}: {len(got)} cells, expected {len(want)}")
    return failures


def _us_per_msg(counters: dict, suffix: str = "") -> float:
    messages = counters.get("sim.messages" + suffix, 0)
    return counters.get("sim.run_s" + suffix, 0.0) / messages * 1e6 if messages else 0.0


class _SimWorkload(Workload):
    """Shared verify/expectation logic: cells checked against the
    committed expectation when there is one, and always against the
    first pass of the run (same inputs, same outputs)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reference: list[dict] | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def _check(self, cells: list[dict]) -> list[str]:
        failures = []
        if self.expected is not None:
            failures += check_cells(cells, self.expected["cells"], "expected.json")
        if self._reference is None:
            # First (warm-up, untraced) pass: what execute_job says.
            self._reference = cells
        else:
            failures += check_cells(cells, self._reference, "first pass")
        return failures

    def observed(self):
        return {"cells": self._reference}


class GridSmall(_SimWorkload):
    name = "grid_small"
    imports = ("repro.sweep", "repro.viz.report")

    def setup(self) -> None:
        if self.smoke:
            axes = dict(
                topologies=("line:5", "grid:2,3"),
                algorithms=("max-based", "bounded-catch-up"),
                rate_families=("drifted",),
                fault_families=("none", "crash-recover:0.25,2"),
                mobilities=("static", "waypoint:0.5"),
                duration=8.0,
            )
        else:
            axes = dict(
                topologies=("line:17", "grid:4,4", "geometric:16,3"),
                algorithms=("max-based", "averaging", "bounded-catch-up"),
                rate_families=("drifted", "wandering"),
                fault_families=("none", "crash-recover:0.25,3"),
                mobilities=("static", "waypoint:0.5"),
                duration=10.0,
            )
        # Two seeds per run: a cell's traffic moves with its seed (drawn
        # clock rates, waypoint geometry), and the more draws a pass
        # holds, the less its size depends on the run's ``--seed``.
        seeds = (self.seed,) if self.smoke else (2 * self.seed, 2 * self.seed + 1)
        self.spec = SweepSpec(
            name="grid_small", delay_policies=("uniform",), seeds=seeds, **axes)
        self.out_dir = self.sandbox.mkdir("grid_small")

    def run_pass(self, tracer) -> Pass:
        spec, out = self.spec, self.out_dir
        counters: dict = {}
        with tracer.span("sweep.expand"):
            jobs = spec.jobs()
        if tracer.enabled:
            with tracer.span("sweep.hash"):
                for job in jobs:
                    job_hash(job)
            outcomes = []
            for job in jobs:
                start = time.perf_counter()
                metrics = traced_benign_run(job.params, tracer, counters)
                outcomes.append(JobOutcome(
                    job=job, metrics=metrics,
                    elapsed=time.perf_counter() - start))
                self.tick()
        else:
            start = time.perf_counter()
            ticked = [0.0]

            def between_cells(done, total, outcome):
                ticked[0] += self.tick()

            outcomes = run_jobs(jobs, workers=1, progress=between_cells)
            counters["sweep.dispatch_overhead_s"] = (
                time.perf_counter() - start - ticked[0]
                - sum(o.elapsed for o in outcomes))
        self.tick()
        with tracer.span("sweep.aggregate"):
            table = sweep_result(spec, outcomes, include_seed_rows=True).render()
        with tracer.span("sweep.payload"):
            payload = to_json_payload(spec, outcomes, workers=1)
            artifact = write_json(out / "sweep.json", payload)
        self.tick()
        with tracer.span("viz.report"):
            svg_path, _ = write_report(
                out, rows_from_artifact(payload), title="grid_small report")
        recalled = None
        if tracer.enabled:
            cache = ResultCache(self.sandbox.mkdir("cache"))
            with tracer.span("sweep.cache_put"):
                for o in outcomes:
                    cache.put(o.job, o.metrics)
            with tracer.span("sweep.cache_get"):
                recalled = [cache.get(o.job) for o in outcomes]
        counters["sweep.cells"] = len(outcomes)
        counters["sim.us_per_msg"] = _us_per_msg(counters)
        return Pass(
            latencies_ms=[o.elapsed * 1e3 for o in outcomes],
            units=sum(o.metrics["messages"] for o in outcomes),
            outputs=([o.metrics for o in outcomes], table, artifact,
                     svg_path, recalled),
            counters=counters,
        )

    def verify(self, result: Pass):
        cells, table, artifact, svg_path, recalled = result.outputs
        failures = self._check(cells)
        problems = []
        if len(json.loads(artifact.read_text())["jobs"]) != len(cells):
            problems.append("sweep.json does not list every cell")
        try:
            ElementTree.parse(svg_path)
        except ElementTree.ParseError as exc:
            problems.append(f"report.svg is not well-formed XML: {exc}")
        if "sweep[grid_small]" not in table:
            problems.append("rendered table lost its title")
        if recalled is not None and recalled != cells:
            problems.append("ResultCache returned different metrics")
        # An artifact is shared by every cell of the pass: charge one
        # failed operation per broken artifact, on top of per-cell ones.
        return len(cells), failures + problems


class ScaleLarge(_SimWorkload):
    name = "scale_large"
    imports = ("repro.sweep",)

    def setup(self) -> None:
        topologies = (
            ("line:24", "grid:4,5") if self.smoke
            else ("line:512", "grid:16,16", "geometric:256,3")
        )
        self.jobs = [
            Job(kind="benign-run", params={
                "topology": topology,
                "algorithm": "gradient",
                "rates": "drifted",
                "delays": delays,
                "faults": "none",
                "mobility": "static",
                "seed": self.seed,
                "duration": 3.0 if self.smoke else 6.0,
                "rho": self.rho,
                "step": 0.5,
            })
            for topology in topologies
            for delays in ("half", "uniform")
        ]

    #: SweepSpec's own default, so these cells are the cells a grid with
    #: the same axes would expand to.
    rho = SweepSpec().rho

    def run_pass(self, tracer) -> Pass:
        counters: dict = {}
        cells, latencies = [], []
        for job in self.jobs:
            if tracer.enabled:
                start = time.perf_counter()
                metrics = traced_benign_run(
                    job.params, tracer, counters,
                    suffix="." + job.params["delays"])
                latencies.append((time.perf_counter() - start) * 1e3)
            else:
                outcome = execute_job(job)
                metrics = outcome.metrics
                latencies.append(outcome.elapsed * 1e3)
            cells.append(metrics)
            self.tick()
        for suffix in ("", ".half", ".uniform"):
            counters["sim.us_per_msg" + suffix] = _us_per_msg(counters, suffix)
        return Pass(
            latencies_ms=latencies,
            units=sum(m["messages"] for m in cells),
            outputs=cells,
            counters=counters,
        )

    def verify(self, result: Pass):
        return len(result.outputs), self._check(result.outputs)
