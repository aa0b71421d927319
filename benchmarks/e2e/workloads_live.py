"""``live_router``: the live runtime on the router transport, plus one
virtual-time rung.

A router run sleeps until ``duration x time_scale`` wall seconds have
passed, so events per second only restates the workload size.  What the
runtime itself decides is how much CPU it burns per routed frame and
how long start-up (fork, ready barrier) and collection add on top of
the pinned span — so CPU is counted over the router rungs only, and the
per-rung overhead is reported by the traced run.
"""

from __future__ import annotations

import time
import warnings

from harness import NULL_TRACER, Pass, Workload, cpu_times, values_match
from workloads_sim import traced_benign_run

from repro.analysis.skew import summarize
from repro.experiments.e14_live import skew_bound
from repro.rt import LiveRunConfig, run_live

__all__ = ["LiveRouter"]

_TIME_SCALE = 0.1
#: ``(rung label used in metric names, topology spec)``.
_RUNGS = (("line128", "line:128"), ("grid16x8", "grid:16,8"),
          ("line512", "line:512"))
_SMOKE_RUNGS = (("line128", "line:8"),)


class LiveRouter(Workload):
    name = "live_router"
    imports = ("repro.rt", "repro.analysis")
    normalise = False

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reference: dict | None = None

    def setup(self) -> None:
        self.rungs = _SMOKE_RUNGS if self.smoke else _RUNGS
        self.duration = 2.0 if self.smoke else 6.0
        self.virtual = LiveRunConfig(
            topology="line:8" if self.smoke else "line:128",
            algorithm="gradient", duration=4.0 if self.smoke else 20.0,
            seed=self.seed, transport="virtual", record_trace=False)

    def run_pass(self, tracer) -> Pass:
        latencies, rungs = [], []
        counters: dict = {}
        cpu_self = cpu_kids = 0.0
        for label, topology in self.rungs:
            config = LiveRunConfig(
                topology=topology, algorithm="gradient",
                duration=self.duration, seed=self.seed, transport="router",
                time_scale=_TIME_SCALE, record_trace=False)
            before = cpu_times()
            start = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with tracer.span(f"rt.router.{label}"):
                    execution = run_live(config)
            wall = time.perf_counter() - start
            after = cpu_times()
            cpu_self += after[0] - before[0]
            cpu_kids += after[1] - before[1]
            # The rung sleeps out ``duration x time_scale`` whatever the
            # runtime does; its latency is what the runtime adds to that.
            overhead = wall - self.duration * _TIME_SCALE
            latencies.append(overhead * 1e3)
            counters[f"rt.overhead_s.{label}"] = overhead
            rungs.append((topology, execution,
                          [str(w.message) for w in caught]))
        start = time.perf_counter()
        with tracer.span("rt.virtual"):
            virtual = run_live(self.virtual)
        virtual_wall = time.perf_counter() - start
        stats = [execution.live_stats for _, execution, _ in rungs]
        counters.update({
            "rt.frames_routed": sum(s["frames_routed"] for s in stats),
            "rt.events": sum(s["events"] for s in stats),
            "rt.frames_dropped": sum(s["frames_dropped"] for s in stats),
            "rt.parent_cpu_s": cpu_self,
            "rt.worker_cpu_s": cpu_kids,
            "rt.virtual_msgs_per_s": len(virtual.messages) / virtual_wall,
        })
        if tracer.enabled:
            # The same cell through the simulator, for the ratio.
            sim_counters: dict = {}
            with tracer.span("rt.sim_reference"):
                traced_benign_run({
                    "topology": self.virtual.topology,
                    "algorithm": self.virtual.algorithm,
                    "rates": self.virtual.rates,
                    "delays": self.virtual.delays,
                    "seed": self.seed,
                    "duration": self.virtual.duration,
                    "rho": self.virtual.rho,
                }, NULL_TRACER, sim_counters)
            counters["rt.virtual_vs_sim_ratio"] = (
                virtual_wall / sim_counters["sim.run_s"])
        return Pass(
            latencies_ms=latencies,
            ops=len(rungs) + 1,
            units=counters["rt.frames_routed"],
            cpu_s=cpu_self + cpu_kids,
            outputs=(rungs, virtual),
            counters=counters,
        )

    def verify(self, result: Pass):
        rungs, virtual = result.outputs
        failures = []
        for topology, execution, warned in rungs:
            stats = execution.live_stats
            final = summarize(execution).final_skew
            bound = skew_bound(execution.topology.diameter)
            if stats["frames_dropped"]:
                failures.append(
                    f"{topology}: {stats['frames_dropped']} frames dropped")
            elif any("missed the shared start epoch" in w for w in warned):
                failures.append(f"{topology}: a worker missed the start epoch")
            elif not final <= bound:
                failures.append(
                    f"{topology}: final skew {final:.3f} above bound {bound}")
        # The virtual transport is deterministic: pin it like a sim cell.
        observed = {
            "messages": len(virtual.messages),
            "final_skew": float(summarize(virtual).final_skew),
        }
        if self._reference is None:
            self._reference = observed
        for what, want in (
            ("expected.json", self.expected and self.expected["virtual"]),
            ("first pass", self._reference),
        ):
            if want and not values_match(observed, want):
                failures.append(f"{what}: virtual rung differs: {observed}")
                break
        return len(rungs) + 1, failures

    def observed(self):
        return {"virtual": self._reference}

