"""``analyze_render``: the query set and the figures, on executions that
were simulated in set-up.

Simulation is outside the timed body, so ``analysis``, ``gcs`` and
``viz`` do all the timed work.  One operation is the full analysis of
one execution: build the ``SkewField``, ask every query the experiments
ask, check the paper's two requirements, render the dashboard (and the
mobility animation for the churny execution).
"""

from __future__ import annotations

import hashlib
import time
import xml.etree.ElementTree as ElementTree

from harness import Pass, Workload, values_match

from repro.analysis.field import SkewField
from repro.gcs.properties import GradientBound, check_gradient, check_validity
from repro.viz.cli import run_scenario
from repro.viz.dashboard import skew_dashboard
from repro.viz.mobility import mobility_animation

__all__ = ["AnalyzeRender"]

#: ``(label, run_scenario kwargs, render the mobility animation too)``.
_SCENARIOS = (
    ("line256", dict(topology="line:256"), False),
    ("grid12x12", dict(topology="grid:12,12"), False),
    ("churny-line48", dict(topology="line:48",
                           faults="crash-recover:0.25,3",
                           mobility="waypoint:0.5"), True),
)
_SMOKE_SCENARIOS = (
    ("line12", dict(topology="line:12"), False),
    ("churny-line8", dict(topology="line:8",
                          faults="crash-recover:0.25,2",
                          mobility="waypoint:0.5"), True),
)


class AnalyzeRender(Workload):
    name = "analyze_render"
    imports = ("repro.analysis", "repro.gcs", "repro.viz")

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._reference: list[dict] | None = None
        self._xml_checked = False

    def setup(self) -> None:
        scenarios = _SMOKE_SCENARIOS if self.smoke else _SCENARIOS
        duration = 6.0 if self.smoke else 12.0
        self.executions = [
            (label, animate, run_scenario(
                algorithm="gradient", duration=duration, seed=self.seed,
                **kwargs))
            for label, kwargs, animate in scenarios
        ]

    def teardown(self) -> None:
        self.executions = []

    def run_pass(self, tracer) -> Pass:
        latencies, outputs = [], []
        counters = {"analysis.samples": 0, "gcs.violations": 0,
                    "viz.dashboard_bytes": 0}
        for label, animate, execution in self.executions:
            self.tick()
            start = time.perf_counter()
            ticked = 0.0
            with tracer.span("analysis.field_build"):
                field = SkewField(execution, step=0.25)
            with tracer.span("analysis.query"):
                summary = field.summary()
                adjacent_peak = float(field.max_adjacent_series().max())
                settled = field.settling_time(
                    2.0 * execution.topology.diameter * execution.rho)
                tail = field.steady_state()
            with tracer.span("analysis.profile"):
                profile = field.gradient_profile()
            with tracer.span("analysis.heatmap"):
                heat = field.heatmap()
                heat_peak = float(abs(heat[-1]).max())
                heat_shape = list(heat.shape)
                del heat
            ticked += self.tick()
            with tracer.span("gcs.check"):
                violations = check_gradient(
                    execution,
                    GradientBound.conjectured(execution.topology.diameter))
                check_validity(execution)
            ticked += self.tick()
            with tracer.span("viz.dashboard"):
                dashboard = skew_dashboard(execution)
            animation = None
            if animate:
                with tracer.span("viz.mobility"):
                    animation = mobility_animation(execution)
            latencies.append((time.perf_counter() - start - ticked) * 1e3)
            counters["analysis.samples"] += int(field.values.size)
            counters["gcs.violations"] += len(violations)
            counters["viz.dashboard_bytes"] += len(dashboard)
            outputs.append((
                {
                    "execution": label,
                    "samples": int(field.values.size),
                    "max_skew": summary.max_skew,
                    "max_adjacent_skew": summary.max_adjacent_skew,
                    "adjacent_peak": adjacent_peak,
                    "final_skew": summary.final_skew,
                    "mean_abs_skew": summary.mean_abs_skew,
                    "settling_time": settled,
                    "steady_mean_max_skew": tail.mean_max_skew,
                    # The profile of a mobile execution has thousands of
                    # distinct distances; pin its shape, not every point.
                    "profile_points": len(profile),
                    "profile_peak": max(profile.values()),
                    "profile_sum": sum(profile.values()),
                    "heatmap_shape": heat_shape,
                    "heatmap_final_peak": heat_peak,
                    "violations": len(violations),
                },
                dashboard,
                animation,
            ))
        return Pass(
            latencies_ms=latencies,
            units=counters["analysis.samples"],
            outputs=outputs,
            counters=counters,
        )

    def verify(self, result: Pass):
        """Numbers against the expectation (and the first pass), figures
        parsed as XML once and compared by digest afterwards."""
        failures = []
        numbers = []
        for summary, dashboard, animation in result.outputs:
            figures = [f for f in (dashboard, animation) if f is not None]
            summary["figures_sha256"] = [
                hashlib.sha256(f.encode()).hexdigest() for f in figures]
            if not self._xml_checked:
                for figure in figures:
                    try:
                        ElementTree.fromstring(figure)
                    except ElementTree.ParseError as exc:
                        failures.append(
                            f"{summary['execution']}: figure is not "
                            f"well-formed XML: {exc}")
            numbers.append(summary)
        self._xml_checked = True
        if self._reference is None:
            self._reference = numbers
        for what, want in (
            ("expected.json", self.expected and self.expected["analyses"]),
            ("first pass", self._reference),
        ):
            if not want:
                continue
            for got, ref in zip(numbers, want):
                # Figure bytes are pinned within a run only: a rendering
                # change is not a wrong answer, a figure that differs
                # between two passes over the same execution is.
                if what == "expected.json":
                    got = {k: v for k, v in got.items() if k != "figures_sha256"}
                if not values_match(got, ref):
                    failures.append(
                        f"{what}: analysis of {got['execution']} differs")
        return len(result.outputs), failures

    def observed(self):
        return {"analyses": [
            {k: v for k, v in summary.items() if k != "figures_sha256"}
            for summary in self._reference
        ]}
