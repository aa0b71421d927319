"""Adversary schedules: executions as the adversary specifies them.

The lower-bound proofs construct executions by dictating (a) every node's
hardware clock rate as a function of real time and (b) every message's
delay.  An :class:`AdversarySchedule` is that specification.  *Running*
a schedule means handing it to the deterministic simulator together with
an algorithm; because nodes see only hardware readings and messages, the
schedule fully determines the execution — which is how the paper's
"there exists an execution such that ..." statements become runnable
artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.algorithms.base import SyncAlgorithm
from repro.errors import ScheduleError
from repro.sim.execution import Execution
from repro.sim.messages import DelayPolicy, HalfDistanceDelay
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.topology.base import Topology

__all__ = ["AdversarySchedule"]


@dataclass(frozen=True)
class AdversarySchedule:
    """Per-node rate schedules + a delay oracle + a duration.

    Immutable; the construction lemmas produce edited copies.  The delay
    oracle must be deterministic for the indistinguishability machinery
    to work (random policies are fine for benign experiments, but the
    lower-bound constructions never use them).
    """

    rates: Mapping[int, PiecewiseConstantRate]
    delay_oracle: DelayPolicy
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ScheduleError(f"duration must be positive, got {self.duration}")

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def quiet(cls, nodes, duration: float) -> "AdversarySchedule":
        """The paper's baseline: all rates 1, all delays ``d/2``.

        ``alpha_0`` of Theorem 8.1 is exactly ``quiet(nodes, tau*(D-1))``.
        """
        rate = PiecewiseConstantRate.constant(1.0)
        return cls(
            rates={node: rate for node in nodes},
            delay_oracle=HalfDistanceDelay(),
            duration=duration,
        )

    # ------------------------------------------------------------------
    # editing

    def extended(self, extra: float) -> "AdversarySchedule":
        """Lengthen the execution by ``extra`` of quiet running.

        Rate schedules already continue (their last segment extends to
        infinity and the constructions always end on rate 1); the warped
        delay oracles return ``d/2`` outside their windows, so the
        extension is automatically the quiet region the next round's
        preconditions need.
        """
        if extra <= 0:
            raise ScheduleError(f"extension must be positive, got {extra}")
        return replace(self, duration=self.duration + extra)

    # ------------------------------------------------------------------
    # execution

    def run(
        self,
        topology: Topology,
        algorithm: SyncAlgorithm,
        *,
        rho: float,
        seed: int = 0,
        record_trace: bool = True,
    ) -> Execution:
        """Run ``algorithm`` under this schedule and return the execution.

        A fresh set of processes is instantiated every run (process
        objects hold state), so re-running a schedule is always
        reproducible.
        """
        config = SimConfig(
            duration=self.duration, rho=rho, seed=seed, record_trace=record_trace
        )
        return run_simulation(
            topology,
            algorithm.processes(topology),
            config,
            rate_schedules=self.rates,
            delay_policy=self.delay_oracle,
        )

    # ------------------------------------------------------------------
    # checks used by lemma preconditions

    def rates_constant_one(self, a: float, b: float) -> bool:
        """Whether every node runs at rate exactly 1 throughout ``[a, b]``."""
        for schedule in self.rates.values():
            if schedule.min_rate(a, b) != 1.0 or schedule.max_rate(a, b) != 1.0:
                return False
        return True
