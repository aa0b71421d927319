"""One scenario cell: the tuple that fixes an execution.

In the paper's model an execution is determined by the distances, the
hardware rates, the message delays, the algorithm and the adversary.
Here each of those is a compact spec string (see
:mod:`repro.sweep.families`) plus a duration, a drift bound and the seed
every randomized family draws from — nine fields, a :class:`Scenario`.

This module is the single path from those nine fields to a measured row:

* :meth:`Scenario.build` turns the spec strings into the objects a run
  needs (a :class:`Cell`), once, for the simulator and every live
  transport alike;
* :meth:`Scenario.simulate` runs the cell in the discrete-event
  simulator (the live runtime's counterpart is
  :func:`repro.rt.run.run_live`, which starts from the same ``build``);
* :func:`cell_metrics` measures the resulting execution into the shared
  metrics row both job kinds (``benign-run``, ``live-run``) return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Optional

from repro._constants import DEFAULT_RHO
from repro.analysis.field import SkewField
from repro.sim.execution import Execution
from repro.sim.faults import FaultPlan
from repro.sim.messages import DelayPolicy
from repro.sim.node import Process
from repro.sim.rates import PiecewiseConstantRate
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep.families import (
    algorithm_from_spec,
    delay_policy_from_spec,
    fault_plan_from_spec,
    mobility_from_spec,
    rates_from_spec,
    topology_from_spec,
)
from repro.topology.base import Topology
from repro.topology.dynamic import DynamicTopology

__all__ = ["Scenario", "Cell", "cell_metrics"]


class Cell(NamedTuple):
    """The objects one scenario's spec strings build."""

    #: The t = 0 network: the one the processes are built for and the
    #: one distance-derived defaults (diameter) come from.
    topology: Topology
    #: The moving network, or ``None`` for the ``"static"`` family.
    dynamic: Optional[DynamicTopology]
    rates: dict[int, PiecewiseConstantRate]
    delay_policy: DelayPolicy
    #: The fault plan, or ``None`` when it injects nothing (the ``"none"``
    #: family), so fault-free runs skip every fault hook.
    fault_plan: Optional[FaultPlan]
    processes: dict[int, Process]


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """One scenario cell, named entirely by picklable spec strings.

    ``faults`` is a :mod:`repro.sim.faults` family spec such as
    ``"crash-recover:0.25,5"``; ``mobility`` a dynamic-topology family
    such as ``"waypoint:0.5"`` or ``"blink:0.2,2"``.  A non-static
    ``mobility`` replaces the cell topology with a
    :class:`~repro.topology.dynamic.DynamicTopology` built from it (for
    ``waypoint`` the cell topology donates only its node count); the
    ``"static"`` family passes the plain topology through untouched, so
    static cells keep the byte-identity contract.
    """

    topology: str = "line:8"
    algorithm: str = "gradient"
    rates: str = "drifted"
    delays: str = "uniform"
    faults: str = "none"
    mobility: str = "static"
    duration: float = 20.0
    rho: float = DEFAULT_RHO
    seed: int = 0

    @classmethod
    def from_params(cls, params: Mapping[str, Any], **extra) -> "Scenario":
        """The scenario a job's params name (``faults`` defaults to
        ``"none"``, ``mobility`` to ``"static"``); ``extra`` passes a
        subclass's own fields through."""
        return cls(
            topology=str(params["topology"]),
            algorithm=str(params["algorithm"]),
            rates=str(params["rates"]),
            delays=str(params["delays"]),
            faults=str(params.get("faults", "none")),
            mobility=str(params.get("mobility", "static")),
            duration=float(params["duration"]),
            rho=float(params["rho"]),
            seed=int(params["seed"]),
            **extra,
        )

    def params(self) -> dict:
        """The nine fields as JSON-able job params (``from_params``'s
        inverse; also the keyword arguments that rebuild the scenario).
        A subclass's extra fields are not scenario params."""
        return {
            "topology": self.topology,
            "algorithm": self.algorithm,
            "rates": self.rates,
            "delays": self.delays,
            "faults": self.faults,
            "mobility": self.mobility,
            "seed": self.seed,
            "duration": self.duration,
            "rho": self.rho,
        }

    def build(self) -> Cell:
        """Spec strings -> the objects of one run.

        Pure in the nine fields, so a parent and its forked shard
        workers derive the very same objects without shipping them.
        """
        topology = topology_from_spec(self.topology)
        algorithm = algorithm_from_spec(self.algorithm)
        dynamic = mobility_from_spec(
            self.mobility, topology, seed=self.seed, horizon=self.duration
        )
        if dynamic is not None:
            topology = dynamic.initial
        rates = rates_from_spec(
            self.rates, topology, rho=self.rho, seed=self.seed,
            horizon=self.duration,
        )
        fault_plan = fault_plan_from_spec(
            self.faults, topology, seed=self.seed, horizon=self.duration
        )
        processes = algorithm.processes(topology)
        return Cell(
            topology=topology,
            dynamic=dynamic,
            rates=rates,
            delay_policy=delay_policy_from_spec(self.delays),
            fault_plan=None if fault_plan.is_empty() else fault_plan,
            processes=processes,
        )

    def simulate(self, *, record_trace: bool = False) -> Execution:
        """Run the cell in the discrete-event simulator."""
        cell = self.build()
        return run_simulation(
            cell.dynamic if cell.dynamic is not None else cell.topology,
            cell.processes,
            SimConfig(
                duration=self.duration, rho=self.rho, seed=self.seed,
                record_trace=record_trace,
            ),
            rate_schedules=cell.rates,
            delay_policy=cell.delay_policy,
            fault_plan=cell.fault_plan,
        )


def cell_metrics(
    scenario: Scenario,
    execution: Execution,
    *,
    transport: str,
    step: float = 1.0,
    settle_threshold: Optional[float] = None,
) -> dict:
    """The metrics row of one executed cell — simulated or live.

    ``transport`` is ``"sim"`` or the live backend's name, so simulator
    rows line up against live rows in merged tables.  Everything
    topology-derived (``n_nodes``, ``diameter``, the default
    ``settle_threshold`` of ``2 * diameter * rho``) is read off
    ``execution.topology`` — the t = 0 network the cell was built for —
    so rows of one cell agree on them whatever ran it.
    """
    topology = execution.topology
    # One trajectory matrix answers every metric below — the batched
    # analysis path; no per-(node, time) clock lookups.
    field = SkewField(execution, step=step)
    skew = field.summary()
    threshold = float(
        2.0 * topology.diameter * scenario.rho
        if settle_threshold is None
        else settle_threshold
    )
    settled = field.settling_time(threshold)
    tail = field.steady_state()
    # Messages that made it onto the wire minus those a crash destroyed
    # at delivery time; link-level losses were never enqueued, so this
    # counts surviving network traffic consistently across fault
    # families (fault-free runs are unaffected: both counters are 0).
    stats = execution.fault_stats or {}
    messages = (
        len(execution.messages)
        - stats.get("lost_receiver_down", 0)
        - stats.get("lost_in_flight", 0)
    )
    return {
        "topology": scenario.topology,
        "algorithm": scenario.algorithm,
        "rates": scenario.rates,
        "delays": scenario.delays,
        "faults": scenario.faults,
        "mobility": scenario.mobility,
        "transport": transport,
        "seed": scenario.seed,
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
        # Change-points the run actually crossed; 0 for static cells.
        "rewirings": (
            0
            if execution.topology_timeline is None
            else len(execution.topology_timeline) - 1
        ),
    }
