"""Declarative sweep grids.

A :class:`SweepSpec` names *families* of scenarios — topologies,
algorithms, rate schedules, delay policies, fault families, mobility
families, transports, seeds — as compact spec strings (see
:mod:`repro.sweep.families`).  ``spec.jobs()`` expands the cartesian
product into independent jobs in a fixed, deterministic order; the
runner may execute them in any order on any number of workers without
changing a single metric.

Usage::

    >>> spec = SweepSpec(topologies=("line:5", "ring:6"),
    ...                  algorithms=("max-based",),
    ...                  mobilities=("static", "waypoint:0.5"),
    ...                  seeds=(0, 1), duration=10.0)
    >>> spec.size
    8
    >>> jobs = spec.jobs()
    >>> [jobs[0].params[k] for k in ("topology", "mobility", "seed")]
    ['line:5', 'static', 0]
    >>> jobs == spec.jobs()   # deterministic expansion
    True
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Sequence

from repro._constants import DEFAULT_RHO
from repro.errors import SweepError
from repro.sweep.families import (
    RATE_FAMILIES,
    TRANSPORT_FAMILIES,
    algorithm_from_spec,
    delay_policy_from_spec,
    fault_plan_from_spec,
    mobility_from_spec,
    topology_from_spec,
)
from repro.sweep.jobs import Job
from repro.sweep.scenario import Scenario

__all__ = ["SweepSpec", "quick_spec", "full_spec"]


@dataclass(frozen=True)
class SweepSpec:
    """A grid of benign scenarios: the cartesian product of its axes.

    The ``transports`` axis selects the execution engine per cell:
    ``"sim"`` (the discrete-event simulator, a ``benign-run`` job) or a
    live backend from :data:`repro.sweep.families.TRANSPORT_FAMILIES`
    (``"virtual"``, ``"asyncio"``, ``"udp"``, ``"router"`` — a
    ``live-run`` job).  Every engine runs every cell, so the fault and
    mobility axes cross the transport axis freely; ``"virtual"`` cells
    reproduce their ``"sim"`` twins exactly.

    The ``mobilities`` axis selects the dynamic-topology family per cell
    (:data:`repro.sweep.families.MOBILITY_FAMILIES`): ``"static"`` runs
    the cell topology as-is, ``"waypoint:speed[,interval]"`` replaces it
    with random-waypoint mobility over the same node count, and
    ``"blink:frac[,period]"`` blinks a fraction of its comm edges.
    """

    topologies: Sequence[str] = ("line:9",)
    algorithms: Sequence[str] = ("max-based",)
    rate_families: Sequence[str] = ("drifted",)
    delay_policies: Sequence[str] = ("uniform",)
    fault_families: Sequence[str] = ("none",)
    mobilities: Sequence[str] = ("static",)
    transports: Sequence[str] = ("sim",)
    seeds: Sequence[int] = (0,)
    duration: float = 30.0
    rho: float = DEFAULT_RHO
    step: float = 1.0
    #: Wall seconds per simulation unit for wall-clock live transports.
    time_scale: float = 0.05
    name: str = "sweep"

    def __post_init__(self) -> None:
        for axis in ("topologies", "algorithms", "rate_families",
                     "delay_policies", "fault_families", "mobilities",
                     "transports", "seeds"):
            if not getattr(self, axis):
                raise SweepError(f"spec axis {axis!r} must be non-empty")
        if self.duration <= 0:
            raise SweepError(f"duration must be positive, got {self.duration}")

    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Fail fast on unknown family names, before any forking."""
        for spec in self.topologies:
            topology_from_spec(spec)
        for spec in self.algorithms:
            algorithm_from_spec(spec)
        for spec in self.delay_policies:
            delay_policy_from_spec(spec)
        for spec in self.fault_families:
            # Probe-build against a small topology so arity and value
            # errors fail here, not inside a worker mid-sweep.
            fault_plan_from_spec(
                spec, topology_from_spec("line:3"), seed=0, horizon=1.0
            )
        for spec in self.mobilities:
            mobility_from_spec(
                spec, topology_from_spec("line:3"), seed=0, horizon=1.0
            )
        for spec in self.rate_families:
            if spec not in RATE_FAMILIES:
                raise SweepError(
                    f"unknown rate family {spec!r}; families: "
                    f"{sorted(RATE_FAMILIES)}"
                )
        for spec in self.transports:
            if spec != "sim" and spec not in TRANSPORT_FAMILIES:
                raise SweepError(
                    f"unknown transport {spec!r}; backends: ['sim', "
                    f"{', '.join(repr(t) for t in TRANSPORT_FAMILIES)}]"
                )

    @property
    def size(self) -> int:
        return (
            len(self.topologies)
            * len(self.algorithms)
            * len(self.rate_families)
            * len(self.delay_policies)
            * len(self.fault_families)
            * len(self.mobilities)
            * len(self.transports)
            * len(self.seeds)
        )

    def jobs(self) -> list[Job]:
        """Expand the grid into jobs, in deterministic order.

        ``"sim"`` cells become ``benign-run`` jobs; the transport axis
        itself never perturbs sim-cell params (only ``mobility`` is
        carried, with ``"static"`` for non-mobile cells), so within one
        ``CACHE_VERSION`` a sim-only grid shares cache entries with any
        spec naming the same cells.  Live transport cells become
        ``live-run`` jobs handled by :mod:`repro.rt.jobs`.
        """
        self.validate()
        jobs = []
        for topology, algorithm, rates, delays, faults, mobility, transport, seed in (
            itertools.product(
                self.topologies,
                self.algorithms,
                self.rate_families,
                self.delay_policies,
                self.fault_families,
                self.mobilities,
                self.transports,
                self.seeds,
            )
        ):
            params = Scenario(
                topology=topology,
                algorithm=algorithm,
                rates=rates,
                delays=delays,
                faults=faults,
                mobility=mobility,
                duration=self.duration,
                rho=self.rho,
                seed=int(seed),
            ).params()
            params["step"] = self.step
            if transport == "sim":
                jobs.append(Job(kind="benign-run", params=params))
            else:
                params["transport"] = transport
                params["time_scale"] = self.time_scale
                jobs.append(
                    Job(kind="live-run", params=params, module="repro.rt.jobs")
                )
        return jobs

    # ------------------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        coerced = dict(payload)
        # Retired field: manifests on disk and older clients still send
        # it.  Both values it ever took named byte-identical loops, so
        # dropping it changes no result, and "scalar" (the old default,
        # never emitted into job params) keeps every job hash too.
        if coerced.get("engine") in ("scalar", "batched"):
            del coerced["engine"]
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        extra = set(coerced) - known
        if extra:
            raise SweepError(f"unknown SweepSpec fields: {sorted(extra)}")
        for axis in ("topologies", "algorithms", "rate_families",
                     "delay_policies", "fault_families", "mobilities",
                     "transports", "seeds"):
            if axis in coerced:
                coerced[axis] = tuple(coerced[axis])
        return cls(**coerced)


def quick_spec(*, seeds: int = 2) -> SweepSpec:
    """A small multi-axis grid that finishes in seconds — CI material."""
    return SweepSpec(
        name="quick",
        topologies=("line:7", "ring:8", "grid:3,3"),
        algorithms=("max-based", "bounded-catch-up"),
        rate_families=("drifted", "spread"),
        delay_policies=("uniform",),
        seeds=tuple(range(seeds)),
        duration=20.0,
        rho=0.2,
        step=1.0,
    )


def full_spec(*, seeds: int = 5) -> SweepSpec:
    """The writeup-scale grid: every family axis exercised."""
    return SweepSpec(
        name="full",
        topologies=("line:17", "ring:16", "grid:4,4", "tree:2,3", "geometric:16,3"),
        algorithms=(
            "max-based",
            "srikanth-toueg",
            "averaging",
            "bounded-catch-up",
            "slewing-max",
        ),
        rate_families=("constant", "drifted", "spread", "wandering"),
        delay_policies=("half", "uniform"),
        fault_families=("none", "loss:0.15", "crash-recover:0.25,8"),
        mobilities=("static", "waypoint:0.5"),
        seeds=tuple(range(seeds)),
        duration=60.0,
        rho=0.2,
        step=1.0,
    )
