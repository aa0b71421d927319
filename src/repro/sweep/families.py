"""Named scenario families: compact strings -> simulator ingredients.

A sweep job must be (a) picklable, so it can cross a process boundary,
and (b) canonically hashable, so identical jobs share a cache entry.
Live objects (``Topology``, ``SyncAlgorithm``, delay policies) are
neither, so sweep grids are declared with compact *spec strings* --
``"line:9"``, ``"max-based:0.5"``, ``"uniform:0.25,0.75"`` -- and this
module owns the registries that turn those strings back into objects
inside whichever process runs the job.

The rate-family helpers (:func:`drifted_rates`, :func:`spread_rates`,
:func:`wandering_rates`) live here too.
"""

from __future__ import annotations

import random
import zlib
from typing import Callable, Dict, Iterable, NamedTuple, Optional

import numpy as np

from repro._constants import DEFAULT_RHO
from repro.algorithms import (
    AveragingAlgorithm,
    BoundedCatchUpAlgorithm,
    ExternalSyncAlgorithm,
    MaxBasedAlgorithm,
    NullAlgorithm,
    RBSAlgorithm,
    SlewingMaxAlgorithm,
    SrikanthTouegAlgorithm,
    SyncAlgorithm,
)
from repro.errors import FaultError, SweepError, TopologyError
from repro.sim.faults import FaultPlan
from repro.sim.messages import (
    DelayPolicy,
    FixedFractionDelay,
    HalfDistanceDelay,
    JitterDelay,
    UniformRandomDelay,
)
from repro.sim.rates import PiecewiseConstantRate, random_walk_schedule
from repro.topology import generators
from repro.topology.base import Topology
from repro.topology.dynamic import (
    DynamicTopology,
    link_schedule,
    random_waypoint,
    snapshot_sequence,
)

__all__ = [
    "drifted_rates",
    "spread_rates",
    "wandering_rates",
    "topology_from_spec",
    "algorithm_from_spec",
    "rates_from_spec",
    "delay_policy_from_spec",
    "fault_plan_from_spec",
    "mobility_from_spec",
    "TOPOLOGY_KINDS",
    "ALGORITHM_KINDS",
    "RATE_FAMILIES",
    "DELAY_POLICIES",
    "FAULT_FAMILIES",
    "MOBILITY_FAMILIES",
    "TRANSPORT_FAMILIES",
    "TransportFamily",
    "forking_transports",
]


# ----------------------------------------------------------------------
# rate families


def drifted_rates(
    topology: Topology, *, rho: float = DEFAULT_RHO, seed: int = 0
) -> dict[int, PiecewiseConstantRate]:
    """Seeded random constant rates inside the drift band — a benign but
    heterogeneous network (every real deployment looks like this)."""
    rng = random.Random(seed ^ 0xD81F7)
    return {
        node: PiecewiseConstantRate.constant(rng.uniform(1.0 - rho, 1.0 + rho))
        for node in topology.nodes
    }


def wandering_rates(
    topology: Topology,
    *,
    rho: float = DEFAULT_RHO,
    horizon: float,
    interval: float = 5.0,
    seed: int = 0,
) -> dict[int, PiecewiseConstantRate]:
    """Time-varying drift: each node's rate random-walks inside the band.

    The most realistic benign setting — oscillators wander with
    temperature — while staying within Assumption 1.
    """
    return {
        node: random_walk_schedule(
            rho=rho,
            horizon=horizon,
            interval=interval,
            seed=(seed * 7919) ^ node,
        )
        for node in topology.nodes
    }


def spread_rates(
    topology: Topology, *, rho: float = DEFAULT_RHO
) -> dict[int, PiecewiseConstantRate]:
    """Deterministic linear spread of rates across node indices.

    Node 0 runs slowest (``1 - rho``), the last node fastest
    (``1 + rho``) — the worst benign arrangement for a line network.
    """
    n = topology.n
    return {
        node: PiecewiseConstantRate.constant(
            1.0 - rho + 2.0 * rho * (node / max(n - 1, 1))
        )
        for node in topology.nodes
    }


# ----------------------------------------------------------------------
# spec-string parsing


def _split(spec: str) -> tuple[str, list[str]]:
    head, _, tail = spec.partition(":")
    return head.strip(), [p for p in tail.split(",") if p] if tail else []


def _from_spec(kinds: Dict[str, Callable], what: str, spec: str, *context):
    """Split ``spec``, float its arguments and call its builder after
    ``context``; every failure is a :class:`SweepError` naming the spec
    (surplus arguments included — a builder's arity is its grammar)."""
    name, args = _split(spec)
    if name not in kinds:
        raise SweepError(f"unknown {what} {spec!r}; known: {sorted(kinds)}")
    try:
        return kinds[name](*context, *(float(a) for a in args))
    except (TypeError, ValueError, FaultError, TopologyError) as exc:
        raise SweepError(f"{spec!r}: bad arguments ({exc})") from exc


def _int_args(spec: str, args: list[str], count: int) -> list[int]:
    if len(args) != count:
        raise SweepError(f"{spec!r} needs {count} integer argument(s)")
    try:
        return [int(a) for a in args]
    except ValueError as exc:
        raise SweepError(f"{spec!r}: non-integer argument") from exc


#: kind -> builder(args) for topology spec strings such as ``line:9``,
#: ``grid:3,4``, ``tree:2,3`` (branching, height), ``geometric:16,7``
#: (n, seed).
TOPOLOGY_KINDS: Dict[str, Callable[..., Topology]] = {
    "line": lambda n: generators.line(n),
    "ring": lambda n: generators.ring(n),
    "grid": lambda rows, cols: generators.grid(rows, cols),
    "complete": lambda n: generators.complete(n),
    "star": lambda n_leaves: generators.star(n_leaves),
    "tree": lambda branching, height: generators.balanced_tree(branching, height),
    "geometric": lambda n, seed=0: generators.random_geometric(n, seed=seed),
    "cluster": lambda n: generators.broadcast_cluster(n),
}

_TOPOLOGY_ARITY = {
    "line": (1, 1),
    "ring": (1, 1),
    "grid": (2, 2),
    "complete": (1, 1),
    "star": (1, 1),
    "tree": (2, 2),
    "geometric": (1, 2),
    "cluster": (1, 1),
}


def topology_from_spec(spec: str) -> Topology:
    """Build a topology from a compact spec string, e.g. ``"grid:3,4"``."""
    kind, args = _split(spec)
    if kind not in TOPOLOGY_KINDS:
        raise SweepError(
            f"unknown topology {spec!r}; kinds: {sorted(TOPOLOGY_KINDS)}"
        )
    lo, hi = _TOPOLOGY_ARITY[kind]
    if not lo <= len(args) <= hi:
        raise SweepError(f"{spec!r}: expected {lo}..{hi} arguments")
    values = _int_args(spec, args, len(args)) if args else []
    try:
        return TOPOLOGY_KINDS[kind](*values)
    except TypeError as exc:
        raise SweepError(f"{spec!r}: bad arguments ({exc})") from exc


def _bounded_catch_up(period=1.0, kappa=2.0, mu=1.0):
    return BoundedCatchUpAlgorithm(period=period, kappa=kappa, mu=mu)


#: name -> builder(*numeric args) for algorithm spec strings.  Every
#: argument is optional and positional, ``period`` (hardware-time units)
#: first: ``max-based:0.5``, ``slewing-max:0.5,1`` (period, sigma),
#: ``bounded-catch-up:0.5,0.5,1`` (period, kappa, mu).
ALGORITHM_KINDS: Dict[str, Callable[..., SyncAlgorithm]] = {
    "max-based": lambda period=1.0: MaxBasedAlgorithm(period=period),
    "srikanth-toueg": lambda: SrikanthTouegAlgorithm(),
    "averaging": lambda period=1.0: AveragingAlgorithm(period=period),
    "bounded-catch-up": _bounded_catch_up,
    # The Section 9 gradient candidate under the name everyone reaches
    # for first (``repro-live --alg gradient``).
    "gradient": _bounded_catch_up,
    "slewing-max": lambda period=1.0, sigma=1.0: SlewingMaxAlgorithm(
        period=period, sigma=sigma
    ),
    "external": lambda period=1.0: ExternalSyncAlgorithm(period=period),
    # Node 0 is the beacon; meant for ``cluster:n`` topologies.
    "rbs": lambda period=1.0: RBSAlgorithm(period=period),
    "null": lambda: NullAlgorithm(),
}


def algorithm_from_spec(spec: str) -> SyncAlgorithm:
    """Build an algorithm from a spec string, e.g. ``"averaging:0.5"``."""
    return _from_spec(ALGORITHM_KINDS, "algorithm", spec)


#: family -> builder(topology, rho, seed, horizon) for per-node rate
#: schedules.  ``constant`` is the quiet baseline; the rest come from the
#: benign-adversary families above.
RATE_FAMILIES: Dict[str, Callable[..., dict[int, PiecewiseConstantRate]]] = {
    "constant": lambda topology, rho, seed, horizon: {
        node: PiecewiseConstantRate.constant(1.0) for node in topology.nodes
    },
    "drifted": lambda topology, rho, seed, horizon: drifted_rates(
        topology, rho=rho, seed=seed
    ),
    "spread": lambda topology, rho, seed, horizon: spread_rates(topology, rho=rho),
    "wandering": lambda topology, rho, seed, horizon: wandering_rates(
        topology, rho=rho, horizon=horizon, seed=seed
    ),
}


def rates_from_spec(
    spec: str, topology: Topology, *, rho: float, seed: int, horizon: float
) -> dict[int, PiecewiseConstantRate]:
    """Instantiate a rate family for one topology, e.g. ``"wandering"``."""
    name, args = _split(spec)
    if name not in RATE_FAMILIES or args:
        raise SweepError(
            f"unknown rate family {spec!r}; families: {sorted(RATE_FAMILIES)}"
        )
    return RATE_FAMILIES[name](topology, rho, seed, horizon)


#: name -> builder(args) for delay-policy spec strings: ``half``,
#: ``uniform`` / ``uniform:0.25,0.75``, ``fraction:0.3``, ``jitter``.
DELAY_POLICIES: Dict[str, Callable[..., DelayPolicy]] = {
    "half": lambda: HalfDistanceDelay(),
    "uniform": lambda lo=0.0, hi=1.0: UniformRandomDelay(lo_frac=lo, hi_frac=hi),
    "fraction": lambda f: FixedFractionDelay(f),
    "jitter": lambda frac=1.0: JitterDelay(jitter_frac=frac),
}


def delay_policy_from_spec(spec: str) -> DelayPolicy:
    """Build a delay policy from a spec string, e.g. ``"uniform:0.25,0.75"``."""
    return _from_spec(DELAY_POLICIES, "delay policy", spec)


# ----------------------------------------------------------------------
# fault families (the robustness axis; see repro.sim.faults)


def _crash_plan(
    topology: Topology,
    seed: int,
    horizon: float,
    fraction: float,
    downtime: float | None,
) -> FaultPlan:
    """Crash ``fraction`` of the nodes at staggered times mid-run.

    At least one node crashes, at least one survives.  With ``downtime``
    the crashes are crash-recovery windows; without, crash-stop.
    """
    if not 0.0 < fraction < 1.0:
        raise SweepError(f"crash fraction must be in (0, 1), got {fraction}")
    if downtime is not None and downtime <= 0.0:
        raise SweepError(f"crash downtime must be positive, got {downtime}")
    nodes = sorted(topology.nodes)
    count = min(max(1, round(fraction * len(nodes))), len(nodes) - 1)
    rng = random.Random((seed * 0x9E3779B1) ^ 0xC4A5)
    plan = FaultPlan()
    for node in sorted(rng.sample(nodes, count)):
        at = rng.uniform(0.2 * horizon, 0.6 * horizon)
        recover_at = None if downtime is None else min(at + downtime, horizon)
        plan = plan.with_crash(node, at, recover_at=recover_at)
    return plan


def _churn_plan(
    topology: Topology, seed: int, horizon: float, fraction: float, mean: float
) -> FaultPlan:
    """Random link up/down churn: each undirected link is down for
    windows of mean length ``mean`` covering ~``fraction`` of the run."""
    if not 0.0 < fraction < 1.0:
        raise SweepError(f"churn fraction must be in (0, 1), got {fraction}")
    if mean <= 0.0:
        raise SweepError(f"churn window length must be positive, got {mean}")
    rng = random.Random((seed * 0x9E3779B1) ^ 0xC0AB)
    cycle = mean / fraction
    plan = FaultPlan()
    for a, b in topology.adjacent_pairs():
        windows = []
        t = rng.uniform(0.0, cycle)
        while t < horizon:
            end = min(t + mean, horizon)
            if end > t:
                windows.append((t, end))
            t = end + rng.uniform(0.5, 1.5) * (cycle - mean)
        if windows:
            plan = plan.with_link_down(a, b, *windows)
    return plan


#: family -> builder(topology, seed, horizon, *numeric args) for fault
#: plans: ``none``, ``loss:p``, ``duplicate:p``, ``reorder:p``,
#: ``crash:frac`` (crash-stop), ``crash-recover:frac,downtime``,
#: ``churn:frac,window``.
FAULT_FAMILIES: Dict[str, Callable[..., FaultPlan]] = {
    "none": lambda topology, seed, horizon: FaultPlan(),
    "loss": lambda topology, seed, horizon, p: FaultPlan().with_link(loss=p),
    "duplicate": lambda topology, seed, horizon, p: FaultPlan().with_link(
        duplicate=p
    ),
    "reorder": lambda topology, seed, horizon, p: FaultPlan().with_link(
        reorder=p
    ),
    "crash": lambda topology, seed, horizon, frac: _crash_plan(
        topology, seed, horizon, frac, None
    ),
    "crash-recover": lambda topology, seed, horizon, frac, downtime: _crash_plan(
        topology, seed, horizon, frac, downtime
    ),
    "churn": lambda topology, seed, horizon, frac, mean=5.0: _churn_plan(
        topology, seed, horizon, frac, mean
    ),
}


# ----------------------------------------------------------------------
# mobility families (the dynamic-topology axis; see repro.topology.dynamic)


def _waypoint_mobility(
    topology: Topology,
    seed: int,
    horizon: float,
    speed: float = 0.5,
    interval: float = 5.0,
) -> DynamicTopology:
    """Random-waypoint mobility over the cell topology's *node count*.

    Mobility generates its own geometry: the cell's topology donates
    only ``n`` (its distances describe a frozen placement, which is
    exactly what this axis replaces).  Area and communication radius
    follow :func:`repro.topology.dynamic.random_waypoint` defaults, so
    density stays comparable across node counts; every snapshot is
    connected (the generator's bridging guarantee).  Argument validation
    is the generator's; :func:`mobility_from_spec` converts its
    :class:`~repro.errors.TopologyError` into a spec-labelled
    :class:`~repro.errors.SweepError`.
    """
    return random_waypoint(
        topology.n,
        speed=speed,
        duration=horizon,
        interval=interval,
        seed=(seed * 0x9E3779B1) ^ 0x30B1,
    )


def _blink_mobility(
    topology: Topology,
    seed: int,
    horizon: float,
    frac: float = 0.3,
    period: float = 8.0,
) -> DynamicTopology:
    """Periodic link blinking on the cell topology itself.

    Every ``period``, a seeded sample of ``frac`` of the comm edges is
    removed from the communication graph for the first half of the
    cycle (distances never change — this is graph rewiring, not message
    loss).  The :func:`link_schedule` window idiom; snapshots may be
    partitioned while edges are down.
    """
    if not 0.0 < frac < 1.0:
        raise SweepError(f"blink fraction must be in (0, 1), got {frac}")
    if period <= 0.0:
        raise SweepError(f"blink period must be positive, got {period}")
    edges = topology.comm_pairs()
    if len(edges) < 2:
        # The clamp below always leaves at least one edge standing;
        # with a single edge that would mean blinking nothing at all.
        raise SweepError(
            f"blink needs a topology with at least 2 comm edges, "
            f"{topology.name!r} has {len(edges)}"
        )
    count = min(max(1, round(frac * len(edges))), len(edges) - 1)
    rng = random.Random((seed * 0x9E3779B1) ^ 0xB11C)
    down: dict[tuple[int, int], list[tuple[float, float]]] = {}
    t = 0.0
    while t < horizon:
        for edge in sorted(rng.sample(edges, count)):
            down.setdefault(edge, []).append((t, min(t + period / 2.0, horizon)))
        t += period
    return link_schedule(topology, down, name=f"{topology.name}+blink")


def _interleave_mobility(
    topology: Topology, seed: int, horizon: float, at_frac: float = 0.5
) -> DynamicTopology:
    """One all-at-once rewiring of the cell topology at ``at_frac * horizon``.

    The even nodes take the first places and the odd nodes the rest:
    every node keeps its identity and the network keeps its shape, but
    nearly every neighborhood re-forms at once — on a line, the worst
    single rewiring it can suffer.
    """
    if not 0.0 < at_frac < 1.0:
        raise SweepError(f"interleave fraction must be in (0, 1), got {at_frac}")
    order = [*range(0, topology.n, 2), *range(1, topology.n, 2)]
    place = np.argsort(order)  # place[node]: where the node now stands
    after = Topology(
        topology.distances[np.ix_(place, place)],
        frozenset(
            (min(order[a], order[b]), max(order[a], order[b]))
            for a, b in topology.comm_edges
        ),
        name=f"{topology.name}+interleaved",
        require_unit_min=topology.require_unit_min,
    )
    return snapshot_sequence(
        (0.0, topology),
        (at_frac * horizon, after),
        name=f"{topology.name}+interleave",
    )


#: family -> builder(topology, seed, horizon, *numeric args) for dynamic
#: topologies: ``static`` (no mobility — the free, byte-identical path),
#: ``waypoint:speed[,interval]``, ``blink:frac[,period]``,
#: ``interleave[:at_frac]``.
MOBILITY_FAMILIES: Dict[str, Callable[..., Optional[DynamicTopology]]] = {
    "static": lambda topology, seed, horizon: None,
    "waypoint": _waypoint_mobility,
    "blink": _blink_mobility,
    "interleave": _interleave_mobility,
}


def mobility_from_spec(
    spec: str, topology: Topology, *, seed: int, horizon: float
) -> Optional[DynamicTopology]:
    """Instantiate a mobility family for one run, e.g. ``"waypoint:0.5"``.

    Returns ``None`` for ``"static"`` — the caller passes the plain
    topology through, keeping the fault-free/static fast path (and its
    byte-identity contract) untouched.  Deterministic: the dynamic
    topology is a pure function of ``(spec, topology, seed, horizon)``.
    """
    return _from_spec(
        MOBILITY_FAMILIES, "mobility family", spec, topology, seed, horizon
    )


def fault_plan_from_spec(
    spec: str, topology: Topology, *, seed: int, horizon: float
) -> FaultPlan:
    """Instantiate a fault family for one run, e.g. ``"crash-recover:0.25,5"``.

    The plan is salted with a hash of the spec string so distinct
    families draw distinct fault-RNG streams under the same seed.
    """
    plan = _from_spec(
        FAULT_FAMILIES, "fault family", spec, topology, seed, horizon
    )
    try:
        plan.validate(topology)
    except FaultError as exc:
        raise SweepError(f"{spec!r}: {exc}") from exc
    if plan.is_empty():
        return plan
    return FaultPlan(
        crashes=plan.crashes,
        links=plan.links,
        seed_salt=zlib.crc32(spec.encode()),
    )


# ----------------------------------------------------------------------
# transport families (the live-backend axis; see repro.rt)


class TransportFamily(NamedTuple):
    """What a live transport can do, as the layers above need to know it."""

    #: Spawns OS processes per run — impossible from daemonic pool
    #: workers: ``run_jobs`` keeps such cells off its pool, the daemon
    #: rejects them (both through :func:`forking_transports`).
    forks: bool


#: live transport name -> capabilities, in CLI/table order.  Pure data:
#: the loops behind the names live in :mod:`repro.rt`, which this module
#: must not import.  ``"sim"`` (the simulator) is not a live transport
#: and is not listed.
TRANSPORT_FAMILIES: Dict[str, TransportFamily] = {
    "virtual": TransportFamily(forks=False),
    "asyncio": TransportFamily(forks=False),
    "udp": TransportFamily(forks=True),
    "router": TransportFamily(forks=True),
}


def forking_transports(transports: Iterable[Optional[str]]) -> list[str]:
    """The names among ``transports`` whose cells fork processes, sorted."""
    return sorted(
        name
        for name in set(transports)
        if name in TRANSPORT_FAMILIES and TRANSPORT_FAMILIES[name].forks
    )
