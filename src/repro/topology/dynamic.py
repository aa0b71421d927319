"""Dynamic topologies: time-indexed networks for mobility scenarios.

The paper bounds skew between two nodes as a function of their *current*
distance — a claim with real content only when distances change over
time.  A :class:`DynamicTopology` is the executable form of a changing
network: a time-indexed sequence of :class:`~repro.topology.base.Topology`
snapshots with explicit change-points.  The
:class:`~repro.sim.simulator.Simulator` accepts one anywhere a static
topology goes and atomically swaps its distance/adjacency tables at each
change-point (a ``TopologyChange`` event); messages already on the wire
keep travelling under the delay they were assigned at send time.

Three generators cover the scenario axis:

* :func:`random_waypoint` — the classic mobility model (nodes drift
  through a square area toward successive random waypoints, links form
  within a communication radius), sampled into snapshots;
* :func:`link_schedule` — declarative per-edge up/down windows over a
  fixed node placement, the :class:`~repro.sim.faults.LinkFault` window
  idiom lifted from message loss to actual graph rewiring;
* :func:`snapshot_sequence` — hand-authored phase changes.

Determinism contract
--------------------
Generators are pure functions of their arguments (all randomness from
the ``seed``), snapshots are delivered in strictly increasing time
order, and a single-snapshot :class:`DynamicTopology` is **free**: the
simulator schedules no change events at all, so the run stays
byte-identical to the same run on the plain static topology (a
regression + hypothesis test enforce this, mirroring the empty
``FaultPlan`` contract).

Usage::

    >>> from repro.topology import line
    >>> from repro.topology.dynamic import snapshot_sequence
    >>> dyn = snapshot_sequence((0.0, line(4)), (10.0, line(4, comm_radius=2.0)))
    >>> dyn.at(3.0) is dyn.initial
    True
    >>> dyn.at(10.0) is dyn.final
    True
    >>> dyn.change_times
    (10.0,)
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology

__all__ = [
    "DynamicTopology",
    "components",
    "random_waypoint",
    "link_schedule",
    "snapshot_sequence",
]


def _components_of(
    n: int, edges: Iterable[tuple[int, int]]
) -> tuple[tuple[int, ...], ...]:
    """Connected components of an undirected edge set over ``range(n)``."""
    adjacency: dict[int, set[int]] = {node: set() for node in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for start in range(n):
        if start in seen:
            continue
        stack, group = [start], {start}
        while stack:
            for peer in adjacency[stack.pop()]:
                if peer not in group:
                    group.add(peer)
                    stack.append(peer)
        seen |= group
        out.append(tuple(sorted(group)))
    return tuple(sorted(out))


def components(  # repro: allow[DEAD001] examples/mobile_field.py
    topology: Topology,
) -> tuple[tuple[int, ...], ...]:
    """Connected components of the *communication* graph, deterministic.

    Components are sorted internally and by their smallest member, so
    two topologies with the same comm graph report identical component
    structure.  A connected network reports exactly one component.

    >>> from repro.topology import line
    >>> components(line(3))
    ((0, 1, 2),)
    """
    return _components_of(topology.n, topology.comm_edges)


class DynamicTopology:
    """A time-indexed sequence of topology snapshots with change-points.

    Parameters
    ----------
    snapshots:
        ``(time, topology)`` pairs.  The first must be at time ``0.0``
        (an execution always starts on a defined network), times must be
        strictly increasing, and every snapshot must cover the same node
        set (nodes may move and links may rewire; nodes never appear or
        disappear — churn is :mod:`repro.sim.faults`' job).
    name:
        Label used in experiment tables.

    The snapshot active at real time ``t`` is the last one at or before
    ``t`` (:meth:`at`).  A single-snapshot instance behaves exactly like
    its static topology everywhere (see the module docstring's
    determinism contract).
    """

    def __init__(
        self,
        snapshots: Iterable[tuple[float, Topology]],
        *,
        name: str = "dynamic",
    ):
        snaps = [(float(t), topo) for t, topo in snapshots]
        if not snaps:
            raise TopologyError("a dynamic topology needs at least one snapshot")
        if abs(snaps[0][0]) > 1e-12:
            raise TopologyError(
                f"the first snapshot must be at time 0.0, got {snaps[0][0]}"
            )
        snaps[0] = (0.0, snaps[0][1])
        for (t0, _), (t1, _) in zip(snaps, snaps[1:]):
            if t1 <= t0:
                raise TopologyError(
                    f"snapshot times must be strictly increasing, got "
                    f"{t0} then {t1}"
                )
        n = snaps[0][1].n
        for t, topo in snaps:
            if topo.n != n:
                raise TopologyError(
                    f"snapshot at t={t} has {topo.n} nodes, expected {n} "
                    "(the node set is fixed; use fault plans for churn)"
                )
        self.snapshots: tuple[tuple[float, Topology], ...] = tuple(snaps)
        self.name = name
        self._times = [t for t, _ in self.snapshots]

    # ------------------------------------------------------------------
    # queries

    @property
    def n(self) -> int:
        """Node count (identical across snapshots)."""
        return self.snapshots[0][1].n

    @property
    def initial(self) -> Topology:
        """The ``t = 0`` network."""
        return self.snapshots[0][1]

    @property
    def final(self) -> Topology:
        """The network after the last change-point."""
        return self.snapshots[-1][1]

    @property
    def change_times(self) -> tuple[float, ...]:
        """The change-points (snapshot times after 0), strictly increasing."""
        return tuple(self._times[1:])

    def is_static(self) -> bool:
        """True iff there are no change-points (the free, byte-identical case)."""
        return len(self.snapshots) == 1

    def at(self, t: float) -> Topology:
        """The snapshot active at real time ``t`` (last change at or before)."""
        index = bisect.bisect_right(self._times, t) - 1
        return self.snapshots[max(index, 0)][1]

    def segments(self, duration: float) -> list[tuple[float, float, Topology]]:
        """``(t0, t1, topology)`` intervals covering ``[0, duration]``.

        Change-points beyond ``duration`` are dropped; the final segment
        closes at ``duration``.
        """
        if duration <= 0:
            raise TopologyError(f"duration must be positive, got {duration}")
        out = []
        for k, (t0, topo) in enumerate(self.snapshots):
            if t0 > duration:
                break
            t1 = min(
                self._times[k + 1] if k + 1 < len(self._times) else duration,
                duration,
            )
            out.append((t0, t1, topo))
        return out

    def __len__(self) -> int:
        return len(self.snapshots)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<DynamicTopology {self.name!r} n={self.n} "
            f"snapshots={len(self.snapshots)}>"
        )

    @classmethod
    def static(cls, topology: Topology) -> "DynamicTopology":
        """Wrap a static topology (no change-points; free by contract)."""
        return cls(((0.0, topology),), name=topology.name)


def snapshot_sequence(
    *snapshots: tuple[float, Topology], name: str = "phases"
) -> DynamicTopology:
    """Hand-authored phase changes: ``(time, topology)`` pairs in order.

    The thinnest generator — exists so experiments can write
    ``snapshot_sequence((0.0, before), (50.0, after))`` for controlled
    re-convergence studies.  Validation (time 0 start, strictly
    increasing times, fixed node set) is :class:`DynamicTopology`'s.
    Deterministic trivially: no randomness at all.
    """
    return DynamicTopology(snapshots, name=name)


# ----------------------------------------------------------------------
# random-waypoint mobility


def _euclidean_snapshot(
    points: Sequence[tuple[float, float]],
    comm_radius: float,
    *,
    connect: bool,
    name: str,
) -> Topology:
    """One geometric snapshot: clamped-Euclidean distances + radius links.

    Distance is ``max(1, Euclidean separation)`` — the clamp keeps the
    paper's ``min d_ij >= 1`` normalization without rescaling the unit
    per snapshot (rescaling would silently change what "distance 1"
    means over time).  Links connect pairs within ``comm_radius``; with
    ``connect=True`` isolated components are bridged through their
    closest cross pair, so the comm graph is always connected.
    """
    n = len(points)
    xy = np.asarray(points, dtype=float)
    sep = np.hypot(
        xy[:, 0][:, None] - xy[:, 0][None, :],
        xy[:, 1][:, None] - xy[:, 1][None, :],
    )
    d = np.maximum(sep, 1.0)
    np.fill_diagonal(d, 0.0)
    rows, cols = np.nonzero(np.triu(sep <= comm_radius + 1e-9, 1))
    edges = {(int(i), int(j)) for i, j in zip(rows, cols)}
    if connect:
        groups = [set(g) for g in _components_of(n, edges)]
        # Bridge each remaining component into the one holding node 0,
        # closest cross pair first (deterministic tie-break on the node
        # pair itself); components are merged incrementally, no rebuild.
        anchor = groups[0]
        others = groups[1:]
        while others:
            best: tuple[float, int, int] | None = None
            for i in sorted(anchor):
                for group in others:
                    for j in group:
                        cand = (float(d[i, j]), i, j)
                        if best is None or cand < best:
                            best = cand
            assert best is not None
            edges.add((min(best[1], best[2]), max(best[1], best[2])))
            merged = next(g for g in others if best[2] in g)
            others.remove(merged)
            anchor |= merged
    topo = Topology(d, frozenset(edges), name=name, require_unit_min=True)
    topo.positions = {i: (points[i][0], points[i][1]) for i in range(n)}
    return topo


def random_waypoint(
    n: int,
    *,
    area: float | None = None,
    speed: float = 0.5,
    comm_radius: float = 2.5,
    duration: float,
    interval: float = 5.0,
    seed: int = 0,
    connect: bool = True,
) -> DynamicTopology:
    """Random-waypoint mobility sampled into topology snapshots.

    Each node starts at a uniform point in an ``area x area`` square and
    repeatedly picks a uniform waypoint, travelling toward it at
    ``speed`` distance units per real-time unit.  The motion is sampled
    every ``interval`` time units from ``0`` up to (excluding)
    ``duration``; each sample becomes one snapshot with clamped-Euclidean
    distances ``d_ij = max(1, |p_i - p_j|)`` and communication links
    between pairs within ``comm_radius``.

    Connectivity guarantee: with ``connect=True`` (default) every
    snapshot's comm graph is connected — isolated components are bridged
    through their closest cross pair.  With ``connect=False`` the radius
    graph is kept as-is and snapshots may be partitioned; callers read
    the declared partition structure back with :func:`components`.

    Determinism contract: a pure function of its arguments — all
    randomness comes from ``seed``, snapshot times are exactly
    ``0, interval, 2*interval, ...`` (strictly increasing), and repeated
    calls return identical placements, distances, and edge sets.

    >>> dyn = random_waypoint(5, speed=1.0, duration=10.0, interval=4.0, seed=1)
    >>> [t for t, _ in dyn.snapshots]
    [0.0, 4.0, 8.0]
    >>> dyn.n
    5
    """
    if n < 2:
        raise TopologyError("random_waypoint needs at least 2 nodes")
    if duration <= 0:
        raise TopologyError(f"duration must be positive, got {duration}")
    if interval <= 0:
        raise TopologyError(f"interval must be positive, got {interval}")
    if speed < 0:
        raise TopologyError(f"speed must be nonnegative, got {speed}")
    if comm_radius <= 0:
        raise TopologyError(f"comm_radius must be positive, got {comm_radius}")
    side = float(area) if area is not None else max(2.0, math.sqrt(3.0 * n))
    if side <= 0:
        raise TopologyError(f"area must be positive, got {side}")

    rng = random.Random(seed ^ 0x3AB11E)
    positions = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    targets = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]

    times = []
    t = 0.0
    k = 0
    while t < duration - 1e-12:
        times.append(t)
        k += 1
        t = k * interval

    snapshots: list[tuple[float, Topology]] = []
    previous = 0.0
    for t in times:
        budget = (t - previous) * speed
        for node in range(n):
            remaining = budget
            px, py = positions[node]
            tx, ty = targets[node]
            while remaining > 1e-12:
                leg = math.hypot(tx - px, ty - py)
                if leg <= remaining:
                    # Arrive and pick the next waypoint.
                    px, py = tx, ty
                    remaining -= leg
                    tx, ty = rng.uniform(0, side), rng.uniform(0, side)
                else:
                    frac = remaining / leg
                    px += (tx - px) * frac
                    py += (ty - py) * frac
                    remaining = 0.0
            positions[node] = (px, py)
            targets[node] = (tx, ty)
        snapshots.append(
            (
                t,
                _euclidean_snapshot(
                    list(positions),
                    comm_radius,
                    connect=connect,
                    name=f"waypoint({n},seed={seed})@t{t:g}",
                ),
            )
        )
        previous = t
    return DynamicTopology(
        snapshots, name=f"waypoint({n},v={speed:g},seed={seed})"
    )


# ----------------------------------------------------------------------
# declarative link up/down windows


def link_schedule(
    base: Topology,
    down: Mapping[tuple[int, int], Iterable[tuple[float, float]]],
    *,
    name: str | None = None,
) -> DynamicTopology:
    """Declarative per-edge up/down windows over a fixed placement.

    ``down`` maps undirected comm edges of ``base`` to windows
    ``(t0, t1)`` during which the edge is *removed from the
    communication graph* (``0 <= t0 < t1``, the
    :class:`~repro.sim.faults.LinkFault` windowing idiom).  Unlike a
    fault-plan down window — which loses messages on an intact graph —
    this rewires the graph itself: ``NodeAPI.neighbors`` stops listing
    the peer, so algorithms do not even try to talk across a down edge.
    Distances are physical and never change.

    Snapshots are emitted only at instants where the edge set actually
    changes (overlapping windows are unioned), in strictly increasing
    time order.  Deterministic trivially: no randomness at all.
    Connectivity is whatever the windows leave standing — snapshots may
    be partitioned; inspect them with :func:`components`.

    >>> from repro.topology import line
    >>> dyn = link_schedule(line(3), {(0, 1): [(2.0, 4.0)]})
    >>> dyn.change_times
    (2.0, 4.0)
    >>> sorted(dyn.at(3.0).comm_edges)
    [(1, 2)]
    >>> sorted(dyn.at(5.0).comm_edges) == sorted(dyn.initial.comm_edges)
    True
    """
    base_edges = set(base.comm_edges)
    windows: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for edge, spans in down.items():
        a, b = edge
        key = (min(a, b), max(a, b))
        if key not in base_edges:
            raise TopologyError(
                f"link_schedule names edge {edge} absent from {base.name!r}"
            )
        for t0, t1 in spans:
            if not 0.0 <= t0 < t1:
                raise TopologyError(f"down window ({t0}, {t1}) is not ordered")
            windows.setdefault(key, []).append((float(t0), float(t1)))

    boundaries = {0.0}
    for spans in windows.values():
        for t0, t1 in spans:
            boundaries.add(t0)
            boundaries.add(t1)

    def edges_at(t: float) -> frozenset[tuple[int, int]]:
        removed = {
            edge
            for edge, spans in windows.items()
            if any(t0 <= t < t1 for t0, t1 in spans)
        }
        return frozenset(base_edges - removed)

    snapshots: list[tuple[float, Topology]] = []
    last_edges: frozenset[tuple[int, int]] | None = None
    for t in sorted(boundaries):
        edges = edges_at(t)
        if edges == last_edges:
            continue
        snapshots.append(
            (
                t,
                Topology(
                    base.distances,
                    edges,
                    name=f"{base.name}@t{t:g}",
                    require_unit_min=base.require_unit_min,
                    positions=base.positions,
                ),
            )
        )
        last_edges = edges
    return DynamicTopology(
        snapshots, name=name if name is not None else f"{base.name}+links"
    )
