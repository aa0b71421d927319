"""Topology generators.

``line`` is the Theorem 8.1 network (``d_ij = |i - j|``); the rest cover
the paper's motivating settings: sensor grids, fusion trees, RBS broadcast
clusters, and random geometric sensor fields.  Time-varying networks live
in :mod:`repro.topology.dynamic`.

Every generator documents two things:

* its **connectivity guarantee** — whether (and how) the communication
  graph is kept connected;
* its **determinism contract** — all are pure functions of their
  arguments; the only randomness is :func:`random_geometric`'s, drawn
  entirely from its ``seed``.

Usage::

    >>> line(5).diameter
    4.0
    >>> grid(2, 3).n
    6
    >>> ring(6).degree(0)
    2
    >>> random_geometric(8, seed=1).n == random_geometric(8, seed=1).n
    True
"""

from __future__ import annotations

import math
import random

import numpy as np

from repro.errors import TopologyError
from repro.topology.base import Topology

__all__ = [
    "line",
    "ring",
    "grid",
    "complete",
    "star",
    "balanced_tree",
    "random_geometric",
    "broadcast_cluster",
]


def line(n: int, *, comm_radius: float = 1.0) -> Topology:
    """Nodes ``0..n-1`` on a line with ``d_ij = |i - j|`` (Section 8's network).

    Diameter is ``n - 1``.  Communication defaults to adjacent nodes only;
    the model still lets the adversary pick any delay in ``[0, |i - j|]``
    for any pair that chooses to talk.

    Connectivity: connected for every ``comm_radius >= 1`` (the chain of
    unit edges); smaller radii are rejected.  Determinism: pure function
    of ``(n, comm_radius)``.
    """
    if n < 2:
        raise TopologyError("line needs at least 2 nodes")
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    return Topology.with_radius(d, comm_radius, name=f"line({n})")


def ring(n: int, *, comm_radius: float = 1.0) -> Topology:
    """Nodes on a cycle; ``d_ij`` is hop distance around the ring.

    Connectivity: connected for every ``comm_radius >= 1`` (the cycle
    itself).  Determinism: pure function of ``(n, comm_radius)``.
    """
    if n < 3:
        raise TopologyError("ring needs at least 3 nodes")
    idx = np.arange(n)
    diff = np.abs(idx[:, None] - idx[None, :])
    d = np.minimum(diff, n - diff).astype(float)
    return Topology.with_radius(d, comm_radius, name=f"ring({n})")


def grid(rows: int, cols: int, *, comm_radius: float = 1.0) -> Topology:
    """A ``rows x cols`` grid with Manhattan hop distances.

    Connectivity: connected for every ``comm_radius >= 1`` (the lattice
    edges).  Determinism: pure function of ``(rows, cols, comm_radius)``.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise TopologyError("grid needs at least 2 nodes")
    r, c = np.divmod(np.arange(rows * cols), cols)
    # Integer Manhattan distances in one broadcast: exact, then cast.
    d = (np.abs(r[:, None] - r) + np.abs(c[:, None] - c)).astype(float)
    topo = Topology.with_radius(d, comm_radius, name=f"grid({rows}x{cols})")
    topo.positions = {i: (float(i % cols), float(i // cols)) for i in topo.nodes}
    return topo


def complete(n: int, *, distance: float = 1.0) -> Topology:
    """All pairs at the same distance (Lundelius-Welch & Lynch's setting).

    Connectivity: complete, trivially.  Determinism: pure function of
    ``(n, distance)``.
    """
    if n < 2:
        raise TopologyError("complete graph needs at least 2 nodes")
    d = np.full((n, n), float(distance))
    np.fill_diagonal(d, 0.0)
    return Topology.fully_connected(d, name=f"complete({n})")


def star(n_leaves: int, *, arm: float = 1.0) -> Topology:
    """A hub (node 0) with ``n_leaves`` leaves at distance ``arm``.

    Connectivity: connected through the hub (communication radius equals
    the arm, so leaves talk only to the hub).  Determinism: pure
    function of ``(n_leaves, arm)``.
    """
    if n_leaves < 1:
        raise TopologyError("star needs at least one leaf")
    n = n_leaves + 1
    d = np.full((n, n), 2.0 * arm)
    d[0, :] = arm
    d[:, 0] = arm
    np.fill_diagonal(d, 0.0)
    return Topology.with_radius(d, arm, name=f"star({n_leaves})")


def balanced_tree(branching: int, height: int) -> Topology:
    """A balanced tree with unit edges; distances are tree-path lengths.

    The data-fusion communication tree of the introduction: leaves send to
    parents, parents fuse and forward.

    Connectivity: connected (the tree edges).  Determinism: pure
    function of ``(branching, height)``.
    """
    if branching < 2 or height < 1:
        raise TopologyError("tree needs branching >= 2 and height >= 1")
    # Heap numbering: root 0, levels left to right, node i's parent is
    # (i - 1) // b.  Path length is depth(i) + depth(j) - 2 depth(lca),
    # and the lca depth counts the levels k >= 1 at which i and j have
    # the same ancestor.
    n = (branching ** (height + 1) - 1) // (branching - 1)
    depth = np.zeros(n, dtype=np.int64)
    for k in range(1, height + 1):
        depth[(branching**k - 1) // (branching - 1):] += 1
    ancestor, level = np.arange(n), depth.copy()
    lca = np.zeros((n, n), dtype=np.int64)
    for k in range(height, 0, -1):
        deeper = level > k
        ancestor[deeper] = (ancestor[deeper] - 1) // branching
        level[deeper] -= 1
        # A node above level k has no ancestor there (key -1).
        key = np.where(depth >= k, ancestor, -1)
        lca += (key[:, None] == key) & (key >= 0)
    d = (depth[:, None] + depth - 2 * lca).astype(float)
    return Topology.with_radius(d, 1.0, name=f"tree(b={branching},h={height})")


def random_geometric(
    n: int,
    *,
    comm_radius_factor: float = 2.0,
    seed: int = 0,
    side: float | None = None,
) -> Topology:
    """A random sensor field: uniform points, distance = scaled Euclidean.

    Euclidean separation is scaled so the closest pair sits at distance 1
    (the paper's normalization); communication links pairs within
    ``comm_radius_factor`` of the minimum.  The introduction's footnote 2
    motivates exactly this correspondence between Euclidean distance and
    delay uncertainty.

    Connectivity: the radius is widened to every node's nearest neighbor
    so no node is isolated; the graph as a whole may still split into
    several components for sparse fields (use
    :func:`repro.topology.dynamic.components` to inspect).
    Determinism: all randomness comes from ``seed``; identical arguments
    give identical fields.  The ``n (n - 1) / 2`` pair distances are
    built in array passes, each still ``math.hypot`` of the two
    coordinate differences, so the matrix is bitwise the one a per-pair
    loop builds.
    """
    if n < 2:
        raise TopologyError("need at least 2 nodes")
    rng = random.Random(seed)
    side = side if side is not None else math.sqrt(n)
    pts = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]
    # ``math.hypot``, not ``np.hypot``: the two may differ in the last bit.
    xy = np.array(pts)
    upper, lower = np.triu_indices(n, 1)
    diff = xy[upper] - xy[lower]
    dist = np.fromiter(
        map(math.hypot, diff[:, 0].tolist(), diff[:, 1].tolist()),
        dtype=float,
        count=upper.size,
    )
    d = np.zeros((n, n))
    d[upper, lower] = dist
    d[lower, upper] = dist
    scale = dist.min()
    if scale <= 0:
        raise TopologyError("duplicate points; use another seed")
    d /= scale
    # Radius must at least reach every node's nearest neighbor, or the
    # communication graph would leave isolated nodes.
    nearest = np.where(np.eye(n, dtype=bool), np.inf, d).min(axis=1)
    radius = max(comm_radius_factor, float(nearest.max()))
    topo = Topology.with_radius(
        d, radius, name=f"geometric({n},seed={seed})"
    )
    topo.positions = {
        i: (pts[i][0] / scale, pts[i][1] / scale) for i in range(n)
    }
    return topo


def broadcast_cluster(n: int, *, uncertainty: float = 0.01) -> Topology:
    """An RBS-style radio cluster: every pair at tiny delay uncertainty.

    Deliberately breaks the ``min d_ij = 1`` normalization — the whole
    point of RBS (Elson et al.) is uncertainty close to zero.  The paper's
    bound still applies but is small because the diameter is small.

    Connectivity: complete, trivially.  Determinism: pure function of
    ``(n, uncertainty)``.
    """
    if n < 2:
        raise TopologyError("cluster needs at least 2 nodes")
    d = np.full((n, n), float(uncertainty))
    np.fill_diagonal(d, 0.0)
    return Topology.fully_connected(
        d, name=f"rbs-cluster({n})", require_unit_min=False
    )
