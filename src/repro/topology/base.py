"""Network topologies for the paper's distance model.

The *distance* ``d_ij`` between two nodes is the uncertainty in their
message delay (Section 3), with the normalization ``min_ij d_ij = 1`` and
diameter ``D = max_ij d_ij``.  A :class:`Topology` packages the distance
matrix with a *communication graph*: the model lets every pair exchange
messages, but realistic algorithms gossip only with nearby nodes, so each
topology also designates which pairs the algorithms actually use.

Determinism contract: a ``Topology`` is a pure value — every query
(:meth:`Topology.neighbors`, :meth:`Topology.adjacent_pairs`,
:meth:`Topology.comm_pairs`) returns sorted, repeatable results, so two
simulations over equal topologies observe identical neighbor orders.

Usage::

    >>> import numpy as np
    >>> topo = Topology.fully_connected(
    ...     np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
    ...     name="demo")
    >>> topo.diameter, topo.min_distance
    (2.0, 1.0)
    >>> topo.neighbors(0)
    [1, 2]
    >>> topo.adjacent_pairs()
    [(0, 1), (1, 2)]
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import TopologyError

__all__ = ["Topology"]


def _upper_pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """The ``(i, j)``, ``i < j``, where ``mask`` holds: row-major tuples
    of Python ints, in one array pass instead of an ``O(n^2)`` loop."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class Topology:
    """A set of nodes with pairwise delay-uncertainty distances.

    Parameters
    ----------
    distances:
        Symmetric ``n x n`` matrix of delay uncertainties; diagonal zero.
    comm_edges:
        The pairs that exchange messages (undirected).  Defaults to all
        pairs at distance ``<= comm_radius`` when built via
        :meth:`with_radius`, or all pairs for :meth:`fully_connected`.
    name:
        Human-readable label used in experiment tables.
    require_unit_min:
        Enforce the paper's ``min d_ij = 1`` normalization.  RBS broadcast
        clusters deliberately relax it (their point is uncertainty << 1)
        and pass ``False``.
    """

    distances: np.ndarray
    comm_edges: frozenset[tuple[int, int]]
    name: str = "topology"
    require_unit_min: bool = True
    positions: dict[int, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        d = np.asarray(self.distances, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise TopologyError(f"distance matrix must be square, got {d.shape}")
        if d.shape[0] < 2:
            raise TopologyError("a network needs at least two nodes")
        # The exact tests pass for every generated matrix; ``allclose``
        # runs only to forgive float-level asymmetry or diagonal noise.
        if not np.array_equal(d, d.T) and not np.allclose(d, d.T):
            raise TopologyError("distances must be symmetric")
        diag = np.diag(d)
        if diag.any() and not np.allclose(diag, 0.0):
            raise TopologyError("self-distance must be zero")
        off = d[~np.eye(d.shape[0], dtype=bool)]
        if np.any(off <= 0):
            raise TopologyError("distinct nodes must have positive distance")
        if self.require_unit_min and off.min() < 1.0 - 1e-9:
            # The paper sets the unit by "min d_ij = 1"; we read it as a
            # floor so sub-networks (e.g. two nodes at distance d > 1)
            # remain expressible in the same unit.
            raise TopologyError(
                f"paper normalization requires d_ij >= 1, got {off.min()}"
            )
        self.distances = d
        for i, j in self.comm_edges:
            if i == j or not (0 <= i < d.shape[0]) or not (0 <= j < d.shape[0]):
                raise TopologyError(f"bad communication edge ({i}, {j})")

    def __eq__(self, other: object) -> bool:
        # The generated ``__eq__`` would ``==`` the distance arrays and
        # raise; equal values are equal topologies (still unhashable).
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.name == other.name
            and self.require_unit_min == other.require_unit_min
            and self.comm_edges == other.comm_edges
            and self.positions == other.positions
            and np.array_equal(self.distances, other.distances)
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def fully_connected(
        cls, distances: np.ndarray, *, name: str = "topology", **kwargs
    ) -> "Topology":
        """All pairs communicate (the model's default power)."""
        d = np.asarray(distances, dtype=float)
        edges = frozenset(_upper_pairs(np.ones(d.shape, dtype=bool)))
        return cls(d, edges, name=name, **kwargs)

    @classmethod
    def with_radius(
        cls,
        distances: np.ndarray,
        radius: float,
        *,
        name: str = "topology",
        **kwargs,
    ) -> "Topology":
        """Communication restricted to pairs at distance ``<= radius``."""
        d = np.asarray(distances, dtype=float)
        edges = frozenset(_upper_pairs(d <= radius + 1e-9))
        topo = cls(d, edges, name=name, **kwargs)
        if any(not topo.neighbors(i) for i in topo.nodes):
            raise TopologyError(f"radius {radius} leaves a node isolated")
        return topo

    # ------------------------------------------------------------------
    # queries

    @property
    def n(self) -> int:
        return int(self.distances.shape[0])

    @property
    def nodes(self) -> range:
        return range(self.n)

    def distance(self, i: int, j: int) -> float:
        """The delay uncertainty ``d_ij``."""
        return self.distances.item(i, j)

    @property
    def diameter(self) -> float:
        """``D = max_ij d_ij`` (the paper's diameter)."""
        return float(self.distances.max())

    @property
    def min_distance(self) -> float:
        off = self.distances[~np.eye(self.n, dtype=bool)]
        return float(off.min())

    def neighbors(self, i: int) -> list[int]:
        """Communication partners of ``i``, sorted for determinism.

        Cached: the adjacency is scanned once, not on every broadcast
        (this sits on the simulator's hot path).
        """
        cache = self.__dict__.get("_neighbor_cache")
        if cache is None:
            cache = {n: set() for n in self.nodes}
            for a, b in self.comm_edges:
                cache[a].add(b)
                cache[b].add(a)
            cache = {n: sorted(s) for n, s in cache.items()}
            self.__dict__["_neighbor_cache"] = cache
        return list(cache[i])

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    @property
    def max_degree(self) -> int:  # repro: allow[DEAD001] examples/sensor_field.py
        return max(self.degree(i) for i in self.nodes)

    def pairs(self) -> Iterable[tuple[int, int]]:
        """All unordered node pairs."""
        for i in range(self.n):
            for j in range(i + 1, self.n):
                yield i, j

    def pairs_at_distance(self, d: float, *, tol: float = 1e-9) -> list[tuple[int, int]]:
        return _upper_pairs(np.abs(self.distances - d) <= tol)

    def adjacent_pairs(self) -> list[tuple[int, int]]:
        """Pairs at the minimum distance — the pairs Theorem 8.1 is about.

        Cached: skew measurements evaluate this on every sample time.
        """
        cached = self.__dict__.get("_adjacent_cache")
        if cached is None:
            cached = self.pairs_at_distance(self.min_distance)
            self.__dict__["_adjacent_cache"] = cached
        return list(cached)

    def distance_classes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(distances, group)``: the distinct pair distances, ascending,
        and each unordered pair's index into them, the pairs in
        row-major upper-triangle order (``np.triu_indices(n, 1)``, the
        order of :meth:`pairs`) — ``np.unique(..., return_inverse=True)``.

        Cached, and read-only: every distance-grouped measurement (the
        gradient profile, the Requirement 2 check) shares one copy.
        """
        cached = self.__dict__.get("_distance_classes")
        if cached is None:
            cached = np.unique(
                self.distances[np.triu_indices(self.n, 1)], return_inverse=True
            )
            for array in cached:
                array.flags.writeable = False
            self.__dict__["_distance_classes"] = cached
        return cached

    def distance_keys(self) -> np.ndarray:
        """``round(d, 9)`` of each :meth:`distance_classes` distance: the
        gradient profile's keys.  Rounded once per topology by Python's
        correctly rounded ``round`` (``np.round`` scales and can differ
        in the last bit), so the keys equal the scalar path's.  Cached,
        and read-only."""
        cached = self.__dict__.get("_distance_keys")
        if cached is None:
            distances, _ = self.distance_classes()
            cached = np.array([round(d, 9) for d in distances.tolist()])
            cached.flags.writeable = False
            self.__dict__["_distance_keys"] = cached
        return cached

    def comm_pairs(self) -> list[tuple[int, int]]:
        """The communication edges, sorted for determinism."""
        return sorted(self.comm_edges)

    def comm_adjacency(self) -> dict[int, list[int]]:
        """The communication graph as ordered neighbour lists.

        Nodes are keyed in order of first appearance in
        :meth:`comm_pairs`, isolated nodes last; each list holds a node's
        neighbours in the order its edges appear there, each once.  Graph
        walks (BFS trees, greedy colourings) iterate this order, so their
        results are a pure function of the topology.
        """
        adjacency: dict[int, dict[int, None]] = {}
        for i, j in self.comm_pairs():
            adjacency.setdefault(i, {})[j] = None
            adjacency.setdefault(j, {})[i] = None
        for node in self.nodes:
            adjacency.setdefault(node, {})
        return {node: list(nbrs) for node, nbrs in adjacency.items()}

    def bfs_parents(self, root: int) -> dict[int, int | None]:
        """``{node: parent}`` of the breadth-first tree of the
        communication graph from ``root`` (``root`` maps to ``None``), in
        visit order; nodes unreachable from ``root`` are absent."""
        if root not in self.nodes:
            raise TopologyError(f"BFS root {root} not in topology")
        adjacency = self.comm_adjacency()
        parents: dict[int, int | None] = {root: None}
        frontier = deque([root])
        while frontier:
            node = frontier.popleft()
            for child in adjacency[node]:
                if child not in parents:
                    parents[child] = node
                    frontier.append(child)
        return parents
