"""The three graph walks behind the motivating applications.

``Topology.bfs_parents`` (external sync's source tree, the fusion tree),
``assign_slots``'s largest-first greedy colouring (TDMA) and
``balanced_tree``'s distance matrix were once networkx calls.  Where
networkx is installed, :class:`TestNetworkxParity` checks they still
return exactly what it returns — parents, colours and dict order
included — over a fixed family of 50 topologies; the literal cases
below pin three small answers so the suite asserts something without it.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algorithms.external import ExternalSyncAlgorithm
from repro.apps.fusion import fusion_groups
from repro.apps.tdma import assign_slots
from repro.errors import TopologyError
from repro.topology.base import Topology
from repro.topology.generators import (
    balanced_tree,
    grid,
    line,
    random_geometric,
    ring,
    star,
)

TREE_SHAPES = ((2, 1), (2, 2), (2, 3), (3, 2), (2, 5), (4, 3), (5, 2))


def hand_built(seed: int) -> Topology:
    """A random graph whose edge set holds reversed ``(j, i)`` tuples
    and both orientations of some edges; it may be disconnected and may
    leave nodes isolated."""
    rng = random.Random(seed)
    n = rng.randint(3, 14)
    edges = set()
    for _ in range(rng.randint(1, 2 * n)):
        i, j = rng.sample(range(n), 2)
        edges.add((i, j))
        if rng.random() < 0.3:
            edges.add((j, i))
    d = np.ones((n, n)) - np.eye(n)
    return Topology(d, frozenset(edges), name=f"hand({seed})")


def family() -> list[Topology]:
    """5 lattices, 15 random sensor fields and 30 hand-built graphs."""
    lattices = [
        line(9, comm_radius=3.0), ring(8), grid(3, 4), star(5),
        balanced_tree(3, 2),
    ]
    fields = [random_geometric(6 + 3 * s, seed=s) for s in range(15)]
    return lattices + fields + [hand_built(seed) for seed in range(30)]


FAMILY = family()


def nx_graph(nx, topology: Topology):
    """The graph the walks used to build: edges in ``comm_pairs()``
    order, then every node."""
    graph = nx.Graph(topology.comm_pairs())
    graph.add_nodes_from(topology.nodes)
    return graph


@pytest.mark.parametrize("topology", FAMILY, ids=lambda t: t.name)
class TestNetworkxParity:
    def test_bfs_parents_in_visit_order(self, topology):
        nx = pytest.importorskip("networkx")
        graph = nx_graph(nx, topology)
        for root in sorted({0, topology.n // 2, topology.n - 1}):
            expected = {root: None}
            expected.update(nx.bfs_predecessors(graph, root))
            assert list(topology.bfs_parents(root).items()) == list(
                expected.items()
            )

    def test_largest_first_colouring_in_dict_order(self, topology):
        nx = pytest.importorskip("networkx")
        expected = nx.greedy_color(
            nx_graph(nx, topology), strategy="largest_first"
        )
        slots = assign_slots(topology, slot_width=1.0).slots
        assert list(slots.items()) == list(expected.items())


@pytest.mark.parametrize("shape", TREE_SHAPES)
def test_balanced_tree_distances_match_networkx(shape):
    nx = pytest.importorskip("networkx")
    graph = nx.balanced_tree(*shape)
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    n = graph.number_of_nodes()
    expected = np.array(
        [[float(lengths[i][j]) for j in range(n)] for i in range(n)]
    )
    d = balanced_tree(*shape).distances
    assert d.dtype == expected.dtype
    assert np.array_equal(d, expected)


class TestLiteralWalks:
    """Three answers pinned by hand (and by networkx when captured)."""

    def test_bfs_over_reversed_and_duplicate_edges(self):
        d = np.ones((6, 6)) - np.eye(6)
        edges = frozenset({(3, 1), (1, 3), (0, 3), (4, 0), (2, 4)})
        topo = Topology(d, edges, name="literal")
        # comm_pairs: (0,3) (1,3) (2,4) (3,1) (4,0) — node order
        # 0 3 1 2 4, node 5 isolated and last; (3,1) repeats (1,3).
        assert list(topo.comm_adjacency().items()) == [
            (0, [3, 4]), (3, [0, 1]), (1, [3]), (2, [4]), (4, [2, 0]),
            (5, []),
        ]
        assert list(topo.bfs_parents(1).items()) == [
            (1, None), (3, 1), (0, 3), (4, 0), (2, 4),
        ]
        with pytest.raises(TopologyError):
            ExternalSyncAlgorithm(source=1).processes(topo)
        with pytest.raises(TopologyError):
            topo.bfs_parents(6)

    def test_star_and_grid_colourings(self):
        # The hub has the largest degree and is coloured first.
        assert list(assign_slots(star(3), slot_width=1.0).slots.items()) == [
            (0, 0), (1, 1), (2, 1), (3, 1),
        ]
        # grid(2,3): the degree-3 middles 1 and 4 first (stable order),
        # then the corners in comm_pairs() first-appearance order.
        assert list(
            assign_slots(grid(2, 3), slot_width=1.0).slots.items()
        ) == [(1, 0), (4, 1), (0, 1), (3, 0), (2, 1), (5, 0)]

    def test_tree_distances_and_groups(self):
        topo = balanced_tree(2, 2)
        depth = [0, 1, 1, 2, 2, 2, 2]
        assert topo.distances.tolist() == [
            [0, 1, 1, 2, 2, 2, 2],
            [1, 0, 2, 1, 1, 3, 3],
            [1, 2, 0, 3, 3, 1, 1],
            [2, 1, 3, 0, 2, 4, 4],
            [2, 1, 3, 2, 0, 4, 4],
            [2, 3, 1, 4, 4, 0, 2],
            [2, 3, 1, 4, 4, 2, 0],
        ]
        assert [topo.distance(0, k) for k in topo.nodes] == depth
        assert [(g.parent, g.children) for g in fusion_groups(topo)] == [
            (0, (1, 2)), (1, (3, 4)), (2, (5, 6)),
        ]
        parents = {
            node: process.parent
            for node, process in ExternalSyncAlgorithm(
                source=0
            ).processes(topo).items()
        }
        assert parents == {0: None, 1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}
