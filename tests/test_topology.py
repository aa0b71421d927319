"""Tests for Topology and its generators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.field import SkewField
from repro.algorithms import MaxBasedAlgorithm
from repro.errors import TopologyError
from repro.sim.simulator import SimConfig, run_simulation
from repro.sweep import topology_from_spec
from repro.topology.base import Topology
from repro.topology.generators import (
    balanced_tree,
    broadcast_cluster,
    complete,
    grid,
    line,
    random_geometric,
    ring,
    star,
    two_nodes,
)


class TestTopologyValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_rejects_sub_unit_minimum(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(TopologyError):
            Topology.fully_connected(d)

    def test_accepts_above_unit_minimum(self):
        # The unit is a floor: two nodes at distance 2 are expressible.
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert Topology.fully_connected(d).min_distance == 2.0

    def test_relaxed_minimum_when_asked(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        topo = Topology(
            d, frozenset({(0, 1)}), require_unit_min=False
        )
        assert topo.min_distance == 0.5

    def test_rejects_single_node(self):
        with pytest.raises(TopologyError):
            Topology.fully_connected(np.zeros((1, 1)))

    def test_rejects_bad_edge(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(TopologyError):
            Topology(d, frozenset({(0, 5)}))

    def test_radius_isolation_detected(self):
        d = np.array(
            [[0.0, 1.0, 10.0], [1.0, 0.0, 10.0], [10.0, 10.0, 0.0]]
        )
        with pytest.raises(TopologyError):
            Topology.with_radius(d, 1.0)


class TestTopologyQueries:
    def test_line_basics(self):
        topo = line(5)
        assert topo.n == 5
        assert topo.diameter == 4.0
        assert topo.min_distance == 1.0
        assert topo.distance(0, 3) == 3.0

    def test_neighbors_radius_one(self):
        topo = line(5)
        assert topo.neighbors(0) == [1]
        assert topo.neighbors(2) == [1, 3]

    def test_neighbors_radius_two(self):
        topo = line(5, comm_radius=2.0)
        assert topo.neighbors(2) == [0, 1, 3, 4]

    def test_degree_and_max_degree(self):
        topo = line(5)
        assert topo.degree(0) == 1
        assert topo.max_degree == 2

    def test_pairs_count(self):
        topo = line(5)
        assert len(list(topo.pairs())) == 10

    def test_adjacent_pairs(self):
        topo = line(4)
        assert topo.adjacent_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_pairs_at_distance(self):
        topo = line(4)
        assert topo.pairs_at_distance(3.0) == [(0, 3)]

    def test_comm_pairs_sorted(self):
        topo = line(4)
        assert topo.comm_pairs() == [(0, 1), (1, 2), (2, 3)]


class TestGenerators:
    def test_line_rejects_tiny(self):
        with pytest.raises(TopologyError):
            line(1)

    def test_ring_wraps(self):
        topo = ring(6)
        assert topo.distance(0, 5) == 1.0
        assert topo.distance(0, 3) == 3.0
        assert topo.diameter == 3.0

    def test_grid_manhattan(self):
        topo = grid(3, 4)
        assert topo.n == 12
        assert topo.distance(0, 11) == 2 + 3
        assert topo.positions is not None

    @pytest.mark.parametrize("rows, cols", [(1, 1), (0, 5), (-2, -3)])
    def test_grid_rejects_fewer_than_two_nodes(self, rows, cols):
        with pytest.raises(TopologyError):
            grid(rows, cols)

    def test_complete_uniform(self):
        topo = complete(5, distance=1.0)
        assert topo.diameter == 1.0
        assert all(topo.distance(i, j) == 1.0 for i, j in topo.pairs())

    def test_star_shape(self):
        topo = star(4)
        assert topo.n == 5
        assert topo.distance(0, 3) == 1.0
        assert topo.distance(1, 2) == 2.0
        assert topo.neighbors(0) == [1, 2, 3, 4]

    def test_balanced_tree(self):
        topo = balanced_tree(2, 2)  # 7 nodes
        assert topo.n == 7
        assert topo.distance(0, 1) == 1.0
        # two leaves under different children of the root: distance 4
        assert topo.distance(3, 6) == 4.0

    def test_balanced_tree_rejects_bad_params(self):
        with pytest.raises(TopologyError):
            balanced_tree(1, 2)

    def test_random_geometric_normalized(self):
        topo = random_geometric(12, seed=3)
        assert topo.min_distance == pytest.approx(1.0)
        assert topo.positions is not None
        # deterministic for a seed
        again = random_geometric(12, seed=3)
        assert np.allclose(topo.distances, again.distances)

    def test_broadcast_cluster_tiny_uncertainty(self):
        topo = broadcast_cluster(6, uncertainty=0.01)
        assert topo.diameter == pytest.approx(0.01)
        assert not topo.require_unit_min

    def test_two_nodes(self):
        topo = two_nodes(5.0)
        assert topo.n == 2
        assert topo.diameter == 5.0

    def test_two_nodes_rejects_below_unit(self):
        with pytest.raises(TopologyError):
            two_nodes(0.5)


class TestTopologyEquality:
    """A ``Topology`` is a pure value: equal fields, equal topologies."""

    def test_equal_values_compare_equal(self):
        assert line(4) == line(4)
        assert grid(2, 3) == grid(2, 3)

    def test_different_values_compare_unequal(self):
        assert line(4) != ring(4)
        assert grid(2, 3) != grid(3, 2)
        assert line(4) != line(5)
        assert line(4) != "line(4)"

    def test_positions_and_flags_take_part(self):
        moved = grid(2, 3)
        moved.positions = {**moved.positions, 0: (9.0, 9.0)}
        assert moved != grid(2, 3)
        d = line(3).distances
        assert Topology.with_radius(d, 1.0) != Topology.with_radius(
            d, 1.0, require_unit_min=False
        )

    def test_still_unhashable(self):
        with pytest.raises(TypeError):
            hash(line(4))


# ----------------------------------------------------------------------
# The loops the vectorised queries replaced, kept verbatim as the
# reference they must equal.


def reference_radius_edges(d, radius):
    n = d.shape[0]
    return frozenset(
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if d[i, j] <= radius + 1e-9
    )


def reference_pairs_at_distance(topo, d, tol=1e-9):
    return [
        (i, j)
        for i in range(topo.n)
        for j in range(i + 1, topo.n)
        if abs(float(topo.distances[i, j]) - d) <= tol
    ]


def reference_grid_distances(rows, cols):
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    n = len(coords)
    d = np.zeros((n, n))
    for a, (ra, ca) in enumerate(coords):
        for b, (rb, cb) in enumerate(coords):
            d[a, b] = abs(ra - rb) + abs(ca - cb)
    return d


def all_python_ints(pairs):
    return all(type(i) is int and type(j) is int for i, j in pairs)


RADII = (1.0, 1.5, 2.0, 3.25)
TARGETS = (1.0, 2.0, 2.5)
TOL = 1e-9


@st.composite
def boundary_matrices(draw):
    """A random symmetric distance matrix plus a radius and a target
    distance, with entries sitting exactly on both comparisons' edges:
    ``radius + 1e-9`` and its float neighbours, ``target ± tol``."""
    n = draw(st.integers(min_value=2, max_value=9))
    radius = draw(st.sampled_from(RADII))
    target = draw(st.sampled_from(TARGETS))
    edge = radius + 1e-9
    boundary = [
        radius,
        edge,
        float(np.nextafter(edge, np.inf)),
        float(np.nextafter(edge, -np.inf)),
        target,
        target + TOL,
        target - TOL,
        float(np.nextafter(target + TOL, np.inf)),
        float(np.nextafter(target - TOL, -np.inf)),
    ]
    entry = st.one_of(
        st.sampled_from(boundary),
        st.floats(min_value=0.5, max_value=6.0),
    )
    upper = draw(st.lists(entry, min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    d = np.zeros((n, n))
    d[np.triu_indices(n, 1)] = upper
    return d + d.T, radius, target


class TestVectorisedQueriesMatchLoops:
    @given(boundary_matrices())
    @settings(max_examples=200, deadline=None)
    def test_with_radius_edges(self, case):
        d, radius, _ = case
        want = reference_radius_edges(d, radius)
        if any(not any(i in e for e in want) for i in range(d.shape[0])):
            with pytest.raises(TopologyError):
                Topology.with_radius(d, radius, require_unit_min=False)
            return
        topo = Topology.with_radius(d, radius, require_unit_min=False)
        assert topo.comm_edges == want
        assert topo.comm_pairs() == sorted(want)
        assert all_python_ints(topo.comm_edges)

    @given(boundary_matrices())
    @settings(max_examples=200, deadline=None)
    def test_pairs_at_distance_and_adjacent_pairs(self, case):
        d, _, target = case
        topo = Topology.fully_connected(d, require_unit_min=False)
        got = topo.pairs_at_distance(target)
        assert got == reference_pairs_at_distance(topo, target)
        assert all_python_ints(got)
        adjacent = topo.adjacent_pairs()
        assert adjacent == reference_pairs_at_distance(topo, topo.min_distance)
        assert all_python_ints(adjacent)

    def test_fully_connected_edges_are_every_pair(self):
        topo = complete(7)
        assert topo.comm_pairs() == list(topo.pairs())
        assert all_python_ints(topo.comm_edges)

    @pytest.mark.parametrize("rows, cols", [(1, 2), (4, 30), (16, 16)])
    def test_grid_distances_equal_the_double_loop(self, rows, cols):
        assert np.array_equal(
            grid(rows, cols).distances, reference_grid_distances(rows, cols)
        )

    def test_grid_positions_unchanged(self):
        assert grid(2, 3).positions == {
            0: (0.0, 0.0), 1: (1.0, 0.0), 2: (2.0, 0.0),
            3: (0.0, 1.0), 4: (1.0, 1.0), 5: (2.0, 1.0),
        }

    def test_distance_is_a_python_float(self):
        assert type(line(4).distance(0, 3)) is float


class TestNoPairScanOnTheCellPath:
    """Building a topology and summarising an execution must not walk
    ``Topology.pairs`` or call ``Topology.distance`` per pair: those are
    the ``O(n^2)`` Python scans the array queries replaced."""

    def test_builders_and_summary_need_no_pair_scan(self, monkeypatch):
        topo = topology_from_spec("grid:3,4")
        ex = run_simulation(
            topo, MaxBasedAlgorithm().processes(topo), SimConfig(duration=4.0)
        )

        def scan(name):
            def refuse(*args, **kwargs):
                raise AssertionError(
                    f"Topology.{name} called: an O(n^2) Python pair scan "
                    "is back on the cell path"
                )
            return refuse

        monkeypatch.setattr(Topology, "pairs", scan("pairs"))
        monkeypatch.setattr(Topology, "distance", scan("distance"))
        for spec in ("line:9", "ring:9", "grid:4,5", "complete:7", "star:6"):
            assert topology_from_spec(spec).adjacent_pairs()
        summary = SkewField(ex).summary()
        assert summary.max_adjacent_skew >= 0.0
