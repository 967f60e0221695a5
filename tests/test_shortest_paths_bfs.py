"""Tests for BFS shortest-path DAG construction.

The DAGs are built by the CSR kernels and read through the reference's
vertex-keyed view (:func:`reference.dag_from_csr`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import dag_from_csr
from repro.errors import VertexNotFoundError
from repro.graphs import Graph, cycle_graph, grid_graph
from repro.shortest_paths import bfs_distances_csr, bfs_spd_csr
from repro.shortest_paths.bfs import _first_touch


def bfs_spd(graph, source, **kwargs):
    """The library's BFS DAG rooted at the label *source*, keyed by label."""
    csr = graph.csr()
    return dag_from_csr(bfs_spd_csr(csr, csr.index_of(source), **kwargs))


def pair_distance(graph, source, target) -> float:
    """d(source, target) read off the library's distance-only BFS."""
    csr = graph.csr()
    dist, _ = bfs_distances_csr(csr, csr.index_of(source))
    return float(dist[csr.index_of(target)])


class TestBfsSpd:
    def test_path_distances(self, path5):
        spd = bfs_spd(path5, 0)
        assert spd.distance == {0: 0.0, 1: 1.0, 2: 2.0, 3: 3.0, 4: 4.0}

    def test_path_sigmas_all_one(self, path5):
        spd = bfs_spd(path5, 0)
        assert all(s == 1.0 for s in spd.sigma.values())

    def test_source_properties(self, barbell):
        spd = bfs_spd(barbell, 3)
        assert spd.distance[3] == 0.0
        assert spd.sigma[3] == 1.0
        assert spd.parents(3) == []

    def test_cycle_two_shortest_paths_to_antipode(self):
        g = cycle_graph(6)
        spd = bfs_spd(g, 0)
        assert spd.sigma[3] == 2.0
        assert spd.distance[3] == 3.0

    def test_grid_path_counts(self):
        # in a grid the number of shortest paths to cell (i, j) is C(i+j, i)
        g = grid_graph(4, 4)
        spd = bfs_spd(g, 0)
        assert spd.sigma[5] == 2.0  # cell (1,1)
        assert spd.sigma[15] == 20.0  # cell (3,3): C(6,3)

    def test_star_predecessors(self, star6):
        spd = bfs_spd(star6, 1)
        assert spd.parents(0) == [1]
        assert spd.parents(4) == [0]
        assert spd.distance[4] == 2.0

    def test_order_is_sorted_by_distance(self, barbell):
        spd = bfs_spd(barbell, 0)
        distances = [spd.distance[v] for v in spd.order]
        assert distances == sorted(distances)

    def test_unreachable_vertices_absent(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        spd = bfs_spd(g, 0)
        assert not spd.is_reachable(2)
        assert spd.distance_to(2) == float("inf")
        assert spd.path_count(2) == 0.0

    def test_missing_source_raises(self, path5):
        with pytest.raises(VertexNotFoundError):
            bfs_spd(path5, 42)
        # Index space: an out-of-range index raises instead of wrapping.
        for index in (5, -1):
            with pytest.raises(IndexError):
                bfs_spd_csr(path5.csr(), index)

    def test_cutoff_limits_exploration(self, path5):
        spd = bfs_spd(path5, 0, cutoff=2)
        assert spd.is_reachable(2)
        assert not spd.is_reachable(3)
        assert not spd.is_reachable(4)
        # Inclusive: a fractional cutoff never admits the next level.
        assert bfs_spd(path5, 0, cutoff=1.5).order == [0, 1]

    def test_validate_passes_on_real_spd(self, small_ba):
        spd = bfs_spd(small_ba, 0)
        spd.validate()  # must not raise


class TestSpdDerived:
    def test_successors_inverse_of_predecessors(self, barbell):
        spd = bfs_spd(barbell, 0)
        children = spd.successors()
        for child, parents in spd.predecessors.items():
            for parent in parents:
                assert child in children[parent]

    def test_paths_through_middle_of_path(self, path5):
        spd = bfs_spd(path5, 0)
        through = spd.paths_through(2)
        assert through == {3: 1.0, 4: 1.0}

    def test_paths_through_source_is_empty_for_source_target(self, path5):
        spd = bfs_spd(path5, 0)
        through = spd.paths_through(2)
        assert 0 not in through and 2 not in through

    def test_paths_through_unreachable_vertex(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        spd = bfs_spd(g, 0)
        assert spd.paths_through(2) == {}

    def test_pair_dependencies_cycle(self):
        g = cycle_graph(6)
        spd = bfs_spd(g, 0)
        deps = spd.pair_dependencies(1)
        # vertex 1 lies on one of the two shortest 0-3 paths and the single 0-2 path
        assert deps[2] == pytest.approx(1.0)
        assert deps[3] == pytest.approx(0.5)

    def test_reachable_count(self, barbell):
        spd = bfs_spd(barbell, 0)
        assert spd.number_of_reachable() == barbell.number_of_vertices()


class TestBfsHelpers:
    def test_bfs_distances_matches_spd(self, grid4x4):
        csr = grid4x4.csr()
        spd = bfs_spd_csr(csr, 0)
        dist, order = bfs_distances_csr(csr, 0)
        assert np.array_equal(dist, spd.dist)
        assert np.array_equal(order, spd.order_indices)

    def test_single_pair_distance(self, path5):
        assert pair_distance(path5, 0, 4) == 4.0
        assert pair_distance(path5, 2, 2) == 0.0

    def test_single_pair_distance_unreachable(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(5)
        assert pair_distance(g, 0, 5) == float("inf")

    def test_single_pair_missing_vertex(self, path5):
        with pytest.raises(VertexNotFoundError):
            pair_distance(path5, 0, 42)


def _sorted_unique(values):
    """Reference dedup: distinct values in first-occurrence order, via a sort."""
    return values[np.sort(np.unique(values, return_index=True)[1])]


class TestFirstTouch:
    """The mark-array dedup relies on "last write wins" for repeated fancy
    assignment indices; these properties pin that behaviour."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(0, k - 1), max_size=400),
                st.lists(st.integers(0, k - 1), max_size=400),
            )
        ),
        st.integers(-(2**62), 2**62),
    )
    def test_matches_sorted_unique(self, case, fill):
        universe, first, second = case
        # Stale scratch contents, and one slot array reused across calls,
        # exactly as a traversal reuses it level after level.
        slot = np.full(universe, fill, dtype=np.int64)
        for values in (first, second):
            children = np.array(values, dtype=np.int64)
            assert np.array_equal(_first_touch(children, slot), _sorted_unique(children))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000), st.integers(0, 50000))
    def test_matches_sorted_unique_on_large_arrays(self, seed, universe, size):
        children = np.random.default_rng(seed).integers(0, universe, size=size)
        slot = np.empty(universe, dtype=np.int64)
        assert np.array_equal(_first_touch(children, slot), _sorted_unique(children))


#: Random simple graphs over up to 14 vertices, isolated ones included.
_edge_sets = st.tuples(
    st.integers(1, 14),
    st.lists(st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=40),
)


class TestParentsOnDemand:
    """``parents_of`` before the predecessor arrays exist derives one
    vertex's parents; the path samplers rely on the order matching the
    arrays' exactly (same rng draws, same paths)."""

    @settings(max_examples=60, deadline=None)
    @given(_edge_sets, st.data())
    def test_match_the_built_predecessor_arrays(self, case, data):
        n, edges = case
        graph = Graph()
        for v in range(n):
            graph.add_vertex(v)
        for u, v in edges:
            if u != v and max(u, v) < n:
                graph.add_edge(u, v)
        csr = graph.csr()
        source = data.draw(st.integers(0, n - 1))
        cutoff = data.draw(st.sampled_from([None, 1.0, 2.0]))
        lazy = bfs_spd_csr(csr, source, cutoff=cutoff)
        built = bfs_spd_csr(csr, source, cutoff=cutoff)
        built.pred_indptr
        for v in range(n):
            assert lazy.parents_of(v).tolist() == built.parents_of(v).tolist()
        assert lazy._pred_indices is None, "no call may build the arrays"

    def test_directed_dags_read_the_arrays(self):
        graph = Graph(directed=True)
        graph.add_edges_from([(0, 1), (0, 2), (1, 3), (2, 3)])
        spd = bfs_spd_csr(graph.csr(), 0)
        assert spd.parents_of(3).tolist() == [1, 2]
        assert spd._pred_indices is not None
