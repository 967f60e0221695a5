"""Tests for bidirectional BFS, uniform shortest-path sampling and path enumeration.

The pair query and the path sampler are the library's CSR kernels; the
explicit enumeration is the reference the co-betweenness tests compare
against.
"""

from __future__ import annotations

import collections
import random

import numpy as np

from reference import all_shortest_paths, bfs_spd
from repro.graphs import Graph, cycle_graph, grid_graph
from repro.shortest_paths import bidirectional_shortest_path_info_csr, csr_spd_builder
from repro.shortest_paths.bidirectional import sample_path_interior_csr


def bidirectional_shortest_path_info(graph, s, t):
    csr = graph.csr()
    return bidirectional_shortest_path_info_csr(csr, csr.index_of(s), csr.index_of(t))


def sample_interior(graph, s, t, seed):
    """The interior of one sampled shortest s→t path, as labels from *t* backwards."""
    csr = graph.csr()
    source = csr.index_of(s)
    spd = csr_spd_builder(csr)(csr, source)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    interior = sample_path_interior_csr(spd, source, csr.index_of(t), rng)
    return [csr.vertex_at(i) for i in interior]


class TestBidirectionalInfo:
    def test_same_vertex(self, path5):
        assert bidirectional_shortest_path_info(path5, 2, 2) == (0.0, 1.0)

    def test_path_graph(self, path5):
        d, sigma = bidirectional_shortest_path_info(path5, 0, 4)
        assert d == 4.0 and sigma == 1.0

    def test_cycle_antipode_has_two_paths(self):
        g = cycle_graph(6)
        d, sigma = bidirectional_shortest_path_info(g, 0, 3)
        assert d == 3.0 and sigma == 2.0

    def test_grid_counts_match_full_bfs(self):
        g = grid_graph(4, 4)
        spd = bfs_spd(g, 0)
        for target in [5, 10, 15, 3, 12]:
            d, sigma = bidirectional_shortest_path_info(g, 0, target)
            assert d == spd.distance[target]
            assert sigma == spd.sigma[target]

    def test_disconnected_pair(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        d, sigma = bidirectional_shortest_path_info(g, 0, 3)
        assert d == float("inf") and sigma == 0.0

    def test_random_graph_against_bfs(self, small_er):
        spd = bfs_spd(small_er, 0)
        vertices = [v for v in small_er.vertices() if v != 0][:8]
        for t in vertices:
            d, sigma = bidirectional_shortest_path_info(small_er, 0, t)
            assert d == spd.distance_to(t)
            assert sigma == spd.path_count(t)


class TestAllShortestPaths:
    def test_single_path(self, path5):
        paths = all_shortest_paths(path5, 0, 3)
        assert paths == [[0, 1, 2, 3]]

    def test_two_paths_in_cycle(self):
        g = cycle_graph(6)
        paths = all_shortest_paths(g, 0, 3)
        assert len(paths) == 2
        assert all(len(p) == 4 for p in paths)

    def test_same_endpoints(self, path5):
        assert all_shortest_paths(path5, 1, 1) == [[1]]

    def test_disconnected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        assert all_shortest_paths(g, 0, 2) == []

    def test_path_count_matches_sigma(self, grid4x4):
        spd = bfs_spd(grid4x4, 0)
        assert len(all_shortest_paths(grid4x4, 0, 15)) == spd.sigma[15]


class TestSampleShortestPath:
    def test_sampled_path_is_shortest(self, grid4x4):
        spd = bfs_spd(grid4x4, 0)
        path = [0] + sample_interior(grid4x4, 0, 15, seed=1)[::-1] + [15]
        assert len(path) - 1 == spd.distance[15]
        for a, b in zip(path, path[1:]):
            assert grid4x4.has_edge(a, b)

    def test_disconnected_returns_none(self):
        # An unreachable target has no DAG parents: nothing is sampled.
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        csr = g.csr()
        assert np.isinf(csr_spd_builder(csr)(csr, 0).dist[2])
        assert sample_interior(g, 0, 2, seed=1) == []

    def test_same_endpoints(self, path5):
        assert sample_interior(path5, 3, 3, seed=1) == []
        assert sample_interior(path5, 3, 4, seed=1) == []

    def test_sampling_is_close_to_uniform(self):
        # Cycle of 6: exactly two shortest 0->3 paths; each should appear
        # roughly half the time.
        g = cycle_graph(6)
        counts = collections.Counter()
        rng = random.Random(0)
        for _ in range(400):
            counts[tuple(sample_interior(g, 0, 3, seed=rng))] += 1
        assert len(counts) == 2
        ratio = min(counts.values()) / max(counts.values())
        assert ratio > 0.7

    def test_weighted_graph_sampling(self, weighted_diamond):
        # the two-hop routes, never the 0-4-3 route
        assert sample_interior(weighted_diamond, 0, 3, seed=5) in ([1], [2])
