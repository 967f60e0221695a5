"""Tests for Dijkstra shortest-path DAG construction on weighted graphs.

The DAGs are built by the CSR kernels and read through the reference's
vertex-keyed view (:func:`reference.dag_from_csr`).
"""

from __future__ import annotations

import pytest

from reference import dag_from_csr
from repro.errors import NegativeWeightError, VertexNotFoundError
from repro.graphs import Graph
from repro.shortest_paths import bfs_spd_csr, dijkstra_spd_csr
from repro.shortest_paths.dijkstra import dijkstra_distances_csr


def dijkstra_spd(graph, source):
    """The library's weighted DAG rooted at the label *source*, keyed by label."""
    csr = graph.csr()
    return dag_from_csr(dijkstra_spd_csr(csr, csr.index_of(source)))


def bfs_spd(graph, source):
    csr = graph.csr()
    return dag_from_csr(bfs_spd_csr(csr, csr.index_of(source)))


def dijkstra_distances(graph, source):
    """The library's weighted distances from *source*, keyed by label in settle order."""
    csr = graph.csr()
    dist, order = dijkstra_distances_csr(csr, csr.index_of(source))
    return {csr.vertex_at(i): float(dist[i]) for i in order.tolist()}


def weighted_triangle() -> Graph:
    g = Graph(weighted=True)
    g.add_edge(0, 1, 1.0)
    g.add_edge(1, 2, 1.0)
    g.add_edge(0, 2, 3.0)
    return g


class TestDijkstraSpd:
    def test_prefers_cheaper_two_hop_path(self):
        spd = dijkstra_spd(weighted_triangle(), 0)
        assert spd.distance[2] == 2.0
        assert spd.parents(2) == [1]

    def test_equal_weight_paths_counted(self, weighted_diamond):
        spd = dijkstra_spd(weighted_diamond, 0)
        # two paths of length 2 via vertices 1 and 2; the path via 4 costs 3.5
        assert spd.distance[3] == 2.0
        assert spd.sigma[3] == 2.0
        assert sorted(spd.parents(3)) == [1, 2]

    def test_matches_bfs_on_unit_weights(self, barbell):
        weighted = Graph(weighted=True)
        for u, v in barbell.edges():
            weighted.add_edge(u, v, 1.0)
        spd_w = dijkstra_spd(weighted, 0)
        spd_u = bfs_spd(barbell, 0)
        assert spd_w.distance == spd_u.distance
        assert spd_w.sigma == spd_u.sigma

    def test_source_properties(self, weighted_diamond):
        spd = dijkstra_spd(weighted_diamond, 0)
        assert spd.distance[0] == 0.0
        assert spd.sigma[0] == 1.0

    def test_order_sorted_by_distance(self, weighted_diamond):
        spd = dijkstra_spd(weighted_diamond, 0)
        distances = [spd.distance[v] for v in spd.order]
        assert distances == sorted(distances)

    def test_unreachable_vertex(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, 1.0)
        g.add_vertex(9)
        spd = dijkstra_spd(g, 0)
        assert not spd.is_reachable(9)

    def test_missing_source(self, weighted_diamond):
        with pytest.raises(VertexNotFoundError):
            dijkstra_spd(weighted_diamond, 99)
        with pytest.raises(IndexError):
            dijkstra_spd_csr(weighted_diamond.csr(), 99)

    def test_negative_weight_rejected_at_traversal(self):
        # Force a bad weight past add_edge's validation to check the guard
        # of the weighted kernels themselves.
        g = Graph(weighted=True)
        g.add_edge(0, 1, 1.0)
        g._adj[0][1] = -1.0  # bypass add_edge validation deliberately
        g._adj[1][0] = -1.0
        with pytest.raises(NegativeWeightError):
            dijkstra_spd(g, 0)

    def test_validate_on_weighted_spd(self, weighted_diamond):
        dijkstra_spd(weighted_diamond, 0).validate()

    def test_dijkstra_distances_helper(self, weighted_diamond):
        distances = dijkstra_distances(weighted_diamond, 0)
        assert distances[3] == 2.0
        assert distances[4] == 0.5


class TestAgainstNetworkx:
    def test_random_weighted_graph_distances(self):
        import networkx as nx
        import random

        rng = random.Random(4)
        g = Graph(weighted=True)
        nx_graph = nx.Graph()
        # random connected weighted graph on 20 vertices
        for v in range(1, 20):
            u = rng.randrange(v)
            w = rng.choice([0.5, 1.0, 1.5, 2.0])
            g.add_edge(u, v, w)
            nx_graph.add_edge(u, v, weight=w)
        for _ in range(20):
            u, v = rng.sample(range(20), 2)
            if not g.has_edge(u, v):
                w = rng.choice([0.5, 1.0, 1.5, 2.0])
                g.add_edge(u, v, w)
                nx_graph.add_edge(u, v, weight=w)
        ours = dijkstra_distances(g, 0)
        theirs = nx.single_source_dijkstra_path_length(nx_graph, 0)
        for v in theirs:
            assert ours[v] == pytest.approx(theirs[v])
