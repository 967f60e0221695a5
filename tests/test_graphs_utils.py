"""Tests for graph statistics and helpers."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, GraphStructureError
from repro.graphs import Graph, complete_graph, path_graph, star_graph
from repro.graphs.utils import (
    average_clustering,
    average_degree,
    clustering_coefficient,
    degree_histogram,
    density,
    ensure_connected,
    graph_summary,
    random_vertex,
    random_vertices,
    triangle_count,
)


class TestStatistics:
    def test_density_complete(self):
        assert density(complete_graph(5)) == pytest.approx(1.0)

    def test_density_path(self, path5):
        assert density(path5) == pytest.approx(4 / 10)

    def test_density_tiny(self):
        g = Graph()
        g.add_vertex(0)
        assert density(g) == 0.0

    def test_average_degree(self, star6):
        # star: centre degree 6, six leaves degree 1
        assert average_degree(star6) == pytest.approx(12 / 7)

    def test_average_degree_empty(self):
        assert average_degree(Graph()) == 0.0

    def test_degree_histogram(self, star6):
        assert degree_histogram(star6) == {6: 1, 1: 6}

    def test_graph_summary_keys(self, barbell):
        summary = graph_summary(barbell)
        assert summary["vertices"] == 12.0
        assert summary["components"] == 1.0
        assert summary["max_degree"] == 5.0
        assert 0.0 < summary["density"] < 1.0


class TestRandomSelection:
    def test_random_vertex_is_member(self, barbell):
        assert random_vertex(barbell, seed=1) in barbell

    def test_random_vertex_empty_graph(self):
        with pytest.raises(GraphStructureError):
            random_vertex(Graph())

    def test_random_vertices_distinct(self, barbell):
        chosen = random_vertices(barbell, 5, seed=2)
        assert len(chosen) == 5
        assert len(set(chosen)) == 5

    def test_random_vertices_too_many(self, path5):
        with pytest.raises(ConfigurationError):
            random_vertices(path5, 9)

    def test_random_vertices_reproducible(self, barbell):
        assert random_vertices(barbell, 4, seed=3) == random_vertices(barbell, 4, seed=3)


class TestEnsureConnected:
    def test_connected_graph_passes(self, path5):
        ensure_connected(path5)  # no exception

    def test_disconnected_graph_raises(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(5)
        with pytest.raises(GraphStructureError):
            ensure_connected(g)

    def test_verdict_is_memoised_per_version(self, monkeypatch):
        import repro.graphs.utils as utils

        calls = []
        real = utils.is_connected
        monkeypatch.setattr(utils, "is_connected", lambda g: calls.append(1) or real(g))
        g = path_graph(5)
        ensure_connected(g)
        ensure_connected(g)
        assert len(calls) == 1
        g.add_edge(0, 4)
        ensure_connected(g)
        assert len(calls) == 2

    def test_disconnecting_mutation_still_raises(self, path5):
        ensure_connected(path5)
        path5.remove_edge(2, 3)
        with pytest.raises(GraphStructureError):
            ensure_connected(path5)
        path5.add_edge(2, 3)
        ensure_connected(path5)

    def test_disconnecting_mutation_inside_a_batch_still_raises(self, path5):
        with path5.batch_mutations():
            path5.add_edge(0, 4)
            ensure_connected(path5)
            path5.remove_edge(0, 4)
            path5.remove_edge(2, 3)
            with pytest.raises(GraphStructureError):
                ensure_connected(path5)
        with pytest.raises(GraphStructureError):
            ensure_connected(path5)

    def test_estimator_rejects_graph_disconnected_after_a_checked_call(self, path5):
        from repro.centrality import betweenness_single

        betweenness_single(path5, 2, method="mh", samples=20, seed=1)
        path5.remove_edge(3, 4)
        with pytest.raises(GraphStructureError):
            betweenness_single(path5, 2, method="mh", samples=20, seed=1)


class TestClustering:
    def test_triangle_count_in_clique(self):
        g = complete_graph(4)
        assert triangle_count(g, 0) == 3

    def test_triangle_count_in_star(self, star6):
        assert triangle_count(star6, 0) == 0

    def test_clustering_coefficient_clique(self):
        assert clustering_coefficient(complete_graph(5), 0) == pytest.approx(1.0)

    def test_clustering_coefficient_degree_one(self, star6):
        assert clustering_coefficient(star6, 1) == 0.0

    def test_average_clustering_bounds(self, small_ws):
        value = average_clustering(small_ws)
        assert 0.0 <= value <= 1.0

    def test_average_clustering_empty(self):
        assert average_clustering(Graph()) == 0.0
