"""Tests for the core Graph data structure."""

from __future__ import annotations

import pytest

from repro.errors import (
    EdgeNotFoundError,
    GraphStructureError,
    NegativeWeightError,
    VertexNotFoundError,
)
from repro.graphs import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.number_of_vertices() == 0
        assert g.number_of_edges() == 0
        assert len(g) == 0
        assert list(g) == []

    def test_add_vertex(self):
        g = Graph()
        g.add_vertex("a")
        assert "a" in g
        assert g.number_of_vertices() == 1

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(1)
        g.add_vertex(1)
        assert g.number_of_vertices() == 1

    def test_add_vertices_from(self):
        g = Graph()
        g.add_vertices_from(range(5))
        assert g.number_of_vertices() == 5

    def test_add_edge_adds_endpoints(self):
        g = Graph()
        g.add_edge(0, 1)
        assert g.has_vertex(0) and g.has_vertex(1)
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert g.number_of_edges() == 1

    def test_add_edges_from_pairs_and_triples(self):
        g = Graph(weighted=True)
        g.add_edges_from([(0, 1), (1, 2, 3.5)])
        assert g.edge_weight(1, 2) == 3.5
        assert g.edge_weight(0, 1) == 1.0

    def test_add_edges_from_bad_tuple(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edges_from([(0, 1, 2, 3)])

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphStructureError):
            g.add_edge(3, 3)

    def test_readding_edge_does_not_duplicate(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.number_of_edges() == 1

    def test_unweighted_forces_unit_weight(self):
        g = Graph()
        g.add_edge(0, 1, weight=7.0)
        assert g.edge_weight(0, 1) == 1.0

    def test_weighted_keeps_weight(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, weight=7.0)
        assert g.edge_weight(0, 1) == 7.0

    def test_weighted_rejects_nonpositive(self):
        g = Graph(weighted=True)
        with pytest.raises(NegativeWeightError):
            g.add_edge(0, 1, weight=0.0)
        with pytest.raises(NegativeWeightError):
            g.add_edge(0, 1, weight=-1.0)

    def test_hashable_vertex_labels(self):
        g = Graph()
        g.add_edge("alice", ("tuple", 1))
        assert g.has_edge("alice", ("tuple", 1))


class TestRemoval:
    def test_remove_edge(self):
        g = Graph()
        g.add_edge(0, 1)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.number_of_edges() == 0
        assert g.has_vertex(0) and g.has_vertex(1)

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(0, 2)

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 2)
        g.remove_vertex(0)
        assert g.number_of_vertices() == 2
        assert g.number_of_edges() == 1
        assert g.has_edge(1, 2)

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(99)


class TestQueries:
    def test_neighbors(self, star6):
        assert sorted(star6.neighbors(0)) == [1, 2, 3, 4, 5, 6]
        assert list(star6.neighbors(3)) == [0]

    def test_neighbors_missing_vertex(self, star6):
        with pytest.raises(VertexNotFoundError):
            list(star6.neighbors(99))

    def test_degree(self, star6):
        assert star6.degree(0) == 6
        assert star6.degree(1) == 1

    def test_degree_sequence(self, star6):
        assert star6.degree_sequence() == [6, 1, 1, 1, 1, 1, 1]

    def test_edges_iteration_counts_each_edge_once(self, barbell):
        edges = list(barbell.edges())
        assert len(edges) == barbell.number_of_edges()
        seen = {frozenset(e) for e in edges}
        assert len(seen) == len(edges)

    def test_edges_with_data(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, 2.5)
        assert list(g.edges(data=True)) == [(0, 1, 2.5)]

    def test_adjacency_returns_copy(self):
        g = Graph()
        g.add_edge(0, 1)
        adj = g.adjacency(0)
        adj[99] = 1.0
        assert not g.has_edge(0, 99)

    def test_edge_weight_missing(self):
        g = Graph()
        g.add_edge(0, 1)
        with pytest.raises(EdgeNotFoundError):
            g.edge_weight(0, 2)

    def test_repr_contains_counts(self, path5):
        text = repr(path5)
        assert "5 vertices" in text and "4 edges" in text


class TestDirected:
    def test_directed_edges_are_ordered(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_predecessors(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        assert sorted(g.predecessors(1)) == [0, 2]
        assert list(g.predecessors(0)) == []

    def test_in_degree(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)
        assert g.in_degree(1) == 2
        assert g.degree(1) == 0

    def test_remove_vertex_directed(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        g.remove_vertex(1)
        assert g.number_of_edges() == 1
        assert g.has_edge(2, 0)

    def test_to_undirected(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        und = g.to_undirected()
        assert not und.directed
        assert und.has_edge(1, 0)

    def test_require_undirected(self):
        g = Graph(directed=True)
        with pytest.raises(GraphStructureError):
            g.require_undirected()


class TestDerivedGraphs:
    def test_copy_is_independent(self, path5):
        copy = path5.copy()
        copy.add_edge(0, 4)
        assert not path5.has_edge(0, 4)
        assert copy.number_of_edges() == path5.number_of_edges() + 1

    def test_copy_preserves_weights(self, weighted_diamond):
        copy = weighted_diamond.copy()
        assert copy.weighted
        assert copy.edge_weight(0, 4) == 0.5

    def test_copy_keeps_adjacency_order(self):
        """The copy's CSR snapshot — and hence every traversal over it — is
        byte-identical to the original's, not merely isomorphic."""
        import numpy as np

        from repro.graphs import barabasi_albert_graph
        from repro.shortest_paths import csr_source_dependencies

        graph = barabasi_albert_graph(300, 3, seed=4)
        original, copied = graph.csr(), graph.copy().csr()
        assert np.array_equal(copied.indptr, original.indptr)
        assert np.array_equal(copied.indices, original.indices)
        assert np.array_equal(copied.weights, original.weights)
        assert copied.vertices == original.vertices
        for source in range(original.number_of_vertices()):
            assert np.array_equal(
                csr_source_dependencies(copied, source),
                csr_source_dependencies(original, source),
            ), source

    def test_directed_copy_keeps_both_adjacency_maps(self):
        graph = Graph.from_edges([(2, 0), (0, 1), (1, 2), (3, 1)], directed=True)
        copy = graph.copy()
        assert copy.directed and copy.number_of_edges() == graph.number_of_edges()
        for v in graph.vertices():
            assert list(copy.neighbors(v)) == list(graph.neighbors(v))
            assert list(copy.predecessors(v)) == list(graph.predecessors(v))
        copy.add_edge(0, 3)
        assert not graph.has_edge(0, 3)
        assert 0 not in list(graph.predecessors(3))

    def test_subgraph(self, barbell):
        sub = barbell.subgraph(range(5))
        assert sub.number_of_vertices() == 5
        assert sub.number_of_edges() == 10  # K5

    def test_subgraph_ignores_unknown_vertices(self, path5):
        sub = path5.subgraph([0, 1, 99])
        assert sub.number_of_vertices() == 2

    def test_without_vertex(self, star6):
        reduced = star6.without_vertex(0)
        assert reduced.number_of_vertices() == 6
        assert reduced.number_of_edges() == 0

    def test_without_missing_vertex_raises(self, star6):
        with pytest.raises(VertexNotFoundError):
            star6.without_vertex(42)

    def test_relabelled(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        new, mapping = g.relabelled()
        assert sorted(new.vertices()) == [0, 1, 2]
        assert new.has_edge(mapping["a"], mapping["b"])
        assert new.number_of_edges() == 2
