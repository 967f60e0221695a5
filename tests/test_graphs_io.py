"""Tests for graph serialisation (edge lists, JSON, networkx interop)."""

from __future__ import annotations

import pytest

from repro.errors import GraphError, NegativeWeightError
from repro.graphs import Graph, barbell_graph, path_graph
from repro.graphs.csr import np
from repro.graphs.io import (
    format_edge_list,
    from_dict,
    from_networkx,
    parse_edge_list,
    parse_edge_list_csr,
    read_edge_list,
    read_edge_list_csr,
    read_json,
    to_dict,
    to_networkx,
    write_edge_list,
    write_json,
)


class TestEdgeList:
    def test_format_unweighted(self, path5):
        text = format_edge_list(path5)
        lines = text.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["0", "1"]

    def test_format_weighted(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, 2.5)
        assert format_edge_list(g).strip() == "0 1 2.5"

    def test_parse_round_trip(self, barbell):
        text = format_edge_list(barbell)
        rebuilt = parse_edge_list(text.splitlines())
        assert rebuilt.number_of_vertices() == barbell.number_of_vertices()
        assert rebuilt.number_of_edges() == barbell.number_of_edges()
        for u, v in barbell.edges():
            assert rebuilt.has_edge(u, v)

    def test_parse_skips_comments_and_blank_lines(self):
        lines = ["# header", "", "0 1", "  ", "1 2"]
        g = parse_edge_list(lines)
        assert g.number_of_edges() == 2

    def test_parse_drops_self_loops(self):
        g = parse_edge_list(["0 0", "0 1"])
        assert g.number_of_edges() == 1

    def test_parse_weighted(self):
        g = parse_edge_list(["0 1 4.0"], weighted=True)
        assert g.edge_weight(0, 1) == 4.0

    def test_parse_weighted_default_weight(self):
        g = parse_edge_list(["0 1"], weighted=True)
        assert g.edge_weight(0, 1) == 1.0

    def test_parse_invalid_line(self):
        with pytest.raises(GraphError):
            parse_edge_list(["justone"])

    def test_parse_invalid_vertex_token(self):
        with pytest.raises(GraphError):
            parse_edge_list(["a b"])  # default vertex_type=int

    def test_parse_invalid_weight_token(self):
        with pytest.raises(GraphError):
            parse_edge_list(["0 1 notaweight"], weighted=True)

    def test_parse_string_vertices(self):
        g = parse_edge_list(["alice bob"], vertex_type=str)
        assert g.has_edge("alice", "bob")

    def test_file_round_trip(self, tmp_path, barbell):
        path = tmp_path / "graph.edges"
        write_edge_list(barbell, path)
        rebuilt = read_edge_list(path)
        assert rebuilt.number_of_edges() == barbell.number_of_edges()

    def test_self_loop_with_malformed_weight_is_skipped(self):
        # Self-loops are dropped *before* the weight token is inspected,
        # so a junk weight on a skipped line must not raise.
        g = parse_edge_list(["1 1 garbage", "0 1 2.0"], weighted=True)
        assert g.number_of_edges() == 1
        assert g.edge_weight(0, 1) == 2.0

    def test_malformed_weight_reports_the_physical_line_number(self):
        # Regression: skipped lines (comments, self-loops) still advance
        # the line counter, so the error names the file's real line.
        lines = ["# header", "0 1", "2 2 junk-on-a-skipped-line", "1 2 bad"]
        with pytest.raises(GraphError, match="line 4"):
            parse_edge_list(lines, weighted=True)
        with pytest.raises(GraphError, match="line 4"):
            parse_edge_list_csr(lines, weighted=True)

    def test_streamed_write_matches_format_edge_list(self, tmp_path, monkeypatch):
        # Force several flush batches and check the bytes are identical to
        # the all-at-once formatter.
        import repro.graphs.io as io_mod

        monkeypatch.setattr(io_mod, "EDGE_LIST_CHUNK", 3)
        g = barbell_graph(5, 3)
        path = tmp_path / "graph.edges"
        write_edge_list(g, path)
        assert path.read_text(encoding="utf-8") == format_edge_list(g)

    def test_streamed_write_empty_graph(self, tmp_path):
        g = Graph()
        g.add_vertex(0)
        path = tmp_path / "empty.edges"
        write_edge_list(g, path)
        assert path.read_text(encoding="utf-8") == format_edge_list(g) == ""


class TestEdgeListCSR:
    """parse_edge_list_csr must match parse_edge_list(...).csr() byte for byte."""

    @staticmethod
    def _assert_csr_identical(streamed, reference):
        assert np.array_equal(streamed.indptr, reference.indptr)
        assert np.array_equal(streamed.indices, reference.indices)
        assert np.array_equal(streamed.weights, reference.weights)
        assert streamed.indptr.dtype == reference.indptr.dtype
        assert streamed.indices.dtype == reference.indices.dtype
        assert streamed.weights.dtype == reference.weights.dtype
        assert streamed.vertices == reference.vertices
        assert streamed.directed == reference.directed
        assert streamed.weighted == reference.weighted

    MESSY = [
        "# comment",
        "",
        "4 2",
        "0 1",
        "3 3",  # self-loop, dropped
        "1 0",  # duplicate of 0-1 (reversed arc already present)
        "2 0",
        "   ",
        "0 1",  # exact duplicate
        "5 4",
        "3 5",
    ]

    def test_undirected_byte_identity(self):
        streamed = parse_edge_list_csr(self.MESSY)
        reference = parse_edge_list(self.MESSY).csr()
        self._assert_csr_identical(streamed, reference)

    def test_directed_byte_identity(self):
        streamed = parse_edge_list_csr(self.MESSY, directed=True)
        reference = parse_edge_list(self.MESSY, directed=True).csr()
        self._assert_csr_identical(streamed, reference)

    def test_weighted_last_duplicate_weight_wins(self):
        lines = ["0 1 2.0", "1 2 3.0", "0 1 5.0", "2 0"]
        streamed = parse_edge_list_csr(lines, weighted=True)
        reference = parse_edge_list(lines, weighted=True).csr()
        self._assert_csr_identical(streamed, reference)
        row = streamed.indices[streamed.indptr[0] : streamed.indptr[1]].tolist()
        weights = streamed.weights[streamed.indptr[0] : streamed.indptr[1]]
        assert weights[row.index(streamed.index_of(1))] == 5.0

    def test_tiny_chunks_are_equivalent(self):
        streamed = parse_edge_list_csr(self.MESSY, chunk_edges=2)
        reference = parse_edge_list(self.MESSY).csr()
        self._assert_csr_identical(streamed, reference)

    def test_string_vertices_first_appearance_order(self):
        lines = ["carol alice", "alice bob", "bob carol"]
        streamed = parse_edge_list_csr(lines, vertex_type=str)
        reference = parse_edge_list(lines, vertex_type=str).csr()
        self._assert_csr_identical(streamed, reference)
        assert streamed.vertices == ("carol", "alice", "bob")

    def test_comments_only_yields_an_empty_graph(self):
        streamed = parse_edge_list_csr(["# nothing", "", "  "])
        assert streamed.number_of_vertices() == 0
        assert streamed.indices.shape == (0,)

    def test_nonpositive_weight_raises_like_the_dict_route(self):
        with pytest.raises(NegativeWeightError):
            parse_edge_list(["0 1 -2.0"], weighted=True)
        with pytest.raises(NegativeWeightError):
            parse_edge_list_csr(["0 1 -2.0"], weighted=True)

    def test_invalid_lines_raise_with_line_numbers(self):
        with pytest.raises(GraphError, match="line 1"):
            parse_edge_list_csr(["justone"])
        with pytest.raises(GraphError, match="line 2"):
            parse_edge_list_csr(["0 1", "a b"])

    def test_file_round_trip_matches_dict_route(self, tmp_path):
        g = barbell_graph(6, 2)
        path = tmp_path / "graph.edges"
        write_edge_list(g, path)
        streamed = read_edge_list_csr(path)
        reference = read_edge_list(path).csr()
        self._assert_csr_identical(streamed, reference)

    def test_weighted_file_round_trip(self, tmp_path):
        g = Graph(weighted=True)
        g.add_edge(0, 1, 2.5)
        g.add_edge(1, 2, 0.25)
        g.add_edge(2, 0, 4.0)
        path = tmp_path / "graph.edges"
        write_edge_list(g, path)
        streamed = read_edge_list_csr(path, weighted=True)
        reference = read_edge_list(path, weighted=True).csr()
        self._assert_csr_identical(streamed, reference)


class TestJson:
    def test_dict_round_trip(self, barbell):
        data = to_dict(barbell)
        rebuilt = from_dict(data)
        assert rebuilt.number_of_vertices() == barbell.number_of_vertices()
        assert rebuilt.number_of_edges() == barbell.number_of_edges()

    def test_dict_preserves_flags(self):
        g = Graph(directed=True, weighted=True)
        g.add_edge(0, 1, 3.0)
        rebuilt = from_dict(to_dict(g))
        assert rebuilt.directed and rebuilt.weighted
        assert rebuilt.edge_weight(0, 1) == 3.0

    def test_from_dict_malformed(self):
        with pytest.raises(GraphError):
            from_dict({"vertices": [1, 2]})

    def test_json_file_round_trip(self, tmp_path, path5):
        path = tmp_path / "graph.json"
        write_json(path5, path)
        rebuilt = read_json(path)
        assert rebuilt.number_of_edges() == 4

    def test_isolated_vertices_survive_round_trip(self):
        g = Graph()
        g.add_vertex(7)
        g.add_edge(0, 1)
        rebuilt = from_dict(to_dict(g))
        assert rebuilt.has_vertex(7)


class TestNetworkxInterop:
    def test_to_networkx(self, barbell):
        nx_graph = to_networkx(barbell)
        assert nx_graph.number_of_nodes() == barbell.number_of_vertices()
        assert nx_graph.number_of_edges() == barbell.number_of_edges()

    def test_from_networkx(self):
        import networkx as nx

        nx_graph = nx.path_graph(4)
        g = from_networkx(nx_graph)
        assert g.number_of_edges() == 3

    def test_round_trip_weighted(self):
        g = Graph(weighted=True)
        g.add_edge(0, 1, 2.0)
        g.add_edge(1, 2, 0.5)
        back = from_networkx(to_networkx(g), weighted=True)
        assert back.edge_weight(1, 2) == 0.5

    def test_from_networkx_drops_self_loops(self):
        import networkx as nx

        nx_graph = nx.Graph()
        nx_graph.add_edge(0, 0)
        nx_graph.add_edge(0, 1)
        g = from_networkx(nx_graph)
        assert g.number_of_edges() == 1
