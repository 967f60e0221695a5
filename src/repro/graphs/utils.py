"""Small graph statistics and helpers used across examples and benchmarks."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError, GraphStructureError
from repro.graphs.components import connected_components, is_connected
from repro.graphs.core import Graph, Vertex

__all__ = [
    "density",
    "average_degree",
    "degree_histogram",
    "graph_summary",
    "random_vertex",
    "random_vertices",
    "ensure_connected",
    "triangle_count",
    "clustering_coefficient",
    "average_clustering",
]


def density(graph: Graph) -> float:
    """Return the edge density of *graph* (0 for graphs with < 2 vertices)."""
    n = graph.number_of_vertices()
    if n < 2:
        return 0.0
    m = graph.number_of_edges()
    possible = n * (n - 1)
    if not graph.directed:
        possible //= 2
    return m / possible


def average_degree(graph: Graph) -> float:
    """Return the mean degree."""
    n = graph.number_of_vertices()
    if n == 0:
        return 0.0
    return sum(graph.degree(v) for v in graph) / n


def degree_histogram(graph: Graph) -> Dict[int, int]:
    """Return ``{degree: number of vertices with that degree}``."""
    histogram: Dict[int, int] = {}
    for v in graph:
        d = graph.degree(v)
        histogram[d] = histogram.get(d, 0) + 1
    return histogram


def graph_summary(graph: Graph) -> Dict[str, float]:
    """Return a compact statistics dictionary used in benchmark reports."""
    degrees = [graph.degree(v) for v in graph]
    n = graph.number_of_vertices()
    return {
        "vertices": float(n),
        "edges": float(graph.number_of_edges()),
        "density": density(graph),
        "average_degree": average_degree(graph),
        "max_degree": float(max(degrees)) if degrees else 0.0,
        "min_degree": float(min(degrees)) if degrees else 0.0,
        "components": float(len(connected_components(graph))),
    }


def random_vertex(graph: Graph, seed: RandomState = None) -> Vertex:
    """Return a vertex chosen uniformly at random."""
    if graph.number_of_vertices() == 0:
        raise GraphStructureError("cannot sample a vertex from an empty graph")
    rng = ensure_rng(seed)
    vertices = graph.vertices()
    return vertices[rng.randrange(len(vertices))]


def random_vertices(graph: Graph, k: int, seed: RandomState = None) -> List[Vertex]:
    """Return *k* distinct vertices chosen uniformly at random."""
    n = graph.number_of_vertices()
    if not 0 <= k <= n:
        raise ConfigurationError(f"k must be in [0, {n}], got {k}")
    rng = ensure_rng(seed)
    return rng.sample(graph.vertices(), k)


def ensure_connected(graph: Graph) -> None:
    """Raise :class:`GraphStructureError` unless *graph* is connected.

    The paper assumes connected input graphs; the high-level estimators call
    this before running so the error surfaces early and clearly.

    The verdict is memoised per ``(graph, graph.version)``: every mutation
    bumps the version, so a cached verdict can never outlive the structure
    it was computed on.
    """
    version = graph.version
    memo = graph._connectivity
    if memo is not None and memo[0] == version:
        connected = memo[1]
    else:
        connected = is_connected(graph)
        # Inside an open batch_mutations() block later mutations keep this
        # version, so a verdict taken there is never stored.
        if not graph.in_batch:
            graph._connectivity = (version, connected)
    if not connected:
        raise GraphStructureError(
            "the input graph must be connected; extract the largest connected "
            "component first (repro.graphs.largest_connected_component)"
        )


def triangle_count(graph: Graph, vertex: Vertex) -> int:
    """Return the number of triangles through *vertex* (undirected graphs)."""
    graph.require_undirected()
    graph.validate_vertex(vertex)
    neighbors = list(graph.neighbors(vertex))
    count = 0
    neighbor_set = set(neighbors)
    for i, u in enumerate(neighbors):
        for v in neighbors[i + 1 :]:
            if graph.has_edge(u, v):
                count += 1
    return count


def clustering_coefficient(graph: Graph, vertex: Vertex) -> float:
    """Return the local clustering coefficient of *vertex*."""
    d = graph.degree(vertex)
    if d < 2:
        return 0.0
    possible = d * (d - 1) / 2
    return triangle_count(graph, vertex) / possible


def average_clustering(graph: Graph) -> float:
    """Return the mean local clustering coefficient over all vertices."""
    n = graph.number_of_vertices()
    if n == 0:
        return 0.0
    return sum(clustering_coefficient(graph, v) for v in graph) / n
