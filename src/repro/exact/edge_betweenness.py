"""Exact edge betweenness centrality.

The introduction of the paper motivates betweenness with the Girvan–Newman
community-detection loop, which repeatedly removes the edge with the highest
betweenness.  The example ``examples/community_detection.py`` uses this
module, so the reproduction ships the edge variant as well.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.shortest_paths.dependencies import accumulate_dependencies_csr, csr_spd_builder

__all__ = ["edge_betweenness_centrality", "top_edge"]


def _canonical(u: Vertex, v: Vertex, directed: bool) -> Tuple[Vertex, Vertex]:
    """Return a canonical key for an edge (sorted endpoints when undirected)."""
    if directed:
        return (u, v)
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        # Vertices that are not mutually orderable: fall back to repr order.
        return (u, v) if repr(u) <= repr(v) else (v, u)


def edge_betweenness_centrality(
    graph: Graph, *, normalized: bool = True
) -> Dict[Tuple[Vertex, Vertex], float]:
    """Return the exact betweenness centrality of every edge.

    With ``normalized=True`` scores are divided by ``|V| (|V| - 1)`` (ordered
    source/target pairs), matching the vertex-level "paper" convention.

    Per source, each DAG arc ``p -> c`` carries ``sigma_p * ((delta_c + 1) *
    (1 / sigma_c))``, with ``delta`` from the library's one Brandes pass.
    An edge is a DAG arc in at most one direction, so each edge's score is
    a sum in source order.
    """
    keys = list(dict.fromkeys(_canonical(u, v, graph.directed) for u, v in graph.edges()))
    edge_id = {key: i for i, key in enumerate(keys)}
    csr = graph.csr()
    n = csr.number_of_vertices()
    # Arc -> edge id, looked up by the sorted ``tail * n + head`` arc keys.
    tails = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    arc_keys = tails * n + csr.indices
    by_key = np.argsort(arc_keys, kind="stable")
    sorted_keys = arc_keys[by_key]
    label = csr.vertices
    arc_edge = np.array(
        [
            edge_id[_canonical(label[u], label[v], graph.directed)]
            for u, v in zip(tails.tolist(), csr.indices.tolist())
        ],
        dtype=np.int64,
    )[by_key]
    scores = np.zeros(len(keys))
    build = csr_spd_builder(csr)
    for s in range(n):
        spd = build(csr, s)
        delta = accumulate_dependencies_csr(spd)
        sig = spd.sig
        parents = spd.pred_indices
        children = np.repeat(np.arange(n, dtype=np.int64), np.diff(spd.pred_indptr))
        contribution = sig[parents] * ((delta[children] + 1.0) * (1.0 / sig[children]))
        scores[arc_edge[np.searchsorted(sorted_keys, parents * n + children)]] += contribution
    if normalized and n > 1:
        scores *= 1.0 / (n * (n - 1))
    return dict(zip(keys, scores.tolist()))


def top_edge(graph: Graph) -> Tuple[Vertex, Vertex]:
    """Return the edge with the highest betweenness (ties broken arbitrarily).

    Raises
    ------
    ConfigurationError
        If the graph has no edges.
    """
    if graph.number_of_edges() == 0:
        raise ConfigurationError("the graph has no edges")
    scores = edge_betweenness_centrality(graph, normalized=False)
    return max(scores, key=scores.get)
