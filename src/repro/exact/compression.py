"""Degree-one compression preprocessing (Çatalyürek et al. 2013 style).

Section 3 of the paper cites compression and shattering as the standard
practical accelerators of Brandes's algorithm.  This module implements the
degree-one ("pendant removal") compression step and the exact reconstruction
of betweenness scores from the compressed graph.

The idea: a degree-one vertex hangs off the rest of the graph by a single
edge, so every shortest path touching it is forced through its neighbour.
Removing pendant vertices iteratively peels off a *pendant forest* rooted at
the surviving 2-core vertices.  Exact betweenness then decomposes into

* a multiplicity-weighted Brandes run over the compressed graph (pairs whose
  endpoints fold into two *different* surviving vertices, credited to the
  surviving vertices strictly between them), plus
* closed-form tree corrections for the pendant forest (pairs with an endpoint
  strictly inside a pendant subtree always cross the subtree's unique tree
  path, so every vertex on that path has pair dependency exactly 1).

The test-suite checks the reconstruction against plain Brandes on trees,
lollipops, and random graphs with pendant decorations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.shortest_paths.dependencies import csr_spd_builder

__all__ = ["CompressedGraph", "compress_degree_one", "betweenness_with_compression"]


@dataclass
class CompressedGraph:
    """Result of iterative degree-one compression.

    Attributes
    ----------
    graph:
        The compressed graph; every remaining vertex has degree >= 2 unless
        the whole graph collapsed to a single vertex or edge.
    multiplicity:
        For each surviving vertex *x*, the number of original vertices folded
        into it (itself plus its entire pendant subtree).
    removed:
        Vertices removed, in removal order.
    parent:
        For each removed vertex, the neighbour it was folded into at removal
        time (which may itself have been removed later).
    reach:
        For each removed vertex *u*, the number of original vertices in the
        pendant subtree rooted at *u* (including *u*).
    children:
        For every vertex (removed or surviving), the list of its *removed*
        pendant children in the pendant forest.
    original_size:
        ``|V|`` of the original graph.
    """

    graph: Graph
    multiplicity: Dict[Vertex, float]
    removed: List[Vertex] = field(default_factory=list)
    parent: Dict[Vertex, Vertex] = field(default_factory=dict)
    reach: Dict[Vertex, int] = field(default_factory=dict)
    children: Dict[Vertex, List[Vertex]] = field(default_factory=dict)
    original_size: int = 0

    def compression_ratio(self) -> float:
        """Return ``|V_compressed| / |V_original|`` (1.0 when nothing was removed)."""
        if self.original_size == 0:
            return 1.0
        return self.graph.number_of_vertices() / self.original_size


def compress_degree_one(graph: Graph) -> CompressedGraph:
    """Iteratively remove degree-one vertices, recording the pendant forest."""
    graph.require_undirected()
    work = graph.copy()
    reach: Dict[Vertex, int] = {v: 1 for v in work.vertices()}
    parent: Dict[Vertex, Vertex] = {}
    children: Dict[Vertex, List[Vertex]] = {v: [] for v in work.vertices()}
    removed: List[Vertex] = []

    pendants = [v for v in work.vertices() if work.degree(v) == 1]
    while pendants and work.number_of_vertices() > 2:
        next_round: List[Vertex] = []
        for v in pendants:
            if not work.has_vertex(v) or work.degree(v) != 1:
                continue
            if work.number_of_vertices() <= 2:
                break
            neighbor = next(iter(work.neighbors(v)))
            parent[v] = neighbor
            children[neighbor].append(v)
            reach[neighbor] += reach[v]
            work.remove_vertex(v)
            removed.append(v)
            if work.has_vertex(neighbor) and work.degree(neighbor) == 1:
                next_round.append(neighbor)
        pendants = next_round

    multiplicity = {v: float(reach[v]) for v in work.vertices()}
    return CompressedGraph(
        graph=work,
        multiplicity=multiplicity,
        removed=removed,
        parent=parent,
        reach={v: reach[v] for v in removed},
        children=children,
        original_size=graph.number_of_vertices(),
    )


def _weighted_core_betweenness(compressed: CompressedGraph) -> Dict[Vertex, float]:
    """Return ordered-pair dependency sums for surviving vertices from core pairs.

    Runs Brandes over the compressed graph where a source *s* stands for
    ``multiplicity[s]`` original sources and a target *w* for
    ``multiplicity[w]`` original targets.  Only surviving vertices *strictly
    between* source and target representatives receive credit here; the
    endpoints' own credit comes from the tree corrections.
    """
    csr = compressed.graph.csr()
    mult = [compressed.multiplicity[v] for v in csr.vertices]
    build = csr_spd_builder(csr)
    raw = np.zeros(csr.number_of_vertices())
    for s in range(csr.number_of_vertices()):
        spd = build(csr, s)
        sig = spd.sig.tolist()
        ptr = spd.pred_indptr.tolist()
        parents = spd.pred_indices.tolist()
        delta = [0.0] * len(sig)
        for w in reversed(spd.order_indices.tolist()):
            coefficient = (mult[w] + delta[w]) / sig[w]
            for v in parents[ptr[w] : ptr[w + 1]]:
                delta[v] += sig[v] * coefficient
        # ``delta[v]`` for v != s now counts, with weight mult[w], the pair
        # dependencies of all targets w != s on v — including w's folded
        # vertices.  Multiplying by mult[s] extends it to all folded sources.
        # The source representative s itself must not be credited here (it is
        # an endpoint for these pairs), hence the zeroed source entry.
        delta[s] = 0.0
        raw += mult[s] * np.asarray(delta)
    return dict(zip(csr.vertices, raw.tolist()))


def _pendant_corrections(compressed: CompressedGraph) -> Dict[Vertex, float]:
    """Return ordered-pair dependency sums contributed by the pendant forest."""
    n = compressed.original_size
    corrections: Dict[Vertex, float] = {}

    # Removed vertices: below(u) = reach[u] - 1 vertices hang strictly below.
    for u in compressed.removed:
        below = compressed.reach[u] - 1
        child_sizes = [compressed.reach[c] for c in compressed.children.get(u, [])]
        cross = _cross_pairs(child_sizes)
        outside = n - compressed.reach[u]  # everything not in u's subtree
        corrections[u] = 2.0 * (below * outside + cross)

    # Surviving vertices: below(x) = multiplicity[x] - 1.
    for x in compressed.graph.vertices():
        mult_x = compressed.multiplicity[x]
        below = mult_x - 1.0
        child_sizes = [compressed.reach[c] for c in compressed.children.get(x, [])]
        cross = _cross_pairs(child_sizes)
        outside = n - mult_x  # original vertices folded into other survivors
        corrections[x] = 2.0 * (below * outside + cross)
    return corrections


def _cross_pairs(sizes: List[int]) -> float:
    """Return the number of unordered pairs taken from two *different* groups."""
    total = sum(sizes)
    return (total * total - sum(s * s for s in sizes)) / 2.0


def betweenness_with_compression(
    graph: Graph, *, normalization: str = "paper"
) -> Dict[Vertex, float]:
    """Exact betweenness of every vertex computed through degree-one compression.

    Equivalent to :func:`repro.exact.brandes.betweenness_centrality` but runs
    Brandes only on the 2-core, which is substantially faster on graphs with
    many pendant vertices (trees, lollipops, scale-free graphs with a large
    1-shell).
    """
    from repro.exact.brandes import normalization_factor

    compressed = compress_degree_one(graph)
    raw = _weighted_core_betweenness(compressed)
    corrections = _pendant_corrections(compressed)
    scores: Dict[Vertex, float] = {}
    for v in graph.vertices():
        scores[v] = raw.get(v, 0.0) + corrections.get(v, 0.0)
    factor = normalization_factor(
        compressed.original_size, normalization, directed=graph.directed
    )
    return {v: score * factor for v, score in scores.items()}
