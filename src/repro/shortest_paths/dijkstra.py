"""Dijkstra-based construction of shortest-path DAGs for weighted graphs.

The paper's algorithms apply unchanged to weighted graphs with strictly
positive weights; the per-sample cost becomes
``O(|E(G)| + |V(G)| log |V(G)|)``.  This module provides the weighted
counterpart of :func:`repro.shortest_paths.bfs.bfs_spd`.

Array-native rung
-----------------
The CSR kernels here are the interpreter rung of the weighted kernel
ladder (the compiled twins live in :mod:`repro.shortest_paths.compiled`).
All per-source state is preallocated flat storage — distance, tentative
distance, path-count and predecessor-offset arrays — refilled per source
with no dict or ``itertools.count`` churn, and the adjacency is walked
through a cached per-snapshot list-of-``(neighbour, weight)`` view
(:func:`csr_adjacency_pairs`) instead of per-edge numpy scalar reads.
The priority queue is CPython's C-accelerated ``heapq`` over
``(distance, counter, vertex)`` entries: the counter makes the key set
strictly totally ordered, so *any* correct binary heap — this one and the
flat-array heap of the compiled twin — pops vertices in the identical
order, which is what makes the rungs bit-identical (same settle order ⇒
same relaxation sequence ⇒ same float partial sums).

Tie handling mirrors the dict rung exactly: a candidate path ties an
existing distance when ``|candidate - existing| <= _EPSILON *
max(1.0, candidate)`` (weights are strictly positive, so candidates are
non-negative and the ``abs`` of the reference comparison is redundant).
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import NegativeWeightError
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.shortest_paths.spd import CSRShortestPathDAG, ShortestPathDAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "dijkstra_spd",
    "dijkstra_distances",
    "dijkstra_spd_csr",
    "dijkstra_distances_csr",
    "dijkstra_source_dependencies_csr",
    "csr_adjacency_pairs",
    "validate_positive_weights",
]

#: Tolerance used when comparing path lengths for equality.  Weighted
#: shortest-path counting needs an explicit tolerance because float addition
#: is not associative; 1e-12 relative to typical weights keeps path counts
#: exact for the weight ranges used in the benchmarks.
_EPSILON = 1e-12

_INF = float("inf")


def dijkstra_spd(graph: Graph, source: Vertex) -> ShortestPathDAG:
    """Return the shortest-path DAG rooted at *source* for a weighted graph.

    Raises
    ------
    NegativeWeightError
        If an edge with non-positive weight is encountered.
    """
    graph.validate_vertex(source)
    distance: Dict[Vertex, float] = {}
    sigma: Dict[Vertex, float] = {source: 1.0}
    predecessors: Dict[Vertex, List[Vertex]] = {source: []}
    order: List[Vertex] = []
    seen: Dict[Vertex, float] = {source: 0.0}
    counter = itertools.count()
    heap: List = [(0.0, next(counter), source)]
    while heap:
        dist_u, _, u = heapq.heappop(heap)
        if u in distance:
            continue  # already settled via a shorter path
        distance[u] = dist_u
        order.append(u)
        for v, weight in graph.adjacency(u).items():
            if weight <= 0.0:
                raise NegativeWeightError(u, v, weight)
            candidate = dist_u + weight
            if v in distance:
                # Already settled: only register an extra predecessor when
                # the candidate matches the settled distance exactly.
                if abs(candidate - distance[v]) <= _EPSILON * max(1.0, abs(candidate)):
                    sigma[v] += sigma[u]
                    predecessors[v].append(u)
                continue
            previous = seen.get(v)
            if previous is None or candidate < previous - _EPSILON * max(1.0, abs(candidate)):
                seen[v] = candidate
                sigma[v] = sigma[u]
                predecessors[v] = [u]
                heapq.heappush(heap, (candidate, next(counter), v))
            elif abs(candidate - previous) <= _EPSILON * max(1.0, abs(candidate)):
                sigma[v] += sigma[u]
                predecessors[v].append(u)
    return ShortestPathDAG(
        source=source,
        distance=distance,
        sigma=sigma,
        predecessors=predecessors,
        order=order,
    )


def dijkstra_distances(graph: Graph, source: Vertex) -> Dict[Vertex, float]:
    """Return only the distance map from *source* in a weighted graph."""
    spd = dijkstra_spd(graph, source)
    return dict(spd.distance)


def csr_adjacency_pairs(csr: "CSRGraph") -> List[List[Tuple[int, float]]]:
    """Return (and cache on *csr*) the list-of-pairs adjacency view.

    ``result[u]`` is the list of ``(neighbour_index, weight)`` pairs of
    vertex ``u`` in CSR edge order — the representation the interpreter
    Dijkstra loops iterate, trading one ``O(m)`` conversion per snapshot
    for the removal of every per-edge numpy scalar read.  The conversion
    also performs the weight-positivity check once for the whole snapshot
    (vectorised), so the traversal loops carry no per-edge guard.

    Raises
    ------
    NegativeWeightError
        If any edge of the snapshot has a non-positive weight.  Stricter
        than the old per-edge traversal guard (which only saw edges
        reachable from the queried source); a snapshot either passes for
        every source or raises for every source.
    """
    adjacency = csr._dijkstra_adj
    if adjacency is not None:
        return adjacency
    validate_positive_weights(csr)
    indptr = csr.indptr.tolist()
    pairs = list(zip(csr.indices.tolist(), csr.weights.tolist()))
    adjacency = [pairs[indptr[u] : indptr[u + 1]] for u in range(len(indptr) - 1)]
    csr._dijkstra_adj = adjacency
    return adjacency


def validate_positive_weights(csr: "CSRGraph") -> None:
    """Raise :class:`NegativeWeightError` if any weight of *csr* is <= 0.

    One vectorised pass over the whole snapshot; a built pair view
    (:func:`csr_adjacency_pairs`) proves the check already passed, so
    repeat calls are free.
    """
    if csr._dijkstra_adj is not None:
        return
    weights = csr.weights
    if weights.size and float(weights.min()) <= 0.0:
        pos = int(np.argmax(weights <= 0.0))
        u = int(np.searchsorted(csr.indptr, pos, side="right")) - 1
        raise NegativeWeightError(
            csr.vertex_at(u), csr.vertex_at(int(csr.indices[pos])), float(weights[pos])
        )


def _check_source_index(csr: "CSRGraph", source: int) -> int:
    n = csr.number_of_vertices()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} vertices")
    return n


def _dijkstra_wave(
    csr: "CSRGraph", source: int, with_dag: bool
) -> Tuple[List[float], List[int], List[float], List[Optional[List[int]]]]:
    """Run one Dijkstra pass; returns ``(dist, order, sig, predecessors)``.

    The shared engine of the CSR kernels below.  ``dist[u]`` doubles as the
    settled marker (``inf`` = unsettled); ``tent`` keeps the tentative
    distances of frontier vertices, replacing the dict rung's ``seen`` map
    (``inf`` = never seen, which makes the first-touch test a plain
    comparison).  With ``with_dag=False`` the sigma/predecessor bookkeeping
    is skipped and only distances and settle order are produced.
    """
    adjacency = csr_adjacency_pairs(csr)
    n = csr.number_of_vertices()
    dist: List[float] = [_INF] * n
    tent: List[float] = [_INF] * n
    order: List[int] = []
    sig: List[float] = [0.0] * n
    predecessors: List[Optional[List[int]]] = [None] * n
    if with_dag:
        sig[source] = 1.0
        predecessors[source] = []
    tent[source] = 0.0
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    push = heapq.heappush
    pop = heapq.heappop
    append_order = order.append
    if with_dag:
        while heap:
            dist_u, _, u = pop(heap)
            if dist[u] != _INF:
                continue  # already settled via a shorter path
            dist[u] = dist_u
            append_order(u)
            sigma_u = sig[u]
            for v, weight in adjacency[u]:
                candidate = dist_u + weight
                tolerance = _EPSILON * candidate if candidate > 1.0 else _EPSILON
                settled = dist[v]
                if settled != _INF:
                    if -tolerance <= candidate - settled <= tolerance:
                        sig[v] += sigma_u
                        predecessors[v].append(u)
                    continue
                previous = tent[v]
                if candidate < previous - tolerance:
                    tent[v] = candidate
                    sig[v] = sigma_u
                    predecessors[v] = [u]
                    push(heap, (candidate, counter, v))
                    counter += 1
                elif -tolerance <= candidate - previous <= tolerance:
                    sig[v] += sigma_u
                    predecessors[v].append(u)
    else:
        while heap:
            dist_u, _, u = pop(heap)
            if dist[u] != _INF:
                continue
            dist[u] = dist_u
            append_order(u)
            for v, weight in adjacency[u]:
                if dist[v] != _INF:
                    continue
                candidate = dist_u + weight
                tolerance = _EPSILON * candidate if candidate > 1.0 else _EPSILON
                if candidate < tent[v] - tolerance:
                    tent[v] = candidate
                    push(heap, (candidate, counter, v))
                    counter += 1
    return dist, order, sig, predecessors


def dijkstra_spd_csr(
    csr: "CSRGraph", source: int, *, kernel: str = "auto"
) -> CSRShortestPathDAG:
    """Return the array-backed SPD rooted at vertex index *source* (weighted).

    Index-space mirror of :func:`dijkstra_spd`: the heap discipline, the
    tie-breaking counter and the ``_EPSILON`` comparisons are identical, so
    both flavours settle vertices in the same order and count the same
    shortest paths bit-for-bit.  The result carries no ``level_edges`` (a
    weighted DAG has no BFS levels) but ships ready-made CSR predecessor
    arrays in parent-settle order; dependency accumulation runs the ordered
    per-vertex sweep over them.

    ``kernel`` selects the rung (:func:`~repro.graphs.csr.resolve_kernel`):
    the compiled twin :func:`~repro.shortest_paths.compiled.
    dijkstra_spd_compiled` replays the same settle order through a
    flat-array heap, so the knob never changes a result.
    """
    from repro.graphs.csr import resolve_kernel

    if resolve_kernel(kernel) == "compiled":
        from repro.shortest_paths.compiled import dijkstra_spd_compiled

        return dijkstra_spd_compiled(csr, source)
    n = _check_source_index(csr, source)
    dist, order, sig, predecessors = _dijkstra_wave(csr, source, True)
    # Flatten the per-vertex parent lists into the CSR predecessor layout.
    counts = np.fromiter(
        (0 if p is None else len(p) for p in predecessors), dtype=np.int64, count=n
    )
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=pred_indptr[1:])
    flat = [p for parents in predecessors if parents for p in parents]
    pred_indices = np.asarray(flat, dtype=np.int64)
    return CSRShortestPathDAG(
        csr,
        source,
        np.asarray(dist),
        np.asarray(sig),
        np.asarray(order, dtype=np.int64),
        level_edges=None,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
    )


def dijkstra_distances_csr(csr: "CSRGraph", source: int):
    """Return ``(dist, order)`` from vertex index *source* (weighted).

    The weighted twin of :func:`repro.shortest_paths.bfs.bfs_distances_csr`:
    ``dist`` is the float distance array (``inf`` = unreachable) and
    ``order`` the settle order, without any sigma/predecessor bookkeeping.
    ``dist`` is bit-identical to :func:`dijkstra_spd_csr`'s ``dist`` field —
    the settle logic is the same loop with the DAG branches removed.
    """
    _check_source_index(csr, source)
    dist, order, _, _ = _dijkstra_wave(csr, source, False)
    return np.asarray(dist), np.asarray(order, dtype=np.int64)


def dijkstra_source_dependencies_csr(csr: "CSRGraph", source: int):
    """Fused per-source weighted pass: the dependency array of *source*.

    One call runs the Dijkstra wave and the Brandes back-propagation in
    reverse settle order (the weighted replacement for the BFS level
    order) without materialising the DAG arrays.  Bit-identical to
    ``accumulate_dependencies_csr(dijkstra_spd_csr(csr, source))``: the
    wave is the same loop, and the sweep computes the same
    coefficient-first products — ``delta[p] += sig[p] * ((1 + delta[w]) /
    sig[w])`` touches each (distinct) parent's cell independently, so the
    scalar loop and the numpy fancy-indexed accumulation agree bitwise.
    """
    _check_source_index(csr, source)
    dist, order, sig, predecessors = _dijkstra_wave(csr, source, True)
    delta = [0.0] * len(dist)
    for w in reversed(order):
        parents = predecessors[w]
        if parents:
            coefficient = (1.0 + delta[w]) / sig[w]
            for p in parents:
                delta[p] += sig[p] * coefficient
    delta[source] = 0.0
    return np.asarray(delta)
