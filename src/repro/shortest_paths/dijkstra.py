"""Dijkstra-based construction of shortest-path DAGs for weighted graphs.

The paper's algorithms apply unchanged to weighted graphs with strictly
positive weights; the per-sample cost becomes
``O(|E(G)| + |V(G)| log |V(G)|)``.  This module provides the weighted
counterpart of :func:`repro.shortest_paths.bfs.bfs_spd_csr`.

Per-source passes
-----------------
The CSR kernels here are the per-source weighted passes (the batched
numpy sweep lives in :mod:`repro.shortest_paths.batch`).  The
adjacency is walked through a cached per-snapshot list-of-``(neighbour,
weight)`` view (:func:`csr_adjacency_pairs`) instead of per-edge numpy
scalar reads, and the priority queue is CPython's C-accelerated
``heapq`` over ``(distance, counter, vertex)`` entries, so ties in
distance settle in discovery order.

One weighted rule
-----------------
Every weighted path — the per-source pass, the SPD builder and the
batched sweep — computes the same three things, so which
one runs is a speed choice only:

* **Distances**: the exact fixpoint ``D[v] = min_u fl(D[u] + w(u, v))``.
  No tie band applies while relaxing; float addition is monotone, so any
  correct shortest-path method (this heap or a Bellman–Ford) returns the
  same bits.
* **DAG**: the arc ``(u, v)`` is a DAG arc iff ``D[u] < D[v]`` and
  ``|D[u] + w - D[v]| <= _EPSILON * max(1, D[u] + w)``
  (:func:`_dag_arc_mask`): the tie band is applied once, to exact
  distances.
* **Arithmetic**: path counts are exact integer sums; per DAG parent
  ``p``, ``delta_p = sigma_p * sum_c (delta_c + 1) * (1 / sigma_c)``,
  summed from ``0.0`` over its children in adjacency order — the
  unweighted arithmetic of :mod:`repro.shortest_paths.bfs`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, List, Tuple

from repro.errors import NegativeWeightError
from repro.graphs.csr import np
from repro.shortest_paths.spd import CSRShortestPathDAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "dijkstra_spd_csr",
    "dijkstra_distances_csr",
    "dijkstra_source_dependencies_csr",
    "csr_adjacency_pairs",
    "validate_positive_weights",
]

#: Relative width of the DAG tie band.  Float addition is not associative,
#: so two shortest paths of equal real length may sum to distances an ulp
#: apart; the band admits both into the DAG (:func:`_dag_arc_mask`).
_EPSILON = 1e-12

_INF = float("inf")


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


def _dag_arc_mask(tail_dist, head_dist, weights):
    """Return which arcs belong to the shortest-path DAG (the one DAG rule).

    An arc ``(u, v)`` of weight ``w`` is a DAG arc iff ``D[u] < D[v]`` and
    ``|D[u] + w - D[v]| <= _EPSILON * max(1, D[u] + w)``, with ``D`` the
    exact distances.  The arguments are matching arrays of any shape (one
    entry per arc, ``weights`` broadcasts); every path evaluates this
    expression, so every path draws the identical DAG.
    *tail_dist* and *head_dist* are overwritten (callers pass fresh
    gathers), which holds the batched sweep to three ``(K, m)`` buffers.
    """
    candidate = tail_dist + weights
    mask = tail_dist < head_dist
    with np.errstate(invalid="ignore"):
        gap = np.abs(np.subtract(candidate, head_dist, out=head_dist), out=head_dist)
        band = np.multiply(np.maximum(candidate, 1.0, out=tail_dist), _EPSILON, out=tail_dist)
        mask &= gap <= band
    return mask


def _exact_heap(csr: "CSRGraph", source: int) -> Tuple[List[float], List[int]]:
    """Run one exact Dijkstra pass; returns ``(dist, order)`` as lists.

    ``dist[v]`` is the exact fixpoint ``min_u fl(dist[u] + w(u, v))``
    (``inf`` = unreachable) and ``order`` the settle order.  No tie band
    applies while relaxing: a vertex is pushed only on a strict
    improvement, so ``dist`` doubles as the tentative distance and a popped
    entry is stale exactly when its key exceeds it.  Heap entries are
    ``(distance, counter, vertex)``, so equal distances settle in push
    order.
    """
    adjacency = csr_adjacency_pairs(csr)
    dist: List[float] = [_INF] * csr.number_of_vertices()
    dist[source] = 0.0
    order: List[int] = []
    heap: List[Tuple[float, int, int]] = [(0.0, 0, source)]
    counter = 1
    push = heapq.heappush
    pop = heapq.heappop
    append_order = order.append
    while heap:
        dist_u, _, u = pop(heap)
        if dist_u > dist[u]:
            continue  # superseded by a shorter path
        append_order(u)
        for v, weight in adjacency[u]:
            candidate = dist_u + weight
            if candidate < dist[v]:
                dist[v] = candidate
                push(heap, (candidate, counter, v))
                counter += 1
    return dist, order


def _source_sweep(csr: "CSRGraph", dist, order: List[int]):
    """Path counts and dependencies of one source over its DAG.

    *dist* is the exact distance array, *order* the settle order (source
    first).  Returns ``(sig, delta, tails, heads)``: the path counts, the
    dependencies and the DAG arcs, grouped by tail in adjacency order.
    A DAG parent has a strictly smaller
    distance, so it settles before its children: counts go forward in
    settle order (exact integers, so order-free), dependencies back in
    reverse settle order with the one Brandes arithmetic — per parent
    ``p``, ``(delta_c + 1.0) * (1.0 / sigma_c)`` summed from ``0.0`` over
    its children in adjacency order, then multiplied once by ``sigma_p``.
    """
    n = dist.shape[0]
    indptr = csr.indptr
    degree = csr.degrees()
    mask = _dag_arc_mask(np.repeat(dist, degree), dist[csr.indices], csr.weights)
    heads = csr.indices[mask]
    tails = np.repeat(np.arange(n, dtype=np.int64), degree)[mask]
    delta = [0.0] * n
    if heads.shape[0] == len(order) - 1 and (
        not heads.size or int(np.bincount(heads).max()) == 1
    ):
        # Unique shortest paths (a tree): every count is 1, so every term
        # is an exact integer and any summation order gives the per-parent
        # sums' bits — each child pushes its share straight up.
        sig = np.zeros(n)
        sig[order] = 1.0
        up = np.empty(n, dtype=np.int64)
        up[heads] = tails
        parent = up.tolist()
        for c in order[:0:-1]:
            delta[parent[c]] += delta[c] + 1.0
    else:
        seen = np.zeros(mask.shape[0] + 1, dtype=np.int64)
        np.cumsum(mask, out=seen[1:])
        ptr = seen[indptr].tolist()
        children = heads.tolist()
        counts = [0.0] * n
        counts[order[0]] = 1.0
        for u in order:
            lo, hi = ptr[u], ptr[u + 1]
            if lo != hi:
                sigma_u = counts[u]
                for c in children[lo:hi]:
                    counts[c] += sigma_u
        for p in reversed(order):
            lo, hi = ptr[p], ptr[p + 1]
            if lo != hi:
                total = 0.0
                for c in children[lo:hi]:
                    total += (delta[c] + 1.0) * (1.0 / counts[c])
                delta[p] = total * counts[p]
        sig = np.asarray(counts)
    delta[order[0]] = 0.0
    return sig, np.asarray(delta), tails, heads


def dijkstra_spd_csr(csr: "CSRGraph", source: int) -> CSRShortestPathDAG:
    """Return the array-backed SPD rooted at vertex index *source* (weighted).

    The exact heap settles vertices in ``(distance, counter, vertex)``
    order, the DAG is :func:`_dag_arc_mask` over the exact distances, and
    each vertex's predecessors are listed in settle order.  The result
    carries no ``level_edges`` (a weighted DAG has no BFS levels) but ships
    ready-made CSR predecessor arrays.
    """
    n = _check_source_index(csr, source)
    dist_list, order_list = _exact_heap(csr, source)
    dist = np.asarray(dist_list)
    sig, _, tails, heads = _source_sweep(csr, dist, order_list)
    order = np.asarray(order_list, dtype=np.int64)
    # Predecessor lists: DAG arcs grouped by child, parents in settle order.
    rank = np.zeros(n, dtype=np.int64)
    rank[order] = np.arange(order.shape[0])
    pred_indices = tails[np.lexsort((rank[tails], heads))]
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(heads, minlength=n), out=pred_indptr[1:])
    return CSRShortestPathDAG(
        csr,
        source,
        dist,
        sig,
        order,
        level_edges=None,
        pred_indptr=pred_indptr,
        pred_indices=pred_indices,
    )


def dijkstra_distances_csr(csr: "CSRGraph", source: int):
    """Return ``(dist, order)`` from vertex index *source* (weighted).

    The weighted twin of :func:`repro.shortest_paths.bfs.bfs_distances_csr`:
    ``dist`` is the exact float distance array (``inf`` = unreachable) and
    ``order`` the settle order — the exact heap alone, no DAG.
    """
    _check_source_index(csr, source)
    dist, order = _exact_heap(csr, source)
    return np.asarray(dist), np.asarray(order, dtype=np.int64)


def dijkstra_source_dependencies_csr(csr: "CSRGraph", source: int):
    """Fused per-source weighted pass: the dependency array of *source*.

    The exact heap, then one sweep over the DAG: path counts forward in
    settle order, dependencies back in reverse settle order.  No
    :class:`CSRShortestPathDAG` is built; the result is bit-identical to
    ``accumulate_dependencies_csr(dijkstra_spd_csr(csr, source))`` and to
    the batched rows of :func:`repro.shortest_paths.batch.
    batch_source_dependencies`.
    """
    _check_source_index(csr, source)
    dist, order = _exact_heap(csr, source)
    return _source_sweep(csr, np.asarray(dist), order)[1]
