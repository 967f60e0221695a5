"""Articulation points and bridges over a CSR snapshot (iterative Tarjan).

The structural side of incremental betweenness maintenance (iCentral and
its family reason about the biconnected component containing a mutated
edge).  For *per-source dependency vectors* — this library's unit of warm
state — biconnected containment alone is not a sound retention bound (see
:mod:`repro.incremental.affected`), so these routines serve as receipt
diagnostics (was the touched edge a bridge?) and as an independent
structural check in the property tests, not as the eviction rule.

Both routines run one iterative lowlink DFS over the CSR arrays — no
recursion, so deep path graphs cannot blow the Python stack.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, FrozenSet, Set, Tuple

import numpy as np

from repro.errors import GraphStructureError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = ["articulation_points", "bridges"]


def _lowlink(csr: "CSRGraph") -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", Set[int], Set[FrozenSet[int]]]:
    """One DFS computing discovery/lowlink arrays, articulation set and bridges."""
    if csr.directed:
        raise GraphStructureError("biconnected analysis requires an undirected graph")
    n = csr.number_of_vertices()
    disc = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    aps: Set[int] = set()
    bridge_set: Set[FrozenSet[int]] = set()
    indptr, indices = csr.indptr, csr.indices
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        root_children = 0
        # Stack frames: (vertex, next edge-pointer into indices).
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, int(indptr[root]))]
        while stack:
            v, ptr = stack[-1]
            if ptr < int(indptr[v + 1]):
                stack[-1] = (v, ptr + 1)
                w = int(indices[ptr])
                if disc[w] == -1:
                    parent[w] = v
                    if v == root:
                        root_children += 1
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, int(indptr[w])))
                elif w != parent[v]:
                    # Back edge (simple graph: the single parent entry is
                    # the tree edge, every other occurrence is a cycle).
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > disc[u]:
                        bridge_set.add(frozenset((u, v)))
                    if u != root and low[v] >= disc[u]:
                        aps.add(u)
        if root_children > 1:
            aps.add(root)
    return disc, low, parent, aps, bridge_set


def articulation_points(csr: "CSRGraph") -> "np.ndarray":
    """Return a boolean per-index mask of the articulation points of *csr*."""
    n = csr.number_of_vertices()
    _, _, _, aps, _ = _lowlink(csr)
    mask = np.zeros(n, dtype=bool)
    for v in aps:
        mask[v] = True
    return mask


def bridges(csr: "CSRGraph") -> Set[FrozenSet[int]]:
    """Return the bridge edges of *csr* as a set of frozen index pairs."""
    _, _, _, _, bridge_set = _lowlink(csr)
    return bridge_set
