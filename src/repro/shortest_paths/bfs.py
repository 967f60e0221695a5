"""Breadth-first construction of shortest-path DAGs for unweighted graphs.

Building the SPD rooted at a source costs ``O(|E(G)|)`` time (Section 2.1),
which is also the per-sample cost quoted for every sampler in the paper.

The module holds the level-synchronous, numpy-vectorised traversals over a
:class:`~repro.graphs.csr.CSRGraph` snapshot and one fused pass:

* :func:`bfs_spd_csr` / :func:`bfs_distances_csr` — each BFS level is
  expanded with one gather over the CSR arrays.  Levels are visited in
  queue order and each vertex's predecessors in adjacency order, so the
  path samplers that backtrack through a DAG draw the same paths for a
  fixed seed whatever builds it.
* :func:`bfs_source_dependencies_csr` — the fused per-source pass (wave +
  Brandes back-propagation, no DAG object) behind
  :func:`~repro.shortest_paths.dependencies.csr_source_dependencies`.

Level expansion
---------------
Every CSR wave here, and the bidirectional and KADABRA searches, grows one
level with ``_expand_level``: a degree-based gather of the frontier's
out-edges (one ``cumsum`` and two ``repeat`` calls), then a first-touch
dedup of the newly reached vertices.  The dedup is a mark array: with
``pos = arange(len(children))``, the reversed scatter ``slot[children[::-1]]
= pos[::-1]`` leaves each vertex's slot holding the position of its
*first* occurrence (the last write wins, and in reverse the last write is
the first occurrence), so ``children[slot[children] == pos]`` keeps
exactly one entry per vertex in first-touch order — the BFS queue
order — in ``O(len(children))``, without the sort behind ``np.unique``.
The scratch ``slot`` array belongs to one traversal call and is never
shared, so concurrent threads cannot interfere.

Brandes arithmetic
------------------
Every unweighted dependency path in the library — this module's
back-propagation, and the batched wave and the sparse-matmul sweep of
:mod:`repro.shortest_paths.batch` — computes one float expression per
DAG parent *p*: ``(delta_c + 1.0) * (1.0 / sigma_c)`` summed from ``0.0``
over *p*'s children *c* in adjacency order, then multiplied once by
``sigma_p``.  Any two paths therefore return the same bits for the same
source, so which one runs is a pure speed choice.

Cutoff semantics
----------------
``cutoff`` is **inclusive**: exactly the vertices with ``d(source, v) <=
cutoff`` are discovered and returned; no vertex beyond the cutoff is ever
enqueued or recorded.  A level at distance ``d`` is expanded only when
``d + 1 <= cutoff``, so a fractional cutoff such as ``1.5`` stops at
distance 1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.graphs.csr import np
from repro.shortest_paths.spd import CSRShortestPathDAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "bfs_spd_csr",
    "bfs_source_dependencies_csr",
    "bfs_distances_csr",
]


def _first_touch(values, slot):
    """Return the distinct entries of *values* in first-occurrence order.

    The mark-array dedup (see the module docstring): *slot* is scratch
    indexed by value, at least ``values.max() + 1`` long, whose contents
    on entry do not matter.
    """
    positions = np.arange(values.shape[0], dtype=np.int64)
    slot[values[::-1]] = positions[::-1]
    return values[slot[values] == positions]


def _expand_level(csr: "CSRGraph", degree, frontier, dist, slot, *, parents: bool = True):
    """Expand one BFS level from the non-empty *frontier*.

    Returns ``(nbrs, children, edge_parents, next_frontier)``:

    * ``nbrs`` — every out-edge target of the frontier, in frontier order
      and, within one parent, in adjacency order (the BFS visit order);
    * ``children`` — the entries of ``nbrs`` not yet assigned a distance,
      i.e. the DAG edges into the next level;
    * ``edge_parents`` — the frontier vertex of each ``children`` entry
      (``None`` unless *parents*);
    * ``next_frontier`` — the unique ``children`` in first-touch order,
      already stamped in *dist* one level deeper than the frontier.

    *degree* is ``csr.degrees()``; *slot* is an ``int64`` scratch array of
    length ``n`` owned by the calling traversal (its contents on entry do
    not matter).
    """
    counts = degree[frontier]
    cum = counts.cumsum()
    total = int(cum[-1])
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty if parents else None, empty
    # Flat CSR position of every out-edge: frontier order, then adjacency order.
    starts = (csr.indptr[frontier] - (cum - counts)).repeat(counts)
    flat = np.arange(total, dtype=np.int64) + starts
    nbrs = csr.indices[flat]
    fresh = np.isinf(dist[nbrs])
    children = nbrs[fresh]
    edge_parents = frontier.repeat(counts)[fresh] if parents else None
    next_frontier = _first_touch(children, slot)
    dist[next_frontier] = dist[frontier[0]] + 1.0
    return nbrs, children, edge_parents, next_frontier


def _bfs_wave(csr: "CSRGraph", source: int, cutoff: Optional[float], paths: bool = True):
    """Run the level-synchronous wave; return ``(dist, sig, frontiers, level_edges)``.

    ``frontiers`` lists each level's vertices in discovery order (the source
    first); ``level_edges[L]`` holds the ``(parents, children)`` DAG edges
    into level ``L + 1``.  With ``paths=False`` only distances are tracked
    (``sig`` is ``None`` and ``level_edges`` empty).
    """
    n = csr.number_of_vertices()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} vertices")
    degree = csr.degrees()
    dist = np.full(n, np.inf)
    sig = np.zeros(n) if paths else None
    slot = np.empty(n, dtype=np.int64)
    dist[source] = 0.0
    if paths:
        sig[source] = 1.0
    frontier = np.array([source], dtype=np.int64)
    frontiers = [frontier]
    level_edges: List[Tuple] = []
    reached = 1
    # Once every vertex is reached, one more level could only find none.
    while reached < n:
        if cutoff is not None and dist[frontier[0]] + 1.0 > cutoff:
            break
        _, children, parents, frontier = _expand_level(
            csr, degree, frontier, dist, slot, parents=paths
        )
        if frontier.size == 0:
            break
        reached += frontier.shape[0]
        frontiers.append(frontier)
        if paths:
            # bincount-as-scatter-add: much faster than np.add.at for the
            # many-small-updates pattern of a BFS level.
            sig += np.bincount(children, weights=sig[parents], minlength=n)
            level_edges.append((parents, children))
    return dist, sig, frontiers, level_edges


def _accumulate_levels(sig, level_edges, n: int):
    """Brandes back-propagation over BFS ``level_edges``; returns ``delta``.

    One vectorised pass per level, deepest first: every child of level
    ``L + 1`` has its final delta before the level-``L`` edges run.  The
    arithmetic is the one Brandes order of the module docstring: ``sums[p]``
    is parent *p*'s child sum before its single ``sigma_p`` scale, so a
    child's delta is ``sums[c] * sig[c]``.  The caller zeroes the source
    entry.
    """
    inverse = np.zeros(n)
    np.divide(1.0, sig, out=inverse, where=sig > 0.0)
    sums = np.zeros(n)
    for parents, children in reversed(level_edges):
        coeff = (sums[children] * sig[children] + 1.0) * inverse[children]
        sums += np.bincount(parents, weights=coeff, minlength=n)
    return sums * sig


def bfs_spd_csr(
    csr: "CSRGraph", source: int, *, cutoff: Optional[float] = None
) -> CSRShortestPathDAG:
    """Return the array-backed SPD rooted at vertex index *source*.

    Level-synchronous vectorised BFS: each iteration gathers the whole next
    level with numpy primitives: the traversal order is the BFS queue order
    and each vertex's predecessors are in adjacency order (``cutoff`` is
    inclusive, as documented in the module docstring).
    """
    dist, sig, frontiers, level_edges = _bfs_wave(csr, source, cutoff)
    order = np.concatenate(frontiers)
    return CSRShortestPathDAG(csr, source, dist, sig, order, level_edges=level_edges)


def bfs_source_dependencies_csr(csr: "CSRGraph", source: int):
    """Fused per-source unweighted pass: the dependency array of *source*.

    Runs the BFS wave and the Brandes back-propagation in one call without
    materialising a :class:`CSRShortestPathDAG` — the unweighted twin of
    :func:`~repro.shortest_paths.dijkstra.dijkstra_source_dependencies_csr`.
    Bit-identical to ``accumulate_dependencies_csr(bfs_spd_csr(csr,
    source))``: the wave and the per-level summations are the same code.
    """
    dist, sig, _, level_edges = _bfs_wave(csr, source, None)
    delta = _accumulate_levels(sig, level_edges, dist.shape[0])
    delta[source] = 0.0
    return delta


def bfs_distances_csr(csr: "CSRGraph", source: int):
    """Return ``(dist, order)`` arrays for vertex index *source*.

    ``dist`` is the full ``float64`` distance array (``inf`` when
    unreachable) and ``order`` lists the reachable indices in discovery
    order, which callers rely on when they rebuild insertion-ordered dicts
    at the result boundary.
    """
    dist, _, frontiers, _ = _bfs_wave(csr, source, None, paths=False)
    return dist, np.concatenate(frontiers)
