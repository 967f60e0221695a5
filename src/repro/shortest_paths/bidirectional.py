"""Balanced bidirectional BFS and shortest-path sampling between vertex pairs.

This is the substrate of the KADABRA-style baseline sampler (Borassi &
Natale 2016, discussed in Section 3.2 of the paper): a BFS is grown from both
endpoints *s* and *t*, always expanding the frontier that would touch fewer
edges, until the two frontiers meet.  The meeting structure is then used to
count shortest s-t paths and to sample one uniformly at random.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro._rng import RandomState, ensure_rng
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.shortest_paths.bfs import _expand_level, bfs_spd

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "bidirectional_shortest_path_info",
    "bidirectional_shortest_path_info_csr",
    "sample_shortest_path",
    "sample_path_interior_csr",
    "all_shortest_paths",
]


def bidirectional_shortest_path_info(
    graph: Graph, s: Vertex, t: Vertex
) -> Tuple[float, float]:
    """Return ``(d(s, t), sigma_st)`` using a balanced bidirectional BFS.

    Returns ``(inf, 0.0)`` when *t* is unreachable from *s*.  For the pure
    Python reproduction the asymptotic win over a full BFS is what matters
    (about half the touched edges on low-diameter graphs), not absolute
    speed.
    """
    graph.validate_vertex(s)
    graph.validate_vertex(t)
    if s == t:
        return 0.0, 1.0

    dist_s: Dict[Vertex, float] = {s: 0.0}
    dist_t: Dict[Vertex, float] = {t: 0.0}
    sigma_s: Dict[Vertex, float] = {s: 1.0}
    sigma_t: Dict[Vertex, float] = {t: 1.0}
    frontier_s: List[Vertex] = [s]
    frontier_t: List[Vertex] = [t]
    level_s = 0.0
    level_t = 0.0

    while frontier_s and frontier_t:
        # Expand the side whose frontier has the smaller total degree —
        # the "balanced" rule of bb-BFS.
        work_s = sum(graph.degree(v) for v in frontier_s)
        work_t = sum(graph.degree(v) for v in frontier_t)
        if work_s <= work_t:
            frontier_s, level_s, met = _expand(
                graph, frontier_s, dist_s, sigma_s, level_s, dist_t
            )
        else:
            frontier_t, level_t, met = _expand(
                graph, frontier_t, dist_t, sigma_t, level_t, dist_s
            )
        if met:
            break
    else:
        return float("inf"), 0.0

    # Meeting vertices are those known to both searches with minimal total
    # distance; sum over them gives sigma_st.
    best = float("inf")
    for v in dist_s:
        if v in dist_t:
            best = min(best, dist_s[v] + dist_t[v])
    if best == float("inf"):
        return float("inf"), 0.0
    sigma = 0.0
    for v in dist_s:
        if v in dist_t and dist_s[v] + dist_t[v] == best:
            sigma += sigma_s[v] * sigma_t[v]
    return best, sigma


def _expand(
    graph: Graph,
    frontier: List[Vertex],
    dist: Dict[Vertex, float],
    sigma: Dict[Vertex, float],
    level: float,
    other_dist: Dict[Vertex, float],
) -> Tuple[List[Vertex], float, bool]:
    """Expand one BFS level; return the new frontier, level and whether the searches met."""
    next_frontier: List[Vertex] = []
    met = False
    for u in frontier:
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = level + 1.0
                sigma[v] = 0.0
                next_frontier.append(v)
            if dist[v] == level + 1.0:
                sigma[v] += sigma[u]
                if v in other_dist:
                    met = True
    return next_frontier, level + 1.0, met


def bidirectional_shortest_path_info_csr(
    csr: "CSRGraph", s: int, t: int
) -> Tuple[float, float]:
    """Return ``(d(s, t), sigma_st)`` for vertex *indices* on a CSR snapshot.

    Array-native twin of :func:`bidirectional_shortest_path_info`: both
    frontiers live in numpy arrays, each expansion is one gather over the
    CSR arrays, and the balanced rule compares the summed degrees of the two
    frontiers exactly as the dict implementation does.
    """
    n = csr.number_of_vertices()
    if s == t:
        return 0.0, 1.0
    degrees = csr.degrees()
    dist_s = np.full(n, np.inf)
    dist_t = np.full(n, np.inf)
    sigma_s = np.zeros(n)
    sigma_t = np.zeros(n)
    dist_s[s] = 0.0
    dist_t[t] = 0.0
    sigma_s[s] = 1.0
    sigma_t[t] = 1.0
    slot = np.empty(n, dtype=np.int64)
    frontier_s = np.array([s], dtype=np.int64)
    frontier_t = np.array([t], dtype=np.int64)
    level_s = 0.0
    level_t = 0.0
    met = False
    while frontier_s.size and frontier_t.size:
        work_s = int(degrees[frontier_s].sum())
        work_t = int(degrees[frontier_t].sum())
        if work_s <= work_t:
            frontier_s, level_s, hit = _expand_csr(
                csr, degrees, frontier_s, dist_s, sigma_s, level_s, dist_t, slot
            )
        else:
            frontier_t, level_t, hit = _expand_csr(
                csr, degrees, frontier_t, dist_t, sigma_t, level_t, dist_s, slot
            )
        if hit:
            met = True
            break
    if not met:
        return float("inf"), 0.0
    both = np.isfinite(dist_s) & np.isfinite(dist_t)
    if not both.any():
        return float("inf"), 0.0
    totals = dist_s[both] + dist_t[both]
    best = float(totals.min())
    on_best = totals == best
    sigma = float((sigma_s[both][on_best] * sigma_t[both][on_best]).sum())
    return best, sigma


def _expand_csr(csr, degrees, frontier, dist, sigma, level, other_dist, slot):
    """Vectorised one-level expansion; mirrors :func:`_expand` exactly."""
    _, children, parents, next_frontier = _expand_level(csr, degrees, frontier, dist, slot)
    # sigma flows along every edge into the new level — the fresh edges, as
    # no vertex of that level was known before this expansion — and,
    # matching the dict implementation, only those edges can signal that
    # the searches met.
    np.add.at(sigma, children, sigma[parents])
    met = bool(np.isfinite(other_dist[children]).any())
    return next_frontier, level + 1.0, met


def sample_path_interior_csr(spd, source: int, target: int, rng) -> List[int]:
    """Sample the interior of one uniform shortest source→target path, by index.

    Backtracks from *target* through an array-backed SPD, choosing each
    predecessor with probability proportional to its shortest-path count —
    the same uniform-path guarantee (and, deliberately, the same per-step
    ``rng.random()`` consumption and cumulative-scan tie-breaking) as the
    dict-kernel reference samplers, so both walk identical paths for a
    fixed seed.  Returns the interior vertex indices from *target* backwards.
    """
    interior: List[int] = []
    sig = spd.sig
    current = target
    while True:
        parents = spd.parents_of(current)
        if parents.size == 0:
            break
        weights = sig[parents].tolist()
        total = sum(weights)
        pick = rng.random() * total
        cumulative = 0.0
        chosen = int(parents[-1])
        for parent, weight in zip(parents.tolist(), weights):
            cumulative += weight
            if pick <= cumulative:
                chosen = parent
                break
        if chosen == source:
            break
        interior.append(chosen)
        current = chosen
    return interior


def all_shortest_paths(graph: Graph, s: Vertex, t: Vertex) -> List[List[Vertex]]:
    """Return every shortest path from *s* to *t* as explicit vertex lists.

    Exponential in the worst case; used only on small graphs in tests and in
    the exact "internal vertices of sampled paths" bookkeeping of the
    Riondato–Kornaropoulos baseline when explicit paths are requested.
    """
    graph.validate_vertex(s)
    graph.validate_vertex(t)
    if s == t:
        return [[s]]
    spd = bfs_spd(graph, s) if not graph.weighted else None
    if spd is None:
        from repro.shortest_paths.dijkstra import dijkstra_spd

        spd = dijkstra_spd(graph, s)
    if not spd.is_reachable(t):
        return []
    paths: List[List[Vertex]] = []

    def _backtrack(vertex: Vertex, suffix: List[Vertex]) -> None:
        if vertex == s:
            paths.append([s] + suffix)
            return
        for parent in spd.parents(vertex):
            _backtrack(parent, [vertex] + suffix)

    _backtrack(t, [])
    return paths


def sample_shortest_path(
    graph: Graph, s: Vertex, t: Vertex, seed: RandomState = None
) -> Optional[List[Vertex]]:
    """Sample one shortest s-t path uniformly at random, or ``None`` if disconnected.

    The path is built by backtracking from *t* through the SPD rooted at
    *s*, choosing each predecessor with probability proportional to its
    shortest-path count — the standard trick that makes every shortest path
    equally likely, as required by the Riondato–Kornaropoulos sampler.
    """
    graph.validate_vertex(s)
    graph.validate_vertex(t)
    rng = ensure_rng(seed)
    if s == t:
        return [s]
    if graph.weighted:
        from repro.shortest_paths.dijkstra import dijkstra_spd

        spd = dijkstra_spd(graph, s)
    else:
        spd = bfs_spd(graph, s)
    if not spd.is_reachable(t):
        return None
    path: List[Vertex] = [t]
    current = t
    while current != s:
        parents = spd.parents(current)
        weights = [spd.sigma[p] for p in parents]
        total = sum(weights)
        pick = rng.random() * total
        cumulative = 0.0
        chosen = parents[-1]
        for parent, weight in zip(parents, weights):
            cumulative += weight
            if pick <= cumulative:
                chosen = parent
                break
        path.append(chosen)
        current = chosen
    path.reverse()
    return path
