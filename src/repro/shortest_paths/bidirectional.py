"""Balanced bidirectional BFS and shortest-path sampling between vertex pairs.

This is the substrate of the KADABRA-style baseline sampler (Borassi &
Natale 2016, discussed in Section 3.2 of the paper): a BFS is grown from both
endpoints *s* and *t*, always expanding the frontier that would touch fewer
edges, until the two frontiers meet.  The meeting structure is then used to
count shortest s-t paths and to sample one uniformly at random.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Tuple

from repro.graphs.csr import np
from repro.shortest_paths.bfs import _expand_level

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "bidirectional_shortest_path_info_csr",
    "sample_path_interior_csr",
]


def bidirectional_shortest_path_info_csr(
    csr: "CSRGraph", s: int, t: int
) -> Tuple[float, float]:
    """Return ``(d(s, t), sigma_st)`` for vertex *indices* on a CSR snapshot.

    Both frontiers live in numpy arrays and each expansion is one gather
    over the CSR arrays; the balanced rule expands the frontier with the
    smaller summed degree.  Returns ``(inf, 0.0)`` when *t* is unreachable.
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
    """Expand one level of one search; return its frontier, level and whether the searches met."""
    _, children, parents, next_frontier = _expand_level(csr, degrees, frontier, dist, slot)
    # sigma flows along every edge into the new level — the fresh edges, as
    # no vertex of that level was known before this expansion — and only
    # those edges can signal that the searches met.
    np.add.at(sigma, children, sigma[parents])
    met = bool(np.isfinite(other_dist[children]).any())
    return next_frontier, level + 1.0, met


def sample_path_interior_csr(spd, source: int, target: int, rng) -> List[int]:
    """Sample the interior of one uniform shortest source→target path, by index.

    Backtracks from *target* through an array-backed SPD, choosing each
    predecessor with probability proportional to its shortest-path count,
    which makes every shortest path equally likely.  Each step draws one
    ``rng.random()`` and scans the parents cumulatively, so the path is a
    fixed function of the rng stream.  Returns the interior vertex indices
    from *target* backwards.
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
