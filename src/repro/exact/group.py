"""Group betweenness and co-betweenness of vertex sets.

Section 3.1 of the paper surveys two natural set extensions of betweenness:

* **Group betweenness** (Everett & Borgatti 1999): fraction of shortest
  paths passing through *at least one* vertex of the set.
* **Co-betweenness** (Kolaczyk et al. 2009; Chehreghani 2014): fraction of
  shortest paths passing through *every* vertex of the set.

These are not the paper's contribution, but the examples use them (core
vertices of communities, most-prominent-group heuristics) and they share the
SPD substrate, so the reproduction includes straightforward exact
implementations suitable for small-to-mid graphs.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.execution import (
    ExecutionPlan,
    merge_ordered,
    resolve_plan,
    run_sharded,
    split_shards,
)
from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.shortest_paths.batch import BatchedSPD, bfs_spd_batch_csr, source_blocks
from repro.shortest_paths.dependencies import csr_spd_builder
from repro.shortest_paths.spd import CSRShortestPathDAG

__all__ = [
    "group_betweenness_centrality",
    "co_betweenness_centrality",
    "greedy_prominent_group",
]


def _validate_group(graph: Graph, group: Iterable[Vertex]) -> List[Vertex]:
    members = list(dict.fromkeys(group))
    if not members:
        raise ConfigurationError("the group must contain at least one vertex")
    for v in members:
        graph.validate_vertex(v)
    return members


def _csr_avoid_counts(spd: CSRShortestPathDAG, member_mask) -> "np.ndarray":
    """Per target, the number of shortest source→target paths avoiding the group.

    Counting paths that avoid every group member and subtracting from the
    total is the standard inclusion trick for group betweenness: paths
    through *at least one* member = all paths − paths through none.
    Runs one vectorised pass per BFS level (or an ordered per-vertex sweep
    for Dijkstra-built DAGs): a vertex's avoid-count is the sum of its DAG
    parents' counts, zeroed on group members so no path through a member is
    ever credited downstream.
    """
    n = spd.csr.number_of_vertices()
    avoid = np.zeros(n)
    s = spd.source_index
    avoid[s] = 0.0 if member_mask[s] else 1.0
    if spd.level_edges is not None:
        for parents, children in spd.level_edges:
            level_members = np.unique(children[member_mask[children]])
            counts = np.bincount(children, weights=avoid[parents], minlength=n)
            avoid += counts
            avoid[level_members] = 0.0
    else:
        pred_indptr = spd.pred_indptr
        pred_indices = spd.pred_indices
        for t in spd.order_indices.tolist():
            if t == s:
                continue
            if member_mask[t]:
                avoid[t] = 0.0
                continue
            parents = pred_indices[pred_indptr[t] : pred_indptr[t + 1]]
            avoid[t] = float(avoid[parents].sum())
    return avoid


def _csr_avoid_counts_batch(batch: BatchedSPD, member_mask):
    """Batched twin of :func:`_csr_avoid_counts` over K SPDs at once.

    One vectorised pass per BFS level over the batch's compact edge records
    (avoid counts live in per-level frontier-indexed arrays, like the sigma
    values they mirror); returns the ``(K, n)`` avoid-count matrix (row *k*
    belongs to ``batch.sources[k]``).
    """
    k, n = batch.sig.shape
    level_avoid = [np.where(member_mask[batch.sources], 0.0, 1.0)]
    for record in batch.levels:
        counts = np.bincount(
            record.child_cid,
            weights=level_avoid[-1][record.parent_cid],
            minlength=record.frontier_keys.shape[0],
        )
        counts[member_mask[record.frontier_keys % n]] = 0.0
        level_avoid.append(counts)
    avoid = np.zeros(k * n)
    avoid[batch.root_keys] = level_avoid[0]
    for record, values in zip(batch.levels, level_avoid[1:]):
        avoid[record.frontier_keys] = values
    return avoid.reshape(k, n)


def _group_shard_csr(shared, shard):
    """Shard worker: summed group-betweenness contributions of the shard's sources.

    ``shared`` is ``(csr, member_mask)``; unweighted snapshots run the
    blocks :func:`~repro.shortest_paths.batch.source_blocks` chooses
    through one batched BFS + avoid pass each, weighted ones fall back to
    the per-source kernels.  Per-source contributions are summed
    sequentially in shard order.
    """
    csr, member_mask = shared
    total = 0.0
    if not csr.weighted:
        for begin, end in source_blocks(csr, len(shard)):
            batch = shard[begin:end]
            spds = bfs_spd_batch_csr(csr, batch)
            avoid = _csr_avoid_counts_batch(spds, member_mask)
            for row, s in enumerate(batch):
                reachable = np.flatnonzero(np.isfinite(spds.dist[row]))
                keep = reachable[(reachable != s) & ~member_mask[reachable]]
                sigma = spds.sig[row][keep]
                positive = sigma > 0.0
                through = sigma[positive] - avoid[row][keep][positive]
                ratio = through / sigma[positive]
                total += float(ratio[through > 0.0].sum())
        return total
    build = csr_spd_builder(csr)
    for s in shard:
        spd = build(csr, s)
        avoid = _csr_avoid_counts(spd, member_mask)
        reachable = spd.order_indices
        keep = reachable[(reachable != s) & ~member_mask[reachable]]
        sigma = spd.sig[keep]
        positive = sigma > 0.0
        through = sigma[positive] - avoid[keep][positive]
        ratio = through / sigma[positive]
        total += float(ratio[through > 0.0].sum())
    return total


def group_betweenness_centrality(
    graph: Graph,
    group: Iterable[Vertex],
    *,
    normalized: bool = True,
    n_jobs: Optional[int] = None,
    plan: Optional[ExecutionPlan] = None,
) -> float:
    """Return the group betweenness centrality of *group*.

    The score sums, over ordered pairs (s, t) with both endpoints outside the
    group, the fraction of shortest s-t paths that touch at least one group
    member.  With ``normalized=True`` it is divided by ``|V| (|V| - 1)``.
    ``n_jobs`` / ``plan`` configure the sharded execution
    engine that runs the outer source loop (see :mod:`repro.execution`).
    """
    members = set(_validate_group(graph, group))
    n = graph.number_of_vertices()
    plan = resolve_plan(plan, n_jobs=n_jobs)
    csr = graph.csr()
    member_mask = np.zeros(csr.number_of_vertices(), dtype=bool)
    for m in members:
        member_mask[csr.index_of(m)] = True
    source_indices = [s for s in range(csr.number_of_vertices()) if not member_mask[s]]
    total = 0.0
    if source_indices:
        total = merge_ordered(
            run_sharded(
                _group_shard_csr,
                split_shards(source_indices),
                n_jobs=plan.n_jobs,
                plan=plan,
                shared=(csr, member_mask),
            )
        )
    if normalized and n > 1:
        total /= n * (n - 1)
    return total


def _dag_paths_from(start: int, order, ptr, parents) -> List[float]:
    """Per vertex index, the number of DAG paths that start at index *start*.

    The DAG is given as lists: *order* its traversal order, *ptr* /
    *parents* its predecessor lists in CSR layout.  One forward pass in
    traversal order: a vertex's count is the sum of its parents' counts.
    The counts are exact integers.
    """
    counts = [0.0] * (len(ptr) - 1)
    counts[start] = 1.0
    for t in order:
        lo, hi = ptr[t], ptr[t + 1]
        if lo != hi and t != start:
            total = 0.0
            for p in parents[lo:hi]:
                total += counts[p]
            counts[t] = total
    return counts


def co_betweenness_centrality(
    graph: Graph, group: Iterable[Vertex], *, normalized: bool = True
) -> float:
    """Return the co-betweenness centrality of *group*.

    Counts, over ordered pairs (s, t) outside the group, the fraction of
    shortest s-t paths whose interior contains **every** group member.
    A path through every member meets them in order of distance from *s*,
    so on the SPD rooted at *s* the count is ``sigma_s(m_1) * prod N(m_i ->
    m_{i+1}) * N(m_k -> t)`` with the members sorted by distance and ``N``
    the DAG path counts; two members at equal distance give 0.  The counts
    are exact integers, so each pair's fraction is exact path counting.
    """
    members = _validate_group(graph, group)
    n = graph.number_of_vertices()
    if len(members) == 1:
        # Degenerates to ordinary betweenness of the single member.
        from repro.exact.single_vertex import betweenness_of_vertex

        score = betweenness_of_vertex(graph, members[0], normalization="paper")
        return score if normalized else score * n * (n - 1)

    csr = graph.csr()
    member_index = [csr.index_of(m) for m in members]
    outside = np.ones(csr.number_of_vertices(), dtype=bool)
    outside[member_index] = False
    build = csr_spd_builder(csr)
    total = 0.0
    for s in np.flatnonzero(outside).tolist():
        spd = build(csr, s)
        sig = spd.sig
        chain = sorted(member_index, key=lambda m: spd.dist[m])
        count = float(sig[chain[0]])
        if count == 0.0:
            continue
        order = spd.order_indices.tolist()
        ptr = spd.pred_indptr.tolist()
        parents = spd.pred_indices.tolist()
        for a, b in zip(chain, chain[1:]):
            count *= _dag_paths_from(a, order, ptr, parents)[b]
        if count == 0.0:
            continue
        through = count * np.asarray(_dag_paths_from(chain[-1], order, ptr, parents))
        through[~outside] = 0.0
        hits = np.flatnonzero(through)
        # One addition per pair, in pair order.
        for fraction in (through[hits] / sig[hits]).tolist():
            total += fraction
    if normalized and n > 1:
        total /= n * (n - 1)
    return total


def greedy_prominent_group(
    graph: Graph,
    size: int,
    *,
    n_jobs: Optional[int] = None,
) -> List[Vertex]:
    """Return a vertex set of the given *size* chosen greedily by marginal group betweenness.

    A lightweight stand-in for the "most prominent group" heuristics of Puzis
    et al. (Section 3.1): at each step add the vertex that most increases the
    group betweenness of the running set.
    """
    if size < 1:
        raise ConfigurationError("size must be at least 1")
    if size > graph.number_of_vertices():
        raise ConfigurationError("size cannot exceed the number of vertices")
    chosen: List[Vertex] = []
    for _ in range(size):
        best_vertex = None
        best_score = -1.0
        for candidate in graph.vertices():
            if candidate in chosen:
                continue
            score = group_betweenness_centrality(
                graph,
                chosen + [candidate],
                n_jobs=n_jobs,
            )
            if score > best_score:
                best_score = score
                best_vertex = candidate
        assert best_vertex is not None
        chosen.append(best_vertex)
    return chosen
