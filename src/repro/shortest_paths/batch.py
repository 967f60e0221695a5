"""Batched multi-source traversal kernels over a CSR snapshot.

Every estimator in this library reduces to "run many single-source
shortest-path-DAG passes and accumulate" — the ``O(|E|)`` per-sample cost of
Section 2.1 repeated once per source.  The single-source CSR kernels in
:mod:`repro.shortest_paths.bfs` already replaced per-edge dict lookups with
one vectorised gather per BFS level; this module takes the next step and
runs **K independent BFS traversals as one wave**: each level of *all* K
traversals is expanded with a single set of numpy primitives, so the
fixed per-numpy-call overhead — which dominates a single-source pass on the
small-diameter graphs the paper targets — is paid ``diameter`` times per
batch instead of ``K × diameter`` times.  See
``benchmarks/bench_e11_batch_parallel.py`` for the speedup receipt.

Layout: flat keys at the boundary, compact ids in the loop
----------------------------------------------------------
A (row, vertex) pair is addressed by the scalar key ``k * n + v`` (rows
never collide, so one scatter updates all K traversals at once).  The wave
loop itself, however, never touches ``K × n``-sized state beyond one byte
per key (a ``visited`` bitmap): every per-level quantity — path counts,
dependency partials, avoid counts — lives in *compact* arrays indexed by
position in that level's frontier, and edges carry ``(parent_cid,
child_cid)`` positions instead of raw keys.  Frontier deduplication uses an
O(E) first-touch slot trick rather than a sort.  This keeps the per-level
work proportional to the number of wave edges, not to ``K × n``, which is
what makes large batches profitable.

Bit-identical contract
----------------------
For every source in the batch, the per-row ``dist`` / ``sig`` / dependency
values are **bit-identical** to what the single-source kernels
(:func:`~repro.shortest_paths.bfs.bfs_spd_csr` +
:func:`~repro.shortest_paths.dependencies.accumulate_dependencies_csr`)
produce for that source alone: within a row, edges are visited in the same
frontier-then-adjacency order, and ``np.bincount`` accumulates equal keys in
input order, so every floating-point sum is performed in the same order
regardless of which other sources share the batch.  Both the wave and the
sparse-matmul sweep compute the one Brandes arithmetic stated in
:mod:`repro.shortest_paths.bfs` — per parent, ``(delta_c + 1) * (1 /
sigma_c)`` summed over its children in adjacency order, then scaled once by
``sigma_p`` — so neither scipy's presence, the depth gate, ``kernel`` nor
``batch_size`` can move a bit.  This is what lets the execution layer
(:mod:`repro.execution`) promise results that do not depend on any
execution knob.

Weighted graphs batch the same way over the same flat keys
(:func:`_dijkstra_sweep_batch`): a frontier Bellman–Ford for the exact
distances, the DAG arcs in adjacency order, then path counts forward and
dependencies back over the DAG's Kahn layers — one round per hop level
of the whole batch.  It computes the one weighted rule of
:mod:`repro.shortest_paths.dijkstra`, so its rows equal the per-source
pass bit for bit, and a depth gate (hop rounds against ``K × (n + m)``)
picks between them on speed alone.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence

from repro.graphs.csr import np, resolve_kernel
from repro.shortest_paths.bfs import _first_touch
from repro.shortest_paths.dijkstra import (
    _dag_arc_mask,
    dijkstra_source_dependencies_csr,
    validate_positive_weights,
)

try:  # pragma: no cover - exercised implicitly on scipy-less installs
    import scipy.sparse as _scipy_sparse
except ImportError:  # pragma: no cover
    _scipy_sparse = None

#: Ceiling on ``n × columns`` of one dense buffer in the sparse-matmul
#: sweep (float64: 32 MB).  Larger batches are processed in column
#: sub-blocks — bit-identical by column independence — so engaging the
#: scipy path never costs more than a handful of such buffers per worker,
#: regardless of graph size or requested ``batch_size``.
_SPMM_BLOCK_ELEMENTS = 4_000_000

#: Depth ceiling for the sparse-matmul sweep.  Each BFS level costs one
#: full spmm over *all* edges plus one dense level mask, so high-diameter
#: graphs (paths, road networks) would pay ``O(diameter × m × K)`` time and
#: ``O(diameter × n × K)`` mask memory where the wave kernel pays
#: ``O(m × K)`` total.  :func:`_spmm_suitable` estimates the diameter once
#: per snapshot (``2 × ecc(v0)``, cached on the snapshot) and routes deep
#: graphs to the wave kernel instead — a speed choice only, since both
#: paths return the same bits; the cap also bounds the
#: mask footprint at ``_SPMM_MAX_DEPTH × _SPMM_BLOCK_ELEMENTS`` bytes.
_SPMM_MAX_DEPTH = 32

#: Ceiling on ``K × m`` of the batched weighted sweep's dense arc arrays
#: (one float64 buffer: 8 MB); larger batches run in row blocks.
_SWEEP_BLOCK_ELEMENTS = 1_000_000

#: Price of one round of the batched weighted sweep, in per-source arc
#: visits: a block of K rows takes the sweep while its hop rounds times
#: this stay within ``K × (n + m)`` (see :func:`_weighted_dependencies`).
_SWEEP_ROUND_COST = 400


def _spmm_suitable(csr: "CSRGraph") -> bool:
    """Return whether the spmm sweep suits *csr* (cached on the snapshot).

    Sound only for undirected graphs, where ``2 × ecc(probe)`` bounds the
    diameter of the probe's component; every component is probed (a
    disconnected graph's depth is the max over components, and one BFS per
    component totals ``O(n + m)`` once per snapshot).  No comparably cheap
    bound exists for directed graphs — forward eccentricity from one vertex
    says nothing about depth from the others (a hub pointing into a long
    chain has ecc 1) — so directed snapshots always take the wave kernel.
    """
    if csr._spmm_ok is None:
        csr._spmm_ok = not csr.directed and _undirected_depth_bounded(csr)
    return csr._spmm_ok


def _undirected_depth_bounded(csr: "CSRGraph") -> bool:
    from repro.shortest_paths.bfs import bfs_distances_csr

    n = csr.number_of_vertices()
    if n == 0:
        return False
    unseen = np.ones(n, dtype=bool)
    probe = 0
    while True:
        dist, order = bfs_distances_csr(csr, probe)
        eccentricity = float(dist[order[-1]]) if order.size else 0.0
        if 2.0 * eccentricity > float(_SPMM_MAX_DEPTH):
            return False
        unseen[order] = False
        remaining = np.flatnonzero(unseen)
        if remaining.size == 0:
            return True
        probe = int(remaining[0])

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "BatchLevel",
    "BatchedSPD",
    "bfs_spd_batch_csr",
    "accumulate_dependencies_batch_csr",
    "batch_source_dependencies",
]


class BatchLevel(NamedTuple):
    """The DAG edges between two consecutive BFS levels of a whole batch.

    ``parent_cid[e]`` / ``child_cid[e]`` are positions of edge *e*'s
    endpoints in the parent level's / this level's ``frontier_keys``;
    ``frontier_keys`` lists this level's (row, vertex) flat keys in
    first-touch order and ``sigma`` the matching shortest-path counts.
    Within a row, edges appear in the exact frontier-then-adjacency order
    the single-source kernel visits them.
    """

    parent_cid: "np.ndarray"
    child_cid: "np.ndarray"
    frontier_keys: "np.ndarray"
    sigma: "np.ndarray"


class BatchedSPD:
    """K shortest-path DAGs built by one batched BFS wave.

    Attributes
    ----------
    csr:
        The snapshot the batch was built over.
    sources:
        ``int64`` array of the K source indices (duplicates allowed — each
        row is an independent traversal).
    dist / sig:
        ``(K, n)`` ``float64`` matrices of distances (``inf`` when
        unreachable) and shortest-path counts (0 when unreachable); row *k*
        belongs to ``sources[k]``.
    root_keys / root_sigma:
        The level-0 frontier (one root per row) in the same compact form as
        the :class:`BatchLevel` records.
    levels:
        One :class:`BatchLevel` per BFS level below the roots; ``levels[L]``
        holds the DAG edges whose children sit at distance ``L + 1``.
    """

    __slots__ = ("csr", "sources", "dist", "sig", "root_keys", "root_sigma", "levels")

    def __init__(self, csr: "CSRGraph", sources, dist, sig, root_keys, root_sigma, levels) -> None:
        self.csr = csr
        self.sources = sources
        self.dist = dist
        self.sig = sig
        self.root_keys = root_keys
        self.root_sigma = root_sigma
        self.levels = levels

    def __len__(self) -> int:
        return int(self.sources.shape[0])


def _validate_sources(csr: "CSRGraph", sources: Sequence[int]):
    """Return *sources* as a 1-D ``int64`` array of in-range vertex indices.

    The one validation every batched entry point shares: ``ValueError`` for
    an empty or non-1-D sequence, ``IndexError`` for an index outside
    ``[0, n)``.
    """
    src = np.asarray(sources, dtype=np.int64)
    if src.ndim != 1 or src.size == 0:
        raise ValueError("sources must be a non-empty 1-D sequence of vertex indices")
    n = csr.number_of_vertices()
    if src.min() < 0 or src.max() >= n:
        raise IndexError(f"source indices out of range for {n} vertices")
    return src


def _spread(values, counts, cum, total):
    """``np.repeat(values, counts)`` for strictly positive *counts*.

    Built from one scatter + one cumsum instead of numpy's generic repeat,
    which is markedly slower for the many-small-counts pattern of a BFS
    frontier.  ``cum`` must be ``np.cumsum(counts)`` and *total* its last
    element.
    """
    steps = np.zeros(total, dtype=np.int64)
    steps[0] = values[0]
    steps[cum[:-1]] = np.diff(values)
    return np.cumsum(steps)


def bfs_spd_batch_csr(
    csr: "CSRGraph", sources: Sequence[int], *, cutoff: Optional[float] = None
) -> BatchedSPD:
    """Build the SPDs of all *sources* with one level-synchronous batched BFS.

    Parameters
    ----------
    csr:
        An unweighted CSR snapshot.
    sources:
        Iterable of K source indices (K >= 1; duplicates allowed).
    cutoff:
        Optional inclusive distance cutoff shared by every row, with the
        same semantics as :func:`~repro.shortest_paths.bfs.bfs_spd_csr`.

    Each row of the result is bit-identical to the single-source kernel run
    on that source alone (see the module docstring).
    """
    n = csr.number_of_vertices()
    src = _validate_sources(csr, sources)
    k = int(src.size)
    indptr, indices = csr.indptr, csr.indices

    visited = np.zeros(k * n, dtype=bool)
    root_keys = np.arange(k, dtype=np.int64) * n + src
    root_sigma = np.ones(k)
    visited[root_keys] = True

    # ``slot`` backs the O(E) first-touch dedup: slot[key] is the position of
    # the key's first occurrence in the current level's child-edge list.
    # Only slots written this level are read, so no per-level reset is needed.
    slot = np.empty(k * n, dtype=np.int64)

    frontier_keys = root_keys
    frontier_verts = src
    sigma = root_sigma
    levels: List[BatchLevel] = []
    level = 0.0
    while frontier_keys.size:
        if cutoff is not None and level + 1.0 > cutoff:
            break
        counts = indptr[frontier_verts + 1] - indptr[frontier_verts]
        nonzero = counts > 0
        if not nonzero.all():
            # _spread needs strictly positive counts; edge-less frontier
            # entries contribute nothing anyway.
            active_keys = frontier_keys[nonzero]
            active_verts = frontier_verts[nonzero]
            active_cid = np.flatnonzero(nonzero)
            counts = counts[nonzero]
        else:
            active_keys = frontier_keys
            active_verts = frontier_verts
            active_cid = None
        if counts.size == 0:
            break
        cum = np.cumsum(counts)
        total = int(cum[-1])
        edge_index = np.arange(total, dtype=np.int64)
        starts = indptr[active_verts]
        # Flat CSR positions of every out-edge of the frontier, in frontier
        # order then adjacency order (the dict BFS visit order).
        flat = edge_index + _spread(starts - cum + counts, counts, cum, total)
        nbrs = indices[flat]
        # Row base (row * n) per edge -> child keys without materialising
        # per-edge row ids.
        child_keys = _spread(active_keys - active_verts, counts, cum, total) + nbrs
        # Parent position (within this frontier) per edge.
        steps = np.zeros(total, dtype=np.int64)
        steps[cum[:-1]] = 1
        parent_cid = np.cumsum(steps)
        if active_cid is not None:
            parent_cid = active_cid[parent_cid]

        fresh = ~visited[child_keys]
        if not fresh.any():
            break
        child_keys = child_keys[fresh]
        parent_cid = parent_cid[fresh]
        edge_count = int(child_keys.shape[0])

        # First-touch dedup: mark each key's first position, then number the
        # unique children 0..u-1 in first-touch order (the queue order of
        # the dict BFS).
        positions = edge_index[:edge_count]
        slot[child_keys[::-1]] = positions[::-1]
        first_pos = slot[child_keys]
        is_first = first_pos == positions
        next_keys = child_keys[is_first]
        rank = np.cumsum(is_first) - 1
        child_cid = rank[first_pos]

        next_sigma = np.bincount(
            child_cid, weights=sigma[parent_cid], minlength=int(next_keys.shape[0])
        )
        visited[next_keys] = True
        levels.append(BatchLevel(parent_cid, child_cid, next_keys, next_sigma))
        frontier_keys = next_keys
        frontier_verts = next_keys % n
        sigma = next_sigma
        level += 1.0

    # Assemble the (K, n) boundary matrices from the compact levels.
    dist = np.full(k * n, np.inf)
    sig = np.zeros(k * n)
    dist[root_keys] = 0.0
    sig[root_keys] = root_sigma
    for depth, record in enumerate(levels, start=1):
        dist[record.frontier_keys] = float(depth)
        sig[record.frontier_keys] = record.sigma
    return BatchedSPD(
        csr, src, dist.reshape(k, n), sig.reshape(k, n), root_keys, root_sigma, levels
    )


def accumulate_dependencies_batch_csr(batch: BatchedSPD, out=None):
    """Run the Brandes back-propagation of every row of *batch* at once.

    Returns the ``(K, n)`` dependency matrix: row *k* is bit-identical to
    :func:`~repro.shortest_paths.dependencies.accumulate_dependencies_csr`
    applied to the SPD of ``batch.sources[k]`` alone (``delta[source] = 0``
    included).  Each BFS level is processed with one vectorised pass over
    its compact edge records — children at level ``L + 1`` have their final
    delta before the level-``L`` edges are touched, exactly as in the
    single-source recursion — and no intermediate touches ``K × n`` state.

    When *out* is given (an ``(n,)`` float64 buffer) the per-row vectors are
    additionally accumulated into it **sequentially in source order**, which
    is the canonical accumulation the execution layer's determinism contract
    is defined against (one vector addition per source, independent of how
    sources were grouped into batches).
    """
    k = len(batch)
    n = batch.csr.number_of_vertices()
    levels = batch.levels
    # deltas[L] is the compact dependency array of level L's frontier
    # (deltas[0] belongs to the roots, the deepest level has no children).
    sigmas = [batch.root_sigma] + [record.sigma for record in levels]
    deltas = [None] * len(levels) + [np.zeros(sigmas[-1].shape[0])]
    for depth in range(len(levels) - 1, -1, -1):
        record = levels[depth]
        coeff = (deltas[depth + 1] + 1.0) * (1.0 / record.sigma)
        deltas[depth] = (
            np.bincount(
                record.parent_cid,
                weights=coeff[record.child_cid],
                minlength=sigmas[depth].shape[0],
            )
            * sigmas[depth]
        )
    delta = np.zeros(k * n)
    # Roots carry delta 0 by definition, so only the deeper levels scatter.
    for depth, record in enumerate(levels, start=1):
        delta[record.frontier_keys] = deltas[depth]
    delta = delta.reshape(k, n)
    if out is not None:
        for row in delta:
            out += row
    return delta


def _batch_dependencies_spmm(csr: "CSRGraph", src, out):
    """Sparse-matmul batched Brandes: the high-throughput dependency path.

    Both sweeps become one ``csr_matrix @ dense`` product per BFS level —
    the forward wave propagates path counts to the next level through the
    (in-)adjacency, the backward wave spreads ``(1 + delta) / sigma``
    through the out-adjacency masked to each level's DAG parents — so the
    whole batch costs ``O(diameter)`` C-level products instead of
    ``K × diameter`` Python-level gathers.

    Every batch column is computed by an identical, column-local operation
    sequence, so a source's dependency vector is bit-identical regardless
    of which other sources share the batch (the execution layer's
    ``batch_size`` invariance).  The backward product is the reference
    form of the one Brandes arithmetic (:mod:`repro.shortest_paths.bfs`):
    each row of the out-adjacency sums ``(1 + delta) * (1 / sigma)`` over
    its neighbours in adjacency order — non-children contribute an exact
    ``0.0`` — before the single ``sigma`` scale, so every column equals
    the single-source kernel's vector bit for bit.
    """
    n = csr.number_of_vertices()
    k = int(src.size)
    forward = csr.scipy_adjacency(transpose=True)
    backward = csr.scipy_adjacency()
    cols = np.arange(k)
    sig = np.zeros((n, k))
    sig[src, cols] = 1.0
    visited = np.zeros((n, k), dtype=bool)
    visited[src, cols] = True
    frontier = np.zeros((n, k))
    frontier[src, cols] = 1.0
    fresh = np.empty((n, k), dtype=bool)
    # One dense bool mask per level; bounded by the _SPMM_MAX_DEPTH gate, so
    # the footprint never exceeds a few dense buffers.
    level_masks = []
    while True:
        contrib = forward @ frontier
        np.greater(contrib, 0.0, out=fresh)
        fresh &= ~visited
        if not fresh.any():
            break
        visited |= fresh
        np.copyto(sig, contrib, where=fresh)
        # Zero everything but the new level in place: `contrib` becomes the
        # next frontier's sigma values.
        np.multiply(contrib, fresh, out=contrib)
        frontier = contrib
        level_masks.append(fresh.copy())
    delta = np.zeros((n, k))
    inverse_sigma = np.zeros((n, k))
    np.divide(1.0, sig, out=inverse_sigma, where=sig > 0.0)
    roots = np.zeros((n, k), dtype=bool)
    roots[src, cols] = True
    coeff = np.empty((n, k))
    for depth in range(len(level_masks) - 1, -1, -1):
        # coeff = (1 + delta) / sigma, masked to the level's children.
        np.add(delta, 1.0, out=coeff)
        coeff *= inverse_sigma
        np.multiply(coeff, level_masks[depth], out=coeff)
        spread = backward @ coeff
        # Credit the DAG parents (one level up; the roots for level 0).
        spread *= sig
        np.multiply(spread, level_masks[depth - 1] if depth > 0 else roots, out=spread)
        delta += spread
    delta[src, cols] = 0.0
    if out is not None:
        for column in range(k):
            out += delta[:, column]
    return delta.T


def batch_source_dependencies(
    csr: "CSRGraph",
    sources: Sequence[int],
    out=None,
    kernel: str = "auto",
    kernel_threads: int = 1,
):
    """Return the ``(K, n)`` dependency matrix of *sources* (build + accumulate).

    The batched twin of
    :func:`~repro.shortest_paths.dependencies.csr_source_dependencies`, and
    the entry point every execution-engine shard worker funnels through.
    The paths share the signature and the *out* contract (sequential
    per-source accumulation in source order):

    * a single source — the fused per-source pass
      (:func:`~repro.shortest_paths.dependencies.csr_source_dependencies`)
      on the rung ``kernel`` resolves to, whatever the graph: a one-row
      batch would pay the batch bookkeeping for nothing;
    * unweighted + scipy importable + small-diameter snapshot
      (:func:`_spmm_suitable`) — the sparse-matmul sweep of
      :func:`_batch_dependencies_spmm`, the fastest path where it applies;
    * unweighted otherwise (no scipy, or a deep graph where per-level
      spmm would cost ``O(diameter × m × K)``) — the batched wave, on the
      rung ``kernel`` resolves to: the numba batch kernel
      (:func:`~repro.shortest_paths.compiled.batch_dependencies_compiled`)
      or the pure-numpy wave (:func:`bfs_spd_batch_csr` +
      :func:`accumulate_dependencies_batch_csr`);
    * weighted — the compiled batch kernel on that rung, otherwise the
      batched sweep of :func:`_dijkstra_sweep_batch` where the depth gate
      of :func:`_weighted_dependencies` says it pays, else one
      :func:`~repro.shortest_paths.dijkstra.dijkstra_source_dependencies_csr`
      pass per row.

    Every unweighted path computes the one Brandes arithmetic of
    :mod:`repro.shortest_paths.bfs`, every weighted path the one weighted
    rule of :mod:`repro.shortest_paths.dijkstra`, so the choice among them
    — scipy present or not, the depth gates, ``kernel``, ``batch_size`` —
    never changes a bit.
    ``kernel_threads`` engages the ``prange`` variants of the compiled
    batch kernels (ignored — harmlessly — on every other path); threads
    stride independent rows, so the count is result-neutral by
    construction.  Every path rejects the same bad *sources* with the
    same error (:func:`_validate_sources`).
    """
    src = _validate_sources(csr, sources)
    n = csr.number_of_vertices()
    # Resolved up front so a compiled request without numba warns on every
    # branch, the spmm sweep included.
    kernel = resolve_kernel(kernel)
    if src.size == 1:
        from repro.shortest_paths.dependencies import csr_source_dependencies

        row = csr_source_dependencies(csr, int(src[0]), kernel=kernel)
        if out is not None:
            out += row
        return row[None, :]
    if not csr.weighted and _scipy_sparse is not None and _spmm_suitable(csr):
        block = max(1, _SPMM_BLOCK_ELEMENTS // max(n, 1))
        if src.size <= block:
            return _batch_dependencies_spmm(csr, src, out)
        # Cap the dense working set: process column sub-blocks (each
        # column is computed independently, so this is bit-identical to
        # the one-shot call).
        delta = np.empty((int(src.size), n))
        for begin in range(0, int(src.size), block):
            delta[begin : begin + block] = _batch_dependencies_spmm(
                csr, src[begin : begin + block], out
            )
        return delta
    if kernel == "compiled":
        from repro.shortest_paths.compiled import batch_dependencies_compiled

        return batch_dependencies_compiled(
            csr, src, out=out, threads=kernel_threads
        )
    if not csr.weighted:
        return accumulate_dependencies_batch_csr(bfs_spd_batch_csr(csr, src), out=out)
    return _weighted_dependencies(csr, src, out)


def _ranges(starts, counts):
    """Flatten the index ranges ``[starts[i], starts[i] + counts[i])``.

    Returns ``(flat, item)``: every position of every range in order, and
    the range each belongs to.
    """
    cum = np.cumsum(counts)
    item = np.repeat(np.arange(counts.shape[0]), counts)
    flat = np.repeat(starts - cum + counts, counts) + np.arange(int(cum[-1]), dtype=np.int64)
    return flat, item


def _batch_distances(csr: "CSRGraph", src, max_rounds: int):
    """Exact distances of every ``(row, vertex)`` key by frontier Bellman–Ford.

    Keys whose distance improved relax their out-arcs; ``np.minimum.at``
    keeps the exact ``min fl(D[u] + w)``, the fixpoint the per-source heap
    settles, bit for bit.  Returns ``(dist, rounds)`` with ``dist`` the
    flat ``K * n`` array, or ``None`` once the rounds exceed *max_rounds*.
    """
    n = csr.number_of_vertices()
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    degree = csr.degrees()
    slot = np.empty(int(src.size) * n, dtype=np.int64)
    dist = np.full(int(src.size) * n, np.inf)
    frontier = np.arange(src.size, dtype=np.int64) * n + src
    dist[frontier] = 0.0
    rounds = 0
    while True:
        verts = frontier % n
        counts = degree[verts]
        live = counts > 0
        if not live.all():
            frontier, verts, counts = frontier[live], verts[live], counts[live]
            if not counts.size:
                break
        flat, item = _ranges(indptr[verts], counts)
        keys = (frontier - verts)[item] + indices[flat]
        candidate = dist[frontier][item] + weights[flat]
        better = candidate < dist[keys]
        if not better.any():
            break
        rounds += 1
        if rounds > max_rounds:
            return None
        keys = keys[better]
        np.minimum.at(dist, keys, candidate[better])
        frontier = _first_touch(keys, slot)
    return dist, rounds


def _dijkstra_sweep_batch(csr: "CSRGraph", src, max_rounds: int):
    """Batched weighted Brandes over flat ``(row, vertex)`` keys.

    Returns the ``(K, n)`` dependency matrix, or ``None`` once the
    distance rounds exceed *max_rounds* (recorded on the snapshot for the
    depth gate).  Three vectorised passes, each one round per hop level of
    the whole batch:

    * the exact distances (:func:`_batch_distances`);
    * the DAG arcs (:func:`~repro.shortest_paths.dijkstra._dag_arc_mask`),
      listed row by row in adjacency order, and path counts forward over
      their Kahn layers (exact integers: order-free);
    * dependencies back over the same layers: per parent, ``np.bincount``
      sums ``(delta_c + 1) * (1 / sigma_c)`` over its children in
      adjacency order from ``0.0`` before the one ``sigma_p`` scale — the
      per-source sweep's arithmetic, so rows match it bit for bit.
    """
    found = _batch_distances(csr, src, max_rounds)
    if found is None:
        csr._sweep_rounds = max_rounds + 1
        return None
    dist, rounds = found
    n = csr.number_of_vertices()
    k = int(src.size)
    indices, weights = csr.indices, csr.weights
    degree = csr.degrees()
    slot = np.empty(k * n, dtype=np.int64)
    roots = np.arange(k, dtype=np.int64) * n + src

    # DAG arcs of every row, row by row in CSR (parent, adjacency) order.
    rows = dist.reshape(k, n)
    arcs = np.flatnonzero(
        _dag_arc_mask(np.repeat(rows, degree, axis=1), rows[:, indices], weights)
    )
    m = indices.shape[0]
    row_base = (arcs // m) * n
    arcs %= m
    child = row_base + indices[arcs]
    parent_count = np.bincount(row_base + np.repeat(np.arange(n), degree)[arcs], minlength=k * n)
    parent_start = np.cumsum(parent_count) - parent_count
    waiting = np.bincount(child, minlength=k * n)

    sig = np.zeros(k * n)
    sig[roots] = 1.0
    layer = np.flatnonzero((waiting == 0) & np.isfinite(dist))
    layers = []
    while True:
        counts = parent_count[layer]
        live = counts > 0
        layer, counts = layer[live], counts[live]
        if not counts.size:
            break
        flat, item = _ranges(parent_start[layer], counts)
        kids = child[flat]
        np.add.at(sig, kids, sig[layer][item])
        np.subtract.at(waiting, kids, 1)
        layers.append((layer, kids, item))
        layer = _first_touch(kids[waiting[kids] == 0], slot)
    csr._sweep_rounds = max(rounds, len(layers))

    delta = np.zeros(k * n)
    inverse_sigma = np.zeros(k * n)
    np.divide(1.0, sig, out=inverse_sigma, where=sig > 0.0)
    for parents, kids, item in reversed(layers):
        coeff = (delta[kids] + 1.0) * inverse_sigma[kids]
        delta[parents] = np.bincount(item, weights=coeff, minlength=parents.shape[0]) * sig[parents]
    delta[roots] = 0.0
    return delta.reshape(k, n)


def _weighted_dependencies(csr: "CSRGraph", src, out):
    """Weighted rows: the batched sweep where it pays, else per-source passes.

    Rows go in blocks of at most ``_SWEEP_BLOCK_ELEMENTS // m`` sources
    (the sweep's dense ``(K, m)`` arc temporaries stay bounded).  A block
    takes :func:`_dijkstra_sweep_batch` unless the snapshot's observed
    hop rounds, priced at ``_SWEEP_ROUND_COST`` arc visits each, exceed
    the ``K × (n + m)`` work of the per-source passes; the sweep's round
    budget enforces the same bound on a first, unobserved call.  Both
    routes return the same bits, so the gate is a speed choice only.
    """
    validate_positive_weights(csr)
    n = csr.number_of_vertices()
    m = int(csr.indices.shape[0])
    block = max(1, _SWEEP_BLOCK_ELEMENTS // max(m, 1))
    delta = np.empty((int(src.size), n))
    for begin in range(0, int(src.size), block):
        chunk = src[begin : begin + block]
        budget = int(chunk.size) * (n + m) // _SWEEP_ROUND_COST
        rows = None
        if chunk.size > 1 and (csr._sweep_rounds or 0) <= budget:
            rows = _dijkstra_sweep_batch(csr, chunk, budget)
        if rows is None:
            rows = [dijkstra_source_dependencies_csr(csr, s) for s in chunk.tolist()]
        delta[begin : begin + chunk.size] = rows
    if out is not None:
        for row in delta:
            out += row
    return delta
