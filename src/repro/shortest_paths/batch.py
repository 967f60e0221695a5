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
``sigma_p`` — so neither scipy's presence, the depth gate nor the block
widths can move a bit.  This is what lets the execution layer
(:mod:`repro.execution`) promise results that do not depend on any
execution knob, and what lets this module, not its callers, choose how
many sources share a traversal.

Block widths: callers hand over whole sets
------------------------------------------
Every caller — a Metropolis-Hastings chain's whole miss set, an engine
shard — hands :func:`batch_source_dependencies` all of its sources in one
call, and :func:`source_blocks` cuts them into the fewest even blocks of
the width the snapshot calls for: :data:`_UNWEIGHTED_WIDTH` columns on
unweighted graphs (wider spmm blocks measured slower), and on weighted
graphs the widest block whose sweep working set fits
:data:`_SWEEP_BLOCK_BYTES`.  Even splits leave no tail remainder for the
depth gate to send to solitary per-source passes.  With a *sink* the
blocks stream: each block's rows are handed over and freed before the
next block runs, so a set never costs more than one block of rows.

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

from repro.graphs.csr import np
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
#: sweep (float64: 32 MB).  Unweighted blocks narrow below
#: :data:`_UNWEIGHTED_WIDTH` columns where it binds — bit-identical by
#: column independence — so engaging the scipy path never costs more than
#: a handful of such buffers per worker, regardless of graph size.
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

#: Columns per unweighted block, the spmm sweep and the batched wave alike.
#: Wider spmm blocks measured slower per row (0.17 ms at K = 64 and 128
#: against 0.11 at 16 on BA(800, 3)).
_UNWEIGHTED_WIDTH = 16

#: Working-set budget of one batched weighted sweep, in bytes: a block is
#: the widest whose rows fit it at the per-row cost below.  Per-row sweep
#: cost falls with the width (0.87 ms at K = 16, 0.58 at 90 on a weighted
#: 30×30 grid) while peak memory grows with it; 63 rows on that grid peak
#: at about 3 MB of numpy buffers.
_SWEEP_BLOCK_BYTES = 4_500_000

#: Per-row cost the width is sized by: bytes per vertex (distances, path
#: counts, dependencies, inverse counts, waiting counts, dedup slots, the
#: layer lists) and per arc (the DAG arc keys).  Measured ``tracemalloc``
#: peaks per row stay under this model on weighted grids, paths, BA and ER
#: graphs (48 KB against 71 KB on the 30×30 grid);
#: ``tests/test_csr_equivalence.py`` pins a block of the chosen width on
#: that grid inside :data:`_SWEEP_BLOCK_BYTES`.
_SWEEP_VERTEX_BYTES = 48
_SWEEP_ARC_BYTES = 8

#: Elements of one chunk of the sweep's arc-sized temporaries — the
#: Bellman–Ford relaxations of a round and the dense ``(rows, m)`` DAG mask
#: — which are built chunk by chunk so they do not grow with the width.
_SWEEP_BLOCK_ELEMENTS = 32_768

#: Price of one round of the batched weighted sweep, in per-source arc
#: visits: a block of K rows takes the sweep while its hop rounds times
#: this stay within ``K × (n + m)`` (see :func:`_block_dependencies`).
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
    "source_blocks",
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
            # Edge-less frontier entries contribute nothing.
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
        flat = edge_index + np.repeat(starts - cum + counts, counts)
        nbrs = indices[flat]
        # Row base (row * n) per edge -> child keys without materialising
        # per-edge row ids.
        child_keys = np.repeat(active_keys - active_verts, counts) + nbrs
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
    of which other sources share the batch (the invariance that lets the
    kernels choose the block widths).  The backward product is the reference
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
    sink=None,
):
    """Return the ``(K, n)`` dependency matrix of *sources* (build + accumulate).

    The batched twin of
    :func:`~repro.shortest_paths.dependencies.csr_source_dependencies`, and
    the entry point every dependency pass of the library funnels through:
    callers hand over whole sets (a chain's miss set, an engine shard) and
    this layer cuts them into blocks whose width it chooses from the
    snapshot (:func:`source_blocks`).
    Each block takes one path:

    * a single source — the fused per-source pass
      (:func:`~repro.shortest_paths.dependencies.csr_source_dependencies`),
      whatever the graph: a one-row batch would pay the batch bookkeeping
      for nothing;
    * unweighted + scipy importable + small-diameter snapshot
      (:func:`_spmm_suitable`) — the sparse-matmul sweep of
      :func:`_batch_dependencies_spmm`, the fastest path where it applies;
    * unweighted otherwise (no scipy, or a deep graph where per-level
      spmm would cost ``O(diameter × m × K)``) — the batched numpy wave
      (:func:`bfs_spd_batch_csr` + :func:`accumulate_dependencies_batch_csr`);
    * weighted — the batched sweep of :func:`_dijkstra_sweep_batch` where
      the depth gate
      says it pays, else one
      :func:`~repro.shortest_paths.dijkstra.dijkstra_source_dependencies_csr`
      pass per row.

    Every unweighted path computes the one Brandes arithmetic of
    :mod:`repro.shortest_paths.bfs`, every weighted path the one weighted
    rule of :mod:`repro.shortest_paths.dijkstra`, so the choice among them
    — scipy present or not, the block widths, the depth gates — never
    changes a bit.  *out* accumulates the rows in source order.
    With a *sink*, each block's rows go to ``sink(begin, rows)`` as soon as
    they exist and the call returns the validated source indices instead
    of a matrix, so a large set never holds more than one block of rows.
    Every path rejects the same bad *sources* with the same error
    (:func:`_validate_sources`).
    """
    src = _validate_sources(csr, sources)
    if csr.weighted:
        validate_positive_weights(csr)
    if sink is None:
        delta = np.empty((int(src.size), csr.number_of_vertices()))

        def sink(begin, rows):
            delta[begin : begin + len(rows)] = rows

    else:
        delta = src
    for begin, end in source_blocks(csr, int(src.size)):
        rows = _block_dependencies(csr, src[begin:end])
        if out is not None:
            for row in rows:
                out += row
        sink(begin, rows)
        del rows  # freed before the next block runs
    return delta


def source_blocks(csr: "CSRGraph", count: int):
    """Yield the ``(begin, end)`` blocks the kernels run *count* sources of *csr* in.

    The widths are the kernel layer's choice (:func:`_block_width`), split
    evenly (:func:`_even_blocks`); they never change a row, only how many
    rows share one traversal.
    """
    return _even_blocks(count, _block_width(csr))


def _block_width(csr: "CSRGraph") -> int:
    """Rows per kernel call on *csr*: the kernel layer's choice, never the caller's.

    Unweighted blocks keep :data:`_UNWEIGHTED_WIDTH` columns (capped so an
    spmm block's dense buffers stay within :data:`_SPMM_BLOCK_ELEMENTS`).
    A weighted block is the widest whose sweep working set fits
    :data:`_SWEEP_BLOCK_BYTES` at :data:`_SWEEP_VERTEX_BYTES` per vertex
    and :data:`_SWEEP_ARC_BYTES` per arc of each row.
    """
    n = csr.number_of_vertices()
    if not csr.weighted:
        return max(1, min(_UNWEIGHTED_WIDTH, _SPMM_BLOCK_ELEMENTS // max(n, 1)))
    row_bytes = _SWEEP_VERTEX_BYTES * n + _SWEEP_ARC_BYTES * int(csr.indices.shape[0])
    return max(1, _SWEEP_BLOCK_BYTES // max(row_bytes, 1))


def _even_blocks(count: int, width: int):
    """Yield ``(begin, end)`` of the fewest blocks of at most *width* rows.

    The sizes differ by at most one (the larger first), so a set just past
    a multiple of *width* never leaves a tail remainder: 40 rows at width
    34 run as 20 + 20, not 34 + 6.
    """
    if count <= 0:
        return
    blocks = -(-count // width)
    size, extra = divmod(count, blocks)
    begin = 0
    for block in range(blocks):
        end = begin + size + (block < extra)
        yield begin, end
        begin = end


def _block_dependencies(csr: "CSRGraph", src):
    """The ``(K, n)`` rows of one block, on the path its shape picks."""
    if src.size == 1:
        from repro.shortest_paths.dependencies import csr_source_dependencies

        return csr_source_dependencies(csr, int(src[0]))[None, :]
    if not csr.weighted and _scipy_sparse is not None and _spmm_suitable(csr):
        return _batch_dependencies_spmm(csr, src, None)
    if not csr.weighted:
        return accumulate_dependencies_batch_csr(bfs_spd_batch_csr(csr, src))
    # The depth gate: the sweep costs one round per hop level of the whole
    # block, priced at _SWEEP_ROUND_COST arc visits each, against the
    # K × (n + m) work of the per-source passes; the observed rounds decide
    # once known, and the sweep's round budget enforces the same bound on a
    # first, unobserved call.  Both routes return the same bits.
    n = csr.number_of_vertices()
    budget = int(src.size) * (n + int(csr.indices.shape[0])) // _SWEEP_ROUND_COST
    rows = None
    if (csr._sweep_rounds or 0) <= budget:
        rows = _dijkstra_sweep_batch(csr, src, budget)
    if rows is None:
        rows = np.array([dijkstra_source_dependencies_csr(csr, s) for s in src.tolist()])
    return rows


def _count_dtype(bound: int):
    """``int32`` for stored counts and positions below 2**31, else ``int64``.

    Only for arrays that are stored, never for index arrays: a gather or
    ``ufunc.at`` converts a non-``intp`` index array on every use, which
    costs more time than the narrower array saves memory.
    """
    return np.int32 if bound < 2**31 else np.int64


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
    settles, bit for bit.  A round relaxes its arcs in chunks of about
    :data:`_SWEEP_BLOCK_ELEMENTS` (:func:`_arc_chunks`), lowering the
    distances chunk by chunk, so its temporaries do not grow with the block
    width; a later chunk may start from a distance an earlier one lowered,
    which reaches the same fixpoint, at most as many rounds later.  Returns
    ``(dist, rounds)`` with ``dist`` the flat ``K * n`` array, or ``None``
    once the rounds exceed *max_rounds*.
    """
    n = csr.number_of_vertices()
    k = int(src.size)
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    degree = csr.degrees()
    slot = np.empty(k * n, dtype=_count_dtype(k * max(n, int(indices.shape[0]))))
    dist = np.full(k * n, np.inf)
    frontier = np.arange(k, dtype=np.int64) * n + src
    dist[frontier] = 0.0
    rounds = 0
    while True:
        verts = frontier % n
        counts = degree[verts]
        found = []
        for begin, end in _arc_chunks(counts):
            if not counts[begin:end].any():
                continue
            flat, item = _ranges(indptr[verts[begin:end]], counts[begin:end])
            candidate = dist[frontier[begin:end]][item] + weights[flat]
            keys = (frontier[begin:end] - verts[begin:end])[item] + indices[flat]
            del flat, item
            better = candidate < dist[keys]
            keys = keys[better]
            np.minimum.at(dist, keys, candidate[better])
            del candidate, better
            found.append(_first_touch(keys, slot))
        if len(found) > 1:
            found = [_first_touch(np.concatenate(found), slot)]
        if not found or not found[0].size:
            break
        frontier = found[0]
        rounds += 1
        if rounds > max_rounds:
            return None
    return dist, rounds


def _arc_chunks(counts):
    """Yield ``(begin, end)`` runs of frontier entries by out-arc count.

    Each run holds at most :data:`_SWEEP_BLOCK_ELEMENTS` arcs, or one entry
    when a single entry has more.
    """
    ends = np.cumsum(counts)
    if not ends.size or ends[-1] <= _SWEEP_BLOCK_ELEMENTS:
        yield 0, counts.shape[0]
        return
    begin = 0
    while begin < counts.shape[0]:
        base = int(ends[begin - 1]) if begin else 0
        end = int(np.searchsorted(ends, base + _SWEEP_BLOCK_ELEMENTS, side="right"))
        end = max(begin + 1, end)
        yield begin, end
        begin = end


def _dag_arcs(csr: "CSRGraph", rows):
    """Parent and child keys of every DAG arc of every row of *rows*.

    Returned as two lists of chunks, listed row by row in CSR (parent,
    adjacency) order, so the parent keys come out sorted.  The ``(rows,
    m)`` mask temporaries are built :data:`_SWEEP_BLOCK_ELEMENTS` elements
    at a time, so they do not grow with the block width.
    """
    k, n = rows.shape
    indices, weights = csr.indices, csr.weights
    tails = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    step = max(1, _SWEEP_BLOCK_ELEMENTS // max(int(indices.shape[0]), 1))
    parents, children = [], []
    for begin in range(0, k, step):
        chunk = rows[begin : begin + step]
        row, arc = np.nonzero(_dag_arc_mask(chunk[:, tails], chunk[:, indices], weights))
        base = (row + begin) * n
        parents.append(base + tails[arc])
        children.append(base + indices[arc])
    return parents, children


def _dijkstra_sweep_batch(csr: "CSRGraph", src, max_rounds: int):
    """Batched weighted Brandes over flat ``(row, vertex)`` keys.

    Returns the ``(K, n)`` dependency matrix, or ``None`` once the
    distance rounds exceed *max_rounds* (recorded on the snapshot for the
    depth gate).  Three vectorised passes, each one round per hop level of
    the whole batch:

    * the exact distances (:func:`_batch_distances`);
    * the DAG arcs (:func:`_dag_arcs`, the rule of
      :func:`~repro.shortest_paths.dijkstra._dag_arc_mask`), listed row by
      row in adjacency order, and path counts forward over their Kahn
      layers (exact integers: order-free);
    * dependencies back over the same layers: per parent, ``np.bincount``
      sums ``(delta_c + 1) * (1 / sigma_c)`` over its children in
      adjacency order from ``0.0`` before the one ``sigma_p`` scale — the
      per-source sweep's arithmetic, so rows match it bit for bit.

    The working set per row is what :func:`_block_width` budgets: each
    buffer is freed once used, the arc-sized temporaries are chunked, a
    parent's arcs are one ``bounds`` range into the parent-sorted arc list,
    the arc-sized child index is rebuilt per layer rather than kept, and
    stored counts and positions are ``int32`` while they fit.
    """
    found = _batch_distances(csr, src, max_rounds)
    if found is None:
        csr._sweep_rounds = max_rounds + 1
        return None
    dist, rounds = found
    n = csr.number_of_vertices()
    k = int(src.size)
    count = _count_dtype(k * max(n, int(csr.indices.shape[0])))
    reached = np.isfinite(dist)
    parent, child = _dag_arcs(csr, dist.reshape(k, n))
    del dist
    parent, child = np.concatenate(parent), np.concatenate(child)
    waiting = np.bincount(child, minlength=k * n).astype(count)
    layer = np.flatnonzero(reached & (waiting == 0))
    del reached
    # bounds[key] .. bounds[key + 1]: the key's arcs in the parent-sorted
    # arc list.
    bounds = np.zeros(k * n + 1, dtype=count)
    np.cumsum(np.bincount(parent, minlength=k * n), out=bounds[1:], dtype=count)
    del parent

    roots = np.arange(k, dtype=np.int64) * n + src
    sig = np.zeros(k * n)
    sig[roots] = 1.0
    slot = np.empty(k * n, dtype=count)
    layers = []
    while True:
        start = bounds[layer]
        counts = bounds[layer + 1] - start
        live = counts > 0
        layer, start, counts = layer[live], start[live], counts[live]
        if not counts.size:
            break
        flat, item = _ranges(start, counts)
        kids = child[flat]
        del flat
        np.add.at(sig, kids, sig[layer][item])
        # A same-dtype operand keeps ufunc.at on its fast path.
        np.subtract.at(waiting, kids, count(1))
        # The arc-sized item index is rebuilt from the counts on the way
        # back rather than kept.
        layers.append((layer, kids, counts))
        layer = _first_touch(kids[waiting[kids] == 0], slot)
    del bounds, child, waiting, slot
    csr._sweep_rounds = max(rounds, len(layers))

    delta = np.zeros(k * n)
    inverse_sigma = np.zeros(k * n)
    np.divide(1.0, sig, out=inverse_sigma, where=sig > 0.0)
    for parents, kids, counts in reversed(layers):
        item = np.repeat(np.arange(parents.shape[0]), counts)
        coeff = (delta[kids] + 1.0) * inverse_sigma[kids]
        delta[parents] = np.bincount(item, weights=coeff, minlength=parents.shape[0]) * sig[parents]
    delta[roots] = 0.0
    return delta.reshape(k, n)
