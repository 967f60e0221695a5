"""Compiled (numba-jitted) twins of the CSR traversal kernels.

The faster of the two CSR kernel rungs (``csr`` → ``compiled``): scalar
re-implementations of the hot loops every estimator bottoms out in — the
level-synchronous BFS wave of
:func:`repro.shortest_paths.bfs.bfs_spd_csr`, the flat-array-heap
Dijkstra wave of :func:`repro.shortest_paths.dijkstra.dijkstra_spd_csr`
and the Brandes back-propagations of
:func:`repro.shortest_paths.dependencies.accumulate_dependencies_csr` —
written against flat CSR ``indptr``/``indices``/``weights`` arrays in
the numba ``@njit`` subset and compiled to machine code on first call
(``cache=True``: later processes load the compiled artifact from the
on-disk cache instead of recompiling).  The batched kernels additionally
come in ``prange`` thread-parallel variants (``threads > 1`` via the
``kernel_threads`` execution knob): threads stride the independent
per-source rows with private scratch, which parallelises the batch
without touching any row's float summation order.

Selection is owned by :func:`repro.graphs.csr.resolve_kernel`: ``"auto"`` resolves to
``"compiled"`` exactly when numba is importable, the ``REPRO_KERNEL``
environment variable overrides it process-wide, and an explicit
``kernel="compiled"`` without numba warns and falls back to the numpy
rung.  Every function in this module is also runnable *without* numba —
the kernels are plain Python functions that only gain a ``@njit`` wrapper
when the import succeeds — which is what lets the equivalence test-suite
pin the compiled rung's arithmetic on numba-less installs.

Bit-identity contract
---------------------
The scalar loops replay the numpy kernels' floating-point work in the
exact same order, so every result is **bit-identical** to the CSR rung:

* sigma: ``np.bincount`` accumulates equal keys in input order starting
  from ``0.0``, and a child's path count starts at exactly ``0.0`` when
  its level is expanded — so the scalar ``sig[v] += sig[u]`` over edges in
  frontier-then-adjacency order produces the identical sequence of
  partial sums (``x + 0.0 == x`` bitwise for the non-negative values
  involved).
* delta: the one Brandes arithmetic of :mod:`repro.shortest_paths.bfs`.
  A vertex appears as a parent in exactly one level record, as one
  contiguous run of edges; the scalar loop sums ``(delta[c] + 1.0) *
  (1.0 / sig[c])`` over the run from ``0.0`` and scales the sum by
  ``sig[p]`` once — the bincount sum and the sparse-matmul row product
  term for term.
* weighted: the one weighted rule of :mod:`repro.shortest_paths.dijkstra`.
  The flat-array heap relaxes without a tie band, so ``dist`` is the
  exact fixpoint any correct method returns; its ``(distance, counter,
  vertex)`` keys are a strict total order, so it settles vertices in the
  interpreter rung's order.  The sweeps test each arc with the same DAG
  expression (:func:`_dag_arc_py`), count paths forward in settle order
  and sum each parent's children in adjacency order before the one
  ``sig[p]`` scale.

The sparse-matmul sweep and the batched weighted sweep of
:mod:`repro.shortest_paths.batch` compute the same arithmetic, so
``kernel="csr"`` and ``kernel="compiled"`` are bitwise identical on
**every** path, whichever one a batch takes.

Scratch buffers
---------------
The per-source state (distances, path counts, traversal order, flat DAG
edges, level offsets) lives in preallocated per-process scratch arrays
keyed by the snapshot's ``(n, m)`` shape, so a Brandes sweep allocates
nothing per source.  Functions that *return* arrays (the SPD builder, the
dependency vectors) copy out of the scratch — callers may hold results
across subsequent calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.graphs.csr import np

try:  # pragma: no cover - exercised implicitly on numba-less installs
    from numba import njit as _njit, prange

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover
    _njit = None
    prange = range
    NUMBA_AVAILABLE = False

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph
    from repro.shortest_paths.spd import CSRShortestPathDAG

__all__ = [
    "NUMBA_AVAILABLE",
    "warm_up",
    "maybe_warm_up",
    "bfs_spd_compiled",
    "dijkstra_spd_compiled",
    "accumulate_dependencies_compiled",
    "source_dependencies_compiled",
    "batch_dependencies_compiled",
    "engage_threads",
]

#: Relative width of the DAG tie band — must match
#: ``repro.shortest_paths.dijkstra._EPSILON`` (asserted by the test-suite)
#: so the compiled sweeps draw exactly the interpreter rung's DAG.
_EPS = 1e-12


def _jit(fn):
    """Wrap *fn* with ``@njit(cache=True)`` when numba is importable.

    Without numba the plain Python function is returned unchanged — slow,
    but arithmetically identical, which keeps this module importable and
    testable everywhere.
    """
    if _njit is None:
        return fn
    return _njit(cache=True)(fn)


def _jit_parallel(fn):
    """``@njit(parallel=True, cache=True)`` twin of :func:`_jit`.

    Without numba, ``prange`` is plain ``range`` and the strided
    thread-loop bodies run sequentially — same arithmetic, same results.
    """
    if _njit is None:
        return fn
    return _njit(parallel=True, cache=True)(fn)


def engage_threads(threads) -> int:
    """Clamp *threads* and point numba's thread pool at it; return the count.

    ``kernel_threads`` is result-neutral by construction (the parallel
    kernels stride independent per-source rows over threads), so the only
    job here is capping at numba's launch-time maximum —
    ``set_num_threads`` rejects anything above ``NUMBA_NUM_THREADS``.
    Without numba any value collapses to the sequential fallback.
    """
    if threads is None:
        return 1
    count = max(1, int(threads))
    if count == 1 or not NUMBA_AVAILABLE:
        return count
    import numba

    count = max(1, min(count, int(numba.config.NUMBA_NUM_THREADS)))
    numba.set_num_threads(count)
    return count


# ----------------------------------------------------------------------
# Kernels (njit-compatible subset; module-level so numba caches them)
# ----------------------------------------------------------------------
def _bfs_wave_py(
    indptr, indices, source, cutoff, dist, sig, order, level_start, edge_p, edge_c, edge_start
):
    """Scalar twin of the ``bfs_spd_csr`` level loop (see module docstring).

    Fills the scratch arrays in place and returns ``(n_order, n_levels)``:
    ``order[:n_order]`` is the traversal order, level ``L``'s frontier is
    ``order[level_start[L]:level_start[L + 1]]`` and its DAG edges (children
    at distance ``L + 1``) are ``edge_p/edge_c[edge_start[L]:edge_start[L +
    1]]`` — the flat-array form of the numpy kernel's ``level_edges``.
    ``cutoff`` is the inclusive distance bound (``inf`` = unbounded).
    """
    n = dist.shape[0]
    inf = np.inf
    for i in range(n):
        dist[i] = inf
        sig[i] = 0.0
    dist[source] = 0.0
    sig[source] = 1.0
    order[0] = source
    n_order = 1
    level_start[0] = 0
    level_start[1] = 1
    edge_start[0] = 0
    n_edges = 0
    n_levels = 0
    frontier_lo = 0
    frontier_hi = 1
    level = 0.0
    while frontier_hi > frontier_lo:
        if level + 1.0 > cutoff:
            break
        next_d = level + 1.0
        for fi in range(frontier_lo, frontier_hi):
            u = order[fi]
            su = sig[u]
            for ei in range(indptr[u], indptr[u + 1]):
                v = indices[ei]
                dv = dist[v]
                if dv == inf:
                    # First touch: the numpy kernel's isinf mask holds for
                    # every edge into this level's children because dist is
                    # only written after the level's gather — which is
                    # exactly first-touch OR already-at-next_d here.
                    dist[v] = next_d
                    order[n_order] = v
                    n_order += 1
                    edge_p[n_edges] = u
                    edge_c[n_edges] = v
                    n_edges += 1
                    sig[v] += su
                elif dv == next_d:
                    edge_p[n_edges] = u
                    edge_c[n_edges] = v
                    n_edges += 1
                    sig[v] += su
        if n_order == frontier_hi:
            break
        n_levels += 1
        edge_start[n_levels] = n_edges
        level_start[n_levels + 1] = n_order
        frontier_lo = frontier_hi
        frontier_hi = n_order
        level = next_d
    return n_order, n_levels


_bfs_wave = _jit(_bfs_wave_py)


def _accumulate_py(sig, delta, edge_p, edge_c, edge_start, n_levels, source):
    """Scalar twin of the level loop of ``accumulate_dependencies_csr``.

    Processes the level records deepest-first.  A parent's edges form one
    contiguous run of its (single) record, so the run's coefficients are
    summed from ``0.0`` in order and the sum is scaled by ``sig[p]`` when
    the run ends — the one Brandes arithmetic, bit for bit.
    """
    n = delta.shape[0]
    for i in range(n):
        delta[i] = 0.0
    for lev in range(n_levels - 1, -1, -1):
        lo = edge_start[lev]
        hi = edge_start[lev + 1]
        if lo == hi:
            continue
        p = edge_p[lo]
        total = 0.0
        for e in range(lo, hi):
            if edge_p[e] != p:
                delta[p] = total * sig[p]
                p = edge_p[e]
                total = 0.0
            c = edge_c[e]
            total += (delta[c] + 1.0) * (1.0 / sig[c])
        delta[p] = total * sig[p]
    delta[source] = 0.0


_accumulate = _jit(_accumulate_py)


def _source_delta_py(
    indptr, indices, source, dist, sig, delta, order, level_start, edge_p, edge_c, edge_start
):
    """Fused per-source pass: BFS wave + dependency accumulation, one call."""
    n_order, n_levels = _bfs_wave(
        indptr, indices, source, np.inf, dist, sig, order, level_start, edge_p, edge_c, edge_start
    )
    _accumulate(sig, delta, edge_p, edge_c, edge_start, n_levels, source)
    return n_order


_source_delta = _jit(_source_delta_py)


def _batch_delta_py(
    indptr, indices, sources, delta, dist, sig, order, level_start, edge_p, edge_c, edge_start
):
    """Batched ``(K, n)`` twin: one fused pass per row, written into ``delta[k]``."""
    for k in range(sources.shape[0]):
        _source_delta(
            indptr,
            indices,
            sources[k],
            dist,
            sig,
            delta[k],
            order,
            level_start,
            edge_p,
            edge_c,
            edge_start,
        )


_batch_delta = _jit(_batch_delta_py)


def _batch_delta_parallel_py(indptr, indices, sources, delta, n_threads):
    """``prange``-over-threads twin of :func:`_batch_delta_py`.

    Each thread owns a private scratch set and the strided source subset
    ``k = t, t + T, t + 2T, ...``; every row ``delta[k]`` is the fused
    per-source kernel's output, written by exactly one thread.  Rows are
    mutually independent, so the partition (and hence the thread count)
    cannot change any row's float summation order — ``kernel_threads`` is
    result-neutral by construction, not by tolerance.
    """
    K = sources.shape[0]
    n = indptr.shape[0] - 1
    m = indices.shape[0]
    for t in prange(n_threads):
        dist = np.empty(n)
        sig = np.empty(n)
        order = np.empty(n, np.int64)
        level_start = np.empty(n + 2, np.int64)
        edge_p = np.empty(m, np.int64)
        edge_c = np.empty(m, np.int64)
        edge_start = np.empty(n + 2, np.int64)
        for k in range(t, K, n_threads):
            _source_delta(
                indptr,
                indices,
                sources[k],
                dist,
                sig,
                delta[k],
                order,
                level_start,
                edge_p,
                edge_c,
                edge_start,
            )


_batch_delta_parallel = _jit_parallel(_batch_delta_parallel_py)


def _dijkstra_wave_py(
    indptr, indices, weights, source, dist, order, heap_key, heap_cnt, heap_vtx
):
    """Flat-array heap twin of the exact heap of ``dijkstra_spd_csr``.

    The priority queue is a hand-rolled binary heap over three parallel
    arrays — key (tentative distance), push counter, vertex — with no
    tuple allocation.  The interpreter rung keys its ``heapq`` entries
    ``(distance, counter, vertex)``; the counter makes the key set
    strictly totally ordered, so the unique minimum at every pop is the
    same for any correct heap and both rungs settle vertices in the
    identical order.  A vertex is pushed only on a strict improvement
    (no tie band), so ``dist`` is the exact fixpoint ``min fl(dist[u] +
    w)`` and doubles as the tentative distance.  Returns ``n_order``.
    """
    n = dist.shape[0]
    inf = np.inf
    for i in range(n):
        dist[i] = inf
    dist[source] = 0.0
    heap_key[0] = 0.0
    heap_cnt[0] = 0
    heap_vtx[0] = source
    size = 1
    counter = 1
    n_order = 0
    while size > 0:
        dist_u = heap_key[0]
        u = heap_vtx[0]
        # Pop: move the last entry to the root and sift it down.  The
        # arrangement may differ from heapq's internal layout, but the
        # popped minimum is unique at every step, so the pop sequence
        # cannot.
        size -= 1
        if size > 0:
            key = heap_key[size]
            cnt = heap_cnt[size]
            vtx = heap_vtx[size]
            pos = 0
            while True:
                child = 2 * pos + 1
                if child >= size:
                    break
                right = child + 1
                if right < size and (
                    heap_key[right] < heap_key[child]
                    or (heap_key[right] == heap_key[child] and heap_cnt[right] < heap_cnt[child])
                ):
                    child = right
                if heap_key[child] < key or (heap_key[child] == key and heap_cnt[child] < cnt):
                    heap_key[pos] = heap_key[child]
                    heap_cnt[pos] = heap_cnt[child]
                    heap_vtx[pos] = heap_vtx[child]
                    pos = child
                else:
                    break
            heap_key[pos] = key
            heap_cnt[pos] = cnt
            heap_vtx[pos] = vtx
        if dist_u > dist[u]:
            continue  # superseded by a shorter path
        order[n_order] = u
        n_order += 1
        for ei in range(indptr[u], indptr[u + 1]):
            v = indices[ei]
            candidate = dist_u + weights[ei]
            if candidate < dist[v]:
                dist[v] = candidate
                # Push (sift up from the first free slot).
                pos = size
                size += 1
                while pos > 0:
                    parent = (pos - 1) >> 1
                    if candidate < heap_key[parent] or (
                        candidate == heap_key[parent] and counter < heap_cnt[parent]
                    ):
                        heap_key[pos] = heap_key[parent]
                        heap_cnt[pos] = heap_cnt[parent]
                        heap_vtx[pos] = heap_vtx[parent]
                        pos = parent
                    else:
                        break
                heap_key[pos] = candidate
                heap_cnt[pos] = counter
                heap_vtx[pos] = v
                counter += 1
    return n_order


_dijkstra_wave = _jit(_dijkstra_wave_py)


def _dag_arc_py(tail_dist, head_dist, weight):
    """Scalar twin of ``dijkstra._dag_arc_mask``: is the arc a DAG arc?"""
    if not tail_dist < head_dist:
        return False
    candidate = tail_dist + weight
    return abs(candidate - head_dist) <= _EPS * max(1.0, candidate)


_dag_arc = _jit(_dag_arc_py)


def _wsigma_py(indptr, indices, weights, dist, sig, order, n_order):
    """Path counts forward over the DAG in settle order (exact integers)."""
    for i in range(sig.shape[0]):
        sig[i] = 0.0
    sig[order[0]] = 1.0
    for oi in range(n_order):
        u = order[oi]
        for ei in range(indptr[u], indptr[u + 1]):
            v = indices[ei]
            if _dag_arc(dist[u], dist[v], weights[ei]):
                sig[v] += sig[u]


_wsigma = _jit(_wsigma_py)


def _wdelta_py(indptr, indices, weights, dist, sig, delta, order, n_order):
    """The weighted Brandes sweep in reverse settle order.

    Per parent, ``(delta[c] + 1.0) * (1.0 / sig[c])`` summed from ``0.0``
    over its DAG children in adjacency order, then scaled once by
    ``sig[p]`` — the one Brandes arithmetic, bit for bit.
    """
    for i in range(delta.shape[0]):
        delta[i] = 0.0
    for oi in range(n_order - 1, -1, -1):
        p = order[oi]
        total = 0.0
        parent = False
        for ei in range(indptr[p], indptr[p + 1]):
            c = indices[ei]
            if _dag_arc(dist[p], dist[c], weights[ei]):
                total += (delta[c] + 1.0) * (1.0 / sig[c])
                parent = True
        if parent:
            delta[p] = total * sig[p]
    delta[order[0]] = 0.0


_wdelta = _jit(_wdelta_py)


def _wpreds_py(indptr, indices, weights, dist, order, n_order, pred_indptr, pred_indices):
    """The DAG's CSR predecessor arrays, each vertex's parents in settle order.

    Within-vertex parent order is observable — the samplers' backtracking
    walks parents with a cumulative rng scan and the group-betweenness
    sweep float-sums over them — so parents are filled in settle order,
    the interpreter rung's order.  Returns the total predecessor count.
    """
    n = pred_indptr.shape[0] - 1
    for i in range(n + 1):
        pred_indptr[i] = 0
    for oi in range(n_order):
        u = order[oi]
        for ei in range(indptr[u], indptr[u + 1]):
            v = indices[ei]
            if _dag_arc(dist[u], dist[v], weights[ei]):
                pred_indptr[v + 1] += 1
    for v in range(n):
        pred_indptr[v + 1] += pred_indptr[v]
    for oi in range(n_order):
        u = order[oi]
        for ei in range(indptr[u], indptr[u + 1]):
            v = indices[ei]
            if _dag_arc(dist[u], dist[v], weights[ei]):
                pred_indices[pred_indptr[v]] = u
                pred_indptr[v] += 1
    # The fill advanced every offset to the next vertex's start: shift back.
    for v in range(n, 0, -1):
        pred_indptr[v] = pred_indptr[v - 1]
    pred_indptr[0] = 0
    return pred_indptr[n]


_wpreds = _jit(_wpreds_py)


def _wsource_delta_py(
    indptr, indices, weights, source, dist, sig, delta, order, heap_key, heap_cnt, heap_vtx
):
    """Fused weighted per-source pass: exact heap + sweep over the DAG."""
    n_order = _dijkstra_wave(
        indptr, indices, weights, source, dist, order, heap_key, heap_cnt, heap_vtx
    )
    _wsigma(indptr, indices, weights, dist, sig, order, n_order)
    _wdelta(indptr, indices, weights, dist, sig, delta, order, n_order)
    return n_order


_wsource_delta = _jit(_wsource_delta_py)


def _wbatch_delta_py(
    indptr, indices, weights, sources, delta, dist, sig, order, heap_key, heap_cnt, heap_vtx
):
    """Batched ``(K, n)`` weighted twin: one fused pass per row."""
    for k in range(sources.shape[0]):
        _wsource_delta(
            indptr,
            indices,
            weights,
            sources[k],
            dist,
            sig,
            delta[k],
            order,
            heap_key,
            heap_cnt,
            heap_vtx,
        )


_wbatch_delta = _jit(_wbatch_delta_py)


def _wbatch_delta_parallel_py(indptr, indices, weights, sources, delta, n_threads):
    """``prange``-over-threads twin of :func:`_wbatch_delta_py`.

    Same private-scratch striding as :func:`_batch_delta_parallel_py`:
    row independence makes the thread count result-neutral.
    """
    K = sources.shape[0]
    n = indptr.shape[0] - 1
    m = indices.shape[0]
    for t in prange(n_threads):
        dist = np.empty(n)
        sig = np.empty(n)
        order = np.empty(n, np.int64)
        heap_key = np.empty(m + 1)
        heap_cnt = np.empty(m + 1, np.int64)
        heap_vtx = np.empty(m + 1, np.int64)
        for k in range(t, K, n_threads):
            _wsource_delta(
                indptr,
                indices,
                weights,
                sources[k],
                dist,
                sig,
                delta[k],
                order,
                heap_key,
                heap_cnt,
                heap_vtx,
            )


_wbatch_delta_parallel = _jit_parallel(_wbatch_delta_parallel_py)


# ----------------------------------------------------------------------
# Per-process scratch (one set of buffers per snapshot shape)
# ----------------------------------------------------------------------
#: Scratch sets kept alive at once; enough for a handful of graphs without
#: letting a long session accumulate buffers for every snapshot it ever saw.
_SCRATCH_LIMIT = 4

_SCRATCH: dict = {}


def _scratch_for(n: int, m: int, kind: str = "bfs") -> dict:
    key = (kind, n, m)
    arrays = _SCRATCH.pop(key, None)
    if arrays is None:
        if len(_SCRATCH) >= _SCRATCH_LIMIT:
            _SCRATCH.pop(next(iter(_SCRATCH)))
        if kind == "bfs":
            arrays = {
                "dist": np.empty(n),
                "sig": np.empty(n),
                "delta": np.empty(n),
                "order": np.empty(n, dtype=np.int64),
                # A BFS has at most n - 1 levels; +2 gives the kernels one
                # slot of slack for the trailing offset they write per level.
                "level_start": np.empty(n + 2, dtype=np.int64),
                "edge_p": np.empty(m, dtype=np.int64),
                "edge_c": np.empty(m, dtype=np.int64),
                "edge_start": np.empty(n + 2, dtype=np.int64),
            }
        else:  # dijkstra
            arrays = {
                "dist": np.empty(n),
                "sig": np.empty(n),
                "order": np.empty(n, dtype=np.int64),
                # The heap holds at most one entry per push; pushes happen
                # only on strict improvement — at most once per directed
                # edge slot — plus the initial source entry.
                "heap_key": np.empty(m + 1),
                "heap_cnt": np.empty(m + 1, dtype=np.int64),
                "heap_vtx": np.empty(m + 1, dtype=np.int64),
                "pred_indptr": np.empty(n + 1, dtype=np.int64),
                # One predecessor per DAG arc, at most one per edge slot.
                "pred_flat": np.empty(m, dtype=np.int64),
            }
    _SCRATCH[key] = arrays  # re-insert: plain dict preserves LRU order
    return arrays


def _check_source(csr: "CSRGraph", source: int) -> int:
    n = csr.number_of_vertices()
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range for {n} vertices")
    return n


# ----------------------------------------------------------------------
# Public entry points (the dispatch shims in bfs/dependencies/batch call
# these when resolve_kernel picks the compiled rung)
# ----------------------------------------------------------------------
def bfs_spd_compiled(
    csr: "CSRGraph", source: int, *, cutoff: Optional[float] = None
) -> "CSRShortestPathDAG":
    """Compiled twin of :func:`~repro.shortest_paths.bfs.bfs_spd_csr`.

    Returns a regular :class:`~repro.shortest_paths.spd.CSRShortestPathDAG`
    whose ``dist`` / ``sig`` / ``order_indices`` / ``level_edges`` arrays
    are bit-identical (and shape-identical) to the numpy kernel's, so every
    downstream consumer — accumulation, predecessor construction, sampler
    backtracking — behaves exactly as on the CSR rung.
    """
    from repro.shortest_paths.spd import CSRShortestPathDAG

    n = _check_source(csr, source)
    scratch = _scratch_for(n, int(csr.indices.shape[0]))
    bound = np.inf if cutoff is None else float(cutoff)
    n_order, n_levels = _bfs_wave(
        csr.indptr,
        csr.indices,
        source,
        bound,
        scratch["dist"],
        scratch["sig"],
        scratch["order"],
        scratch["level_start"],
        scratch["edge_p"],
        scratch["edge_c"],
        scratch["edge_start"],
    )
    edge_start = scratch["edge_start"]
    level_edges: List[Tuple] = [
        (
            scratch["edge_p"][edge_start[lev] : edge_start[lev + 1]].copy(),
            scratch["edge_c"][edge_start[lev] : edge_start[lev + 1]].copy(),
        )
        for lev in range(n_levels)
    ]
    return CSRShortestPathDAG(
        csr,
        source,
        scratch["dist"].copy(),
        scratch["sig"].copy(),
        scratch["order"][:n_order].copy(),
        level_edges=level_edges,
    )


def dijkstra_spd_compiled(csr: "CSRGraph", source: int) -> "CSRShortestPathDAG":
    """Compiled twin of :func:`~repro.shortest_paths.dijkstra.dijkstra_spd_csr`.

    Runs the exact flat-array heap, counts paths over the DAG and lists
    each vertex's predecessors in settle order, so ``dist`` / ``sig`` /
    ``order_indices`` / ``pred_indptr`` / ``pred_indices`` are all
    bit-identical — downstream accumulation, rng-driven path backtracking
    and group sweeps behave exactly as on the CSR rung.
    """
    from repro.shortest_paths.dijkstra import validate_positive_weights
    from repro.shortest_paths.spd import CSRShortestPathDAG

    n = _check_source(csr, source)
    validate_positive_weights(csr)
    scratch = _scratch_for(n, int(csr.indices.shape[0]), "dijkstra")
    indptr, indices, weights = csr.indptr, csr.indices, csr.weights
    dist, sig, order = scratch["dist"], scratch["sig"], scratch["order"]
    n_order = _dijkstra_wave(
        indptr,
        indices,
        weights,
        source,
        dist,
        order,
        scratch["heap_key"],
        scratch["heap_cnt"],
        scratch["heap_vtx"],
    )
    _wsigma(indptr, indices, weights, dist, sig, order, n_order)
    total = _wpreds(
        indptr, indices, weights, dist, order, n_order, scratch["pred_indptr"], scratch["pred_flat"]
    )
    return CSRShortestPathDAG(
        csr,
        source,
        dist.copy(),
        sig.copy(),
        order[:n_order].copy(),
        level_edges=None,
        pred_indptr=scratch["pred_indptr"].copy(),
        pred_indices=scratch["pred_flat"][: int(total)].copy(),
    )


def accumulate_dependencies_compiled(spd: "CSRShortestPathDAG"):
    """Compiled twin of the sweep loops of ``accumulate_dependencies_csr``.

    BFS-built DAGs (``level_edges`` recorded) flatten the per-level edge
    arrays once and replay the bincount accumulation bit for bit;
    Dijkstra-built DAGs run the reverse-settle-order sweep over the DAG
    children of their snapshot (:func:`_wdelta_py`).  Prefer :func:`source_dependencies_compiled` when
    the DAG itself is not needed — the fused kernels skip the DAG
    materialisation entirely.
    """
    if spd.level_edges is None:
        csr = spd.csr
        delta = np.empty(csr.number_of_vertices())
        order = spd.order_indices
        _wdelta(
            csr.indptr,
            csr.indices,
            csr.weights,
            spd.dist,
            spd.sig,
            delta,
            order,
            int(order.shape[0]),
        )
        return delta
    n = spd.csr.number_of_vertices()
    n_levels = len(spd.level_edges)
    edge_start = np.zeros(n_levels + 1, dtype=np.int64)
    for lev, (parents, _) in enumerate(spd.level_edges):
        edge_start[lev + 1] = edge_start[lev] + parents.shape[0]
    if n_levels:
        edge_p = np.concatenate([p for p, _ in spd.level_edges])
        edge_c = np.concatenate([c for _, c in spd.level_edges])
    else:
        edge_p = np.empty(0, dtype=np.int64)
        edge_c = np.empty(0, dtype=np.int64)
    delta = np.empty(n)
    _accumulate(spd.sig, delta, edge_p, edge_c, edge_start, n_levels, spd.source_index)
    return delta


def source_dependencies_compiled(csr: "CSRGraph", source: int):
    """Fused compiled per-source pass: the dependency array of *source*.

    The compiled twin of
    :func:`~repro.shortest_paths.dependencies.csr_source_dependencies` —
    one kernel call, no Python-level DAG.  Weighted snapshots take the
    fused Dijkstra kernel, unweighted ones the fused BFS kernel.
    """
    n = _check_source(csr, source)
    delta = np.empty(n)
    if csr.weighted:
        from repro.shortest_paths.dijkstra import validate_positive_weights

        validate_positive_weights(csr)
        scratch = _scratch_for(n, int(csr.indices.shape[0]), "dijkstra")
        _wsource_delta(
            csr.indptr,
            csr.indices,
            csr.weights,
            source,
            scratch["dist"],
            scratch["sig"],
            delta,
            scratch["order"],
            scratch["heap_key"],
            scratch["heap_cnt"],
            scratch["heap_vtx"],
        )
        return delta
    scratch = _scratch_for(n, int(csr.indices.shape[0]))
    _source_delta(
        csr.indptr,
        csr.indices,
        source,
        scratch["dist"],
        scratch["sig"],
        delta,
        scratch["order"],
        scratch["level_start"],
        scratch["edge_p"],
        scratch["edge_c"],
        scratch["edge_start"],
    )
    return delta


def batch_dependencies_compiled(
    csr: "CSRGraph", sources: Sequence[int], out=None, threads: int = 1
):
    """Batched ``(K, n)`` compiled twin of ``batch_source_dependencies``.

    Validation, result shape and the *out* contract (sequential per-row
    accumulation in source order) mirror the numpy batch kernels; each row
    is the fused per-source kernel's output, so the matrix is bit-identical
    to the wave kernels row for row — weighted snapshots included (fused
    Dijkstra rows).  ``threads > 1`` runs the ``prange`` variant: threads
    stride the rows with private scratch, so the count is result-neutral
    (see :func:`_batch_delta_parallel_py`); the *out* accumulation always
    happens afterwards in source order.
    """
    from repro.shortest_paths.batch import _validate_sources

    n = csr.number_of_vertices()
    src = _validate_sources(csr, sources)
    m = int(csr.indices.shape[0])
    delta = np.empty((int(src.size), n))
    threads = engage_threads(threads)
    if csr.weighted:
        from repro.shortest_paths.dijkstra import validate_positive_weights

        validate_positive_weights(csr)
        if threads > 1:
            _wbatch_delta_parallel(csr.indptr, csr.indices, csr.weights, src, delta, threads)
        else:
            scratch = _scratch_for(n, m, "dijkstra")
            _wbatch_delta(
                csr.indptr,
                csr.indices,
                csr.weights,
                src,
                delta,
                scratch["dist"],
                scratch["sig"],
                scratch["order"],
                scratch["heap_key"],
                scratch["heap_cnt"],
                scratch["heap_vtx"],
            )
    elif threads > 1:
        _batch_delta_parallel(csr.indptr, csr.indices, src, delta, threads)
    else:
        scratch = _scratch_for(n, m)
        _batch_delta(
            csr.indptr,
            csr.indices,
            src,
            delta,
            scratch["dist"],
            scratch["sig"],
            scratch["order"],
            scratch["level_start"],
            scratch["edge_p"],
            scratch["edge_c"],
            scratch["edge_start"],
        )
    if out is not None:
        for row in delta:
            out += row
    return delta


# ----------------------------------------------------------------------
# JIT warm-up (pool initializers call this so compile cost is paid once
# per worker process, not once per shard)
# ----------------------------------------------------------------------
_WARMED = False


def warm_up() -> bool:
    """Compile (or load from the on-disk cache) every kernel on a tiny graph.

    Returns ``True`` when the compiled kernels are ready, ``False`` when
    numba is unavailable.  Idempotent and cheap after the first
    call; with ``NUMBA_CACHE_DIR`` shared across processes the per-process
    cost drops to a cache load.
    """
    global _WARMED
    if not NUMBA_AVAILABLE:
        return False
    if _WARMED:
        return True
    # A 3-vertex path exercises every branch worth compiling: a fresh
    # child, a second level and a non-trivial back-propagation.
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)
    weights = np.array([0.5, 0.5, 2.0, 2.0])
    n, m = 3, 4
    dist = np.empty(n)
    sig = np.empty(n)
    delta = np.empty((1, n))
    order = np.empty(n, dtype=np.int64)
    level_start = np.empty(n + 2, dtype=np.int64)
    edge_p = np.empty(m, dtype=np.int64)
    edge_c = np.empty(m, dtype=np.int64)
    edge_start = np.empty(n + 2, dtype=np.int64)
    _bfs_wave(indptr, indices, 0, np.inf, dist, sig, order, level_start, edge_p, edge_c, edge_start)
    src = np.zeros(1, dtype=np.int64)
    _batch_delta(
        indptr, indices, src, delta, dist, sig, order, level_start, edge_p, edge_c, edge_start
    )
    _batch_delta_parallel(indptr, indices, src, delta, 1)
    # Weighted twins: the same path with non-unit weights compiles the
    # exact heap, both sweeps, the predecessor fill and the batch kernels.
    heap_key = np.empty(m + 1)
    heap_cnt = np.empty(m + 1, dtype=np.int64)
    heap_vtx = np.empty(m + 1, dtype=np.int64)
    pred_indptr = np.empty(n + 1, dtype=np.int64)
    pred_flat = np.empty(m, dtype=np.int64)
    n_order = _dijkstra_wave(indptr, indices, weights, 0, dist, order, heap_key, heap_cnt, heap_vtx)
    _wsigma(indptr, indices, weights, dist, sig, order, n_order)
    _wdelta(indptr, indices, weights, dist, sig, delta[0], order, n_order)
    _wpreds(indptr, indices, weights, dist, order, n_order, pred_indptr, pred_flat)
    _wbatch_delta(
        indptr, indices, weights, src, delta, dist, sig, order, heap_key, heap_cnt, heap_vtx
    )
    _wbatch_delta_parallel(indptr, indices, weights, src, delta, 1)
    _WARMED = True
    return True


def maybe_warm_up() -> None:
    """Warm the JIT exactly when a worker will actually run the compiled rung.

    Called from the pool initializers of :mod:`repro.execution.scheduler`
    and :mod:`repro.execution.runtime`; never raises (a warm-up failure
    must not kill a worker — the first kernel call would just pay the
    compile itself).
    """
    if not NUMBA_AVAILABLE:
        return
    try:
        from repro.graphs.csr import resolve_kernel

        if resolve_kernel("auto") == "compiled":
            warm_up()
    except Exception:  # pragma: no cover - defensive: never break a worker
        pass
