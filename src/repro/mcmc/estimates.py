"""Dependency-score evaluation with caching for the Metropolis-Hastings samplers.

Every Metropolis-Hastings acceptance test (Equations 6 and 17 of the paper)
needs dependency scores :math:`\\delta_{v\\bullet}(r)`.  One evaluation costs a
full Brandes pass from *v* — ``O(|E|)`` for unweighted graphs — but that pass
produces the dependency of *v* on **every** vertex at once.  The cache in
this module therefore stores whole dependency vectors keyed by the source
vertex, which makes

* revisits of a chain state free (the chain stays put on rejection), and
* the joint-space sampler able to evaluate :math:`\\delta_{v\\bullet}(r_i)`
  for every ``r_i ∈ R`` from a single pass.

The passes run on the CSR kernels of :mod:`repro.shortest_paths`, and the
cache is a row store (:class:`~repro.execution.shared_cache.DependencyStore`):
a matrix of vectors behind a slot table indexed by CSR vertex index.  A
chain reads its scores in bulk (:meth:`DependencyOracle.dependency_rows`),
by CSR index (:meth:`DependencyOracle.source_indices` maps the positions
the samplers draw in ``graph.vertices()``): one slot gather plus one fancy
index.  An independence chain draws every candidate up front (Equations 6
and 17), so its whole miss set, start state included, goes to the batched
kernels in one call; they choose the block widths
(:func:`repro.shortest_paths.batch.source_blocks`) and stream the rows
straight into the store.  A bounded cache takes the set in
runs it can hold whole.

With a cross-process arena attached (a warm session's, or a pooled
multi-chain run's) the arena *is* the cache: the oracle
reads its rows in place, under the arena's lock, and publishes every row
it computes there, so each warm row is held once however many oracles
read it.  Only rows a full arena refuses go to a private store, reserved
on the first refusal.  The miss set then goes one kernel block at a time,
each after re-reading the arena.

Before any pass runs, a bulk read screens its miss set on unweighted,
undirected snapshots: δ_{s·}(c) = 0 exactly when *c* has no child in the
shortest-path DAG rooted at *s*, which distance passes from each target
column *c* and its neighbours decide for every *s* at once
(:func:`repro.shortest_paths.screen.zero_dependency_sources`).  A source
zero at every column reads 0.0 — the bits its row would hold — costs no
pass and stores no row; :attr:`DependencyOracle.screened` counts it.  The
screen runs only where it is cheap: its
:func:`~repro.shortest_paths.screen.screen_sources` passes times
:data:`_SCREEN_MISSES_PER_SOURCE` must not exceed the misses it could
save, which keeps low-degree targets read by long chains and leaves hubs,
short reads and reads the cache answers alone.  A caching oracle keeps
each column's zero mask until the snapshot changes, so a repeat read of a
screened target answers its zero sources again without any pass, the
screen's included.  Weighted and directed snapshots compute every row.

Caching is an implementation choice, not part of the algorithm; benchmark E8
ablates it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.execution.shared_cache import DependencyStore, row_budget
from repro.graphs.core import Graph, Vertex
from repro.shortest_paths.batch import batch_source_dependencies, source_blocks
from repro.shortest_paths.screen import screen_sources, zero_dependency_sources

if TYPE_CHECKING:  # pragma: no cover
    from repro.execution.shared_cache import SharedDependencyStore

__all__ = ["DependencyOracle"]

#: Misses a bulk read must have per distance pass of the zero-dependency
#: screen before the screen runs.  One screen pass costs about 1.3 batched
#: Brandes rows (0.44 ms for the 5 passes of a degree-4 target against
#: 0.065 ms per row on BA(800, 3), 2-vCPU VM), so a screen that finds
#: nothing costs at most 1/24 of the passes it could have saved.
_SCREEN_MISSES_PER_SOURCE = 32


class DependencyOracle:
    """Evaluate (and optionally cache) dependency vectors of source vertices.

    Parameters
    ----------
    graph:
        The graph all evaluations refer to.  The oracle snapshots the graph
        through :meth:`Graph.csr` and assumes the graph is not mutated while
        the oracle is alive (:meth:`apply_delta` re-binds it after one).
    cache_size:
        Maximum number of source vertices whose dependency vectors the
        private store keeps (LRU eviction).  ``0`` disables caching
        entirely; ``None`` means unbounded.  Past
        :func:`~repro.execution.shared_cache.row_budget` rows, or where
        reserving them fails (then halved until it works), the store's
        capacity is the bound.  The store is reserved on first use.
    shared_store:
        Optional cross-process
        :class:`~repro.execution.shared_cache.SharedDependencyStore`.  When
        attached, the oracle reads its rows in place — a run of hits is one
        slot gather plus one fancy index under the arena's lock, and no row
        is copied out to be kept — and publishes every vector it computes
        there, so one Brandes pass serves every chain of a multi-chain run
        or query of a warm session, whatever process it lives in.  Only
        rows the arena refuses (it is full) go to the private store.
        Sharing is result-neutral by construction — a published row is
        bit-identical to what the reader would have computed — so only the
        pass counters (never a chain) depend on it.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        cache_size: Optional[int] = None,
        shared_store: Optional["SharedDependencyStore"] = None,
    ) -> None:
        self._graph = graph
        self._csr = graph.csr()
        if shared_store is not None:
            if shared_store.num_vertices != self._csr.number_of_vertices():
                raise ConfigurationError(
                    f"shared store is sized for {shared_store.num_vertices} "
                    f"vertices but the graph has {self._csr.number_of_vertices()}"
                )
        self._shared = shared_store
        self._cache_size = cache_size
        #: The private store (see :meth:`_private`): the cache without an
        #: arena, the overflow of a full one with it.
        self._rows: Optional[DependencyStore] = None
        self.evaluations = 0  #: number of Brandes passes actually performed
        self.lookups = 0  #: number of dependency queries answered
        #: Brandes passes performed by :meth:`prefetch` (a subset of
        #: :attr:`evaluations`) — prefetched passes answer no lookup at the
        #: time they run, so :meth:`hit_rate` must not bill them as misses.
        self.prefetch_evaluations = 0
        #: Sources served from the cross-process shared store, prefetch
        #: skips included (0 without one).
        self.shared_hits = 0
        #: Distinct missing sources the zero-dependency screen answered
        #: (:meth:`dependency_rows`): no pass, no stored row.  Together
        #: with the passes they account for every miss of a bulk read.
        self.screened = 0
        #: The screen's zero mask of each target column it has run for
        #: (one ``bool`` per vertex), kept with the cache so a repeat read
        #: runs no screen pass; dropped when the snapshot changes.
        self._zero: Dict[int, np.ndarray] = {}

    def _private(self) -> Optional[DependencyStore]:
        """Return the private store, reserving it on first use (``None`` with caching off)."""
        n = self._csr.number_of_vertices()
        if self._rows is not None or not self.cache_enabled or n == 0:
            return self._rows
        capacity = min(self._cache_size or n, n, row_budget(n))
        while True:
            try:
                self._rows = DependencyStore(n, capacity)
                return self._rows
            except MemoryError:
                if capacity == 1:
                    raise
                capacity //= 2

    # ------------------------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The graph the oracle evaluates on."""
        return self._graph

    @property
    def cache_enabled(self) -> bool:
        """Whether dependency vectors are being cached."""
        return self._cache_size is None or self._cache_size > 0

    @property
    def shared_store(self) -> Optional["SharedDependencyStore"]:
        """The attached cross-process store, or ``None``."""
        return self._shared

    def cached_count(self) -> int:
        """Return the number of dependency vectors in the private store.

        With an arena attached these are only the rows the arena refused;
        the rows it holds are read in place and counted there.
        """
        return 0 if self._rows is None else self._rows.published()

    def cached_sources(self) -> list:
        """Return the source vertices whose vectors the private store holds."""
        vertices = self._csr.vertices
        return [] if self._rows is None else [vertices[i] for i in self._rows.sources().tolist()]

    def hit_rate(self) -> float:
        """Return the fraction of lookups answered without a Brandes pass.

        Only *lookup-serving* passes count as misses: the
        :attr:`prefetch_evaluations` ran before any query existed.  Clamped
        to ``[0, 1]`` whatever the counter interleaving.
        """
        if self.lookups == 0:
            return 0.0
        misses = self.evaluations - self.prefetch_evaluations
        return min(max(1.0 - misses / self.lookups, 0.0), 1.0)

    # ------------------------------------------------------------------
    def prefetch(self, sources) -> int:
        """Batch-compute and cache the dependency vectors of *sources*.

        :meth:`dependency_rows` hands a chain's uncached sources over here.
        Every pass, prefetched or a one-row point-query miss, runs through
        :func:`~repro.shortest_paths.batch.batch_source_dependencies`, so a
        vector is bit-identical however it was computed; the kernels stream
        their blocks straight into the store.  With a shared store attached
        each kernel block (:func:`~repro.shortest_paths.batch.source_blocks`)
        first re-reads it, skipping (and counting in :attr:`shared_hits`)
        the sources it holds, and every computed vector is published to it.
        Cached and duplicate sources are skipped; a disabled cache makes
        this a no-op.  Without an arena, a bounded cache of capacity ``C``
        fills its free slots, else claims at most ``C // 2``, so the most
        recently used vector (the chain's current state among them)
        survives every call.  Returns the number of passes (counted in both
        :attr:`evaluations` and :attr:`prefetch_evaluations`).
        """
        if not self.cache_enabled:
            return 0
        index_of = self._csr.index_of
        wanted = np.fromiter(dict.fromkeys(index_of(s) for s in sources), dtype=np.intp)
        if self._shared is not None:
            private = self._rows
            missing = wanted if private is None else wanted[private.slots[wanted] < 0]
            blocks = source_blocks(self._csr, len(missing))
        else:
            store = self._private()
            if store is None:
                return 0
            missing = wanted[store.slots[wanted] < 0]
            capacity = store.capacity
            if capacity < store.num_vertices:
                cached = store.published()
                missing = missing[: max(capacity - cached, capacity // 2 if cached else 0)]
            blocks = [(0, len(missing))]
        computed = 0
        for begin, end in blocks:
            pending = self._unpublished(missing[begin:end])
            if not len(pending):
                continue

            def keep(at, rows):
                self._keep(pending[at : at + len(rows)], rows)

            batch_source_dependencies(self._csr, pending, sink=keep)
            computed += len(pending)
        self.evaluations += computed
        self.prefetch_evaluations += computed
        return computed

    def _unpublished(self, indices: np.ndarray) -> np.ndarray:
        """Return the sources of *indices* the shared store lacks, counting the rest as hits."""
        shared = self._shared
        if shared is None:
            return indices
        with shared.lock:
            pending = indices[shared.slots[indices] < 0]
        self.shared_hits += len(indices) - len(pending)
        return pending

    def _keep(self, indices, rows) -> None:
        """Publish freshly computed rows to the shared store; keep what it refuses privately."""
        indices = np.asarray(indices, dtype=np.intp)
        shared = self._shared
        if shared is not None:
            if shared.put_rows(indices, rows) == len(indices):
                return
            with shared.lock:
                refused = shared.slots[indices] < 0
            indices, rows = indices[refused], rows[refused]
        store = self._private()
        if store is not None:
            store.put_rows(indices, rows)

    def _vector(self, index: int):
        """Return the dependency array of CSR source *index*: one lookup.

        Private store first (lock-free), then the shared store (a locked
        one-row copy, counted in :attr:`shared_hits` and not kept), then a
        kernel pass, whose vector is published to the shared store.
        """
        self.lookups += 1
        store = self._rows
        if store is not None:
            slot = store.slots[index]
            if slot >= 0:
                store.touch([slot])
                return store.rows[slot]
        if self._shared is not None:
            row = self._shared.get(index)
            if row is not None:
                self.shared_hits += 1
                return row
        self.evaluations += 1
        # A one-row set, so a recomputed vector is bit-identical to its
        # prefetched twin (batch rows are composition-independent).
        rows = batch_source_dependencies(self._csr, [index])
        self._keep([index], rows)
        return rows[0]

    def dependency_vector(self, source: Vertex) -> Dict[Vertex, float]:
        """Return ``{target: delta_{source.}(target)}`` for every target (a boundary view)."""
        return self._csr.array_to_vertex_map(self._vector(self._csr.index_of(source)))

    def dependency(self, source: Vertex, target: Vertex) -> float:
        """Return :math:`\\delta_{source\\bullet}(target)`.

        0 when ``source == target`` and when *target* is not a vertex of
        the graph at all.
        """
        if source == target:
            return 0.0
        vector = self._vector(self._csr.index_of(source))
        index = self._csr.find_index(target)
        return 0.0 if index is None else float(vector[index])

    def dependencies_for(self, source: Vertex, targets) -> Dict[Vertex, float]:
        """Return ``{t: delta_{source.}(t)}`` for *targets* (unknown ones read 0.0)."""
        targets = list(targets)
        row = self.dependency_rows([self._csr.index_of(source)], targets)[0]
        return dict(zip(targets, row.tolist()))

    def source_indices(self, graph: Graph, positions: np.ndarray) -> np.ndarray:
        """Map *positions* in ``graph.vertices()`` to CSR indices of this oracle's snapshot.

        The positions themselves when the oracle snapshots *graph* as it is
        now; a stale oracle, or one built on another graph, resolves each
        vertex by label.
        """
        csr = self._csr
        if csr is graph.csr() or csr.vertices == graph.csr().vertices:
            return positions
        vertices = graph.vertices()
        return np.array([csr.index_of(vertices[i]) for i in positions.tolist()], dtype=np.intp)

    def dependency_rows(
        self,
        sources: Sequence[int],
        targets: Sequence[Vertex],
        *,
        prefetch: bool = False,
        skip_self_lookups: bool = False,
    ) -> np.ndarray:
        """Return the ``(len(sources), len(targets))`` array of δ_{s·}(t).

        The chains' bulk read.  *sources* are CSR indices of the oracle's
        snapshot (:meth:`source_indices`); each takes one lookup, in order,
        with :meth:`dependencies_for` semantics (a target equal to the
        source, or not in the graph, reads 0.0).  ``skip_self_lookups``
        gives a single target :meth:`dependency` semantics: a source equal
        to it reads 0.0 without a lookup.

        Misses the zero-dependency screen answers (:meth:`_screen`) read
        0.0 without a pass.  Cached rows are read in runs of hits, one slot
        gather and one fancy index each (:meth:`_read_hits`); any other miss
        takes the full lookup.  With
        *prefetch* the misses are computed first by :meth:`prefetch`:
        unbounded, the whole deduplicated miss set in one call; bounded, in
        runs the cache holds whole (:meth:`_prefetch_run`), so no
        prefetched row is evicted before its run reads it.
        """
        if skip_self_lookups and len(targets) != 1:
            raise ConfigurationError("skip_self_lookups needs exactly one target")
        columns = [self._csr.find_index(t) for t in targets]
        known = [j for j, c in enumerate(columns) if c is not None]
        cols = np.array([columns[j] for j in known], dtype=np.intp)
        index = np.asarray(sources, dtype=np.intp)
        # Every source is looked up (no index is -1) but the skipped target.
        looked = index != (cols[0] if skip_self_lookups and len(cols) else -1)
        src = index[looked]
        screened = self._screen(src, cols)
        if screened is None:
            values = self._lookup(src, cols, prefetch)
        else:
            # A screened entry is the +0.0 its row holds, so a lookup
            # without a pass.
            values = np.zeros((len(src), len(cols)))
            rest = ~screened
            values[rest] = self._lookup(src[rest], cols, prefetch)
            self.lookups += len(src) - int(np.count_nonzero(rest))
        # A target equal to its source reads 0.0.
        values[src[:, None] == cols] = 0.0
        if len(src) == len(index) and len(cols) == len(targets):
            return values
        rows = np.zeros((len(index), len(targets)))
        rows[np.ix_(np.flatnonzero(looked), known)] = values
        return rows

    def _screen(self, src: np.ndarray, cols: np.ndarray) -> Optional[np.ndarray]:
        """Return the mask of *src* positions whose source the screen proves zero at *cols*.

        Only missing sources are screened (a stored row is read as it is),
        and only on an unweighted, undirected snapshot.  A column's zero
        mask is computed once and kept until the snapshot changes; the
        passes of the columns not yet kept, times
        :data:`_SCREEN_MISSES_PER_SOURCE`, must not outnumber the distinct
        misses.  ``None`` where nothing is screened.
        """
        csr = self._csr
        if csr.weighted or csr.directed or not len(cols) or not len(src):
            return None
        fresh = [c for c in dict.fromkeys(cols.tolist()) if c not in self._zero]
        # No read shorter than the gate can pay for a single pass.
        if fresh and len(src) < _SCREEN_MISSES_PER_SOURCE:
            return None
        cost = _SCREEN_MISSES_PER_SOURCE * screen_sources(csr, fresh)
        misses = src
        for store in (self._shared, self._rows):
            if store is not None and cost <= len(misses):
                with store.lock:
                    misses = misses[store.slots[misses] < 0]
        # Repeated sources count until this cheap test passes, so a warm
        # read leaves before the distinct misses are marked.
        if not len(misses) or cost > len(misses):
            return None
        missing = np.zeros(csr.number_of_vertices(), dtype=bool)
        missing[misses] = True
        if cost > np.count_nonzero(missing):
            return None
        zero = {c: zero_dependency_sources(csr, [c]) for c in fresh}
        if self.cache_enabled:
            self._zero.update(zero)
        for c in cols.tolist():
            missing &= zero[c] if c in zero else self._zero[c]
        screened = int(np.count_nonzero(missing))
        self.screened += screened
        return missing[src] if screened else None

    def _lookup(self, src: np.ndarray, cols: np.ndarray, prefetch: bool) -> np.ndarray:
        """Look up every source of *src* in order; return their *cols* entries."""
        values = np.empty((len(src), len(cols)))
        begin = 0
        while begin < len(src):
            end = self._prefetch_run(src, begin) if prefetch and self.cache_enabled else len(src)
            while begin < end:
                stop = self._read_hits(src, begin, end, cols, values)
                if stop == begin:
                    values[begin] = self._vector(int(src[begin]))[cols]
                    stop += 1
                begin = stop
        return values

    def _read_hits(self, src, begin: int, end: int, cols, values) -> int:
        """Read ``src[begin:end]`` up to its first miss; return where the reads stopped.

        The shared store first, then the private one: a run of hits in
        either is one slot gather plus one fancy index, in place.  The
        shared store's lock is held for that gather only, so a concurrent
        compaction never moves a row under it.
        """
        for store in (self._shared, self._rows):
            if store is None:
                continue
            with store.lock:
                slots = store.slots[src[begin:end]]
                misses = np.flatnonzero(slots < 0)
                if len(misses):
                    slots = slots[: misses[0]]
                values[begin : begin + len(slots)] = store.rows[slots[:, None], cols]
            if len(slots):
                store.touch(slots)
                self.lookups += len(slots)
                if store is self._shared:
                    self.shared_hits += len(slots)
                return begin + len(slots)
        return begin

    def _prefetch_run(self, src: np.ndarray, begin: int) -> int:
        """Prefetch the run of *src* from *begin* and return where it ends.

        With a shared store, or an unbounded private one, the run is every
        remaining source.  Bounded, it ends before its distinct sources
        outnumber the capacity or its misses the allowance (free slots,
        else half the capacity, at least one), and its cached sources are
        touched first, so storing its misses evicts only vectors it does
        not read.
        """
        store = self._shared if self._shared is not None else self._private()
        slots = store.slots
        vertices = self._csr.vertices
        capacity = store.capacity
        if store is self._shared or capacity == store.num_vertices:
            rest = src[begin:]
            with store.lock:
                missing = rest[slots[rest] < 0]
            if len(missing):
                self.prefetch([vertices[i] for i in missing.tolist()])
            return len(src)
        cached = store.published()
        allowance = max(capacity - cached, capacity // 2 if cached else 0, 1)
        run: Dict[int, None] = {}
        misses = 0
        end = begin
        for s in src[begin:].tolist():
            if s not in run:
                miss = int(slots[s] < 0)
                if len(run) == capacity or misses + miss > allowance:
                    break
                run[s] = None
                misses += miss
            end += 1
        run_index = np.fromiter(run, dtype=np.intp, count=len(run))
        run_slots = slots[run_index]
        store.touch(run_slots[run_slots >= 0])
        self.prefetch([vertices[i] for i in run])
        return end

    # ------------------------------------------------------------------
    def apply_delta(self, affected_mask) -> tuple:
        """Re-bind to the mutated graph, evicting only affected cached vectors.

        *affected_mask* is the per-CSR-index mask that
        :meth:`repro.execution.runtime.ExecutionContext.refresh` proved for
        the same journal window.  Unaffected vectors are bit-identical on
        the mutated graph (the over-approximation contract of
        :mod:`repro.incremental`), so keeping them never changes a result;
        affected ones are tombstoned and the store compacted at once.  The
        caller guarantees the vertex set is unchanged (vertex ops take the
        full path upstream); should it change anyway, every vector is
        dropped.  Returns the private store's ``(evicted, retained)``; the
        shared store's rows are its owner's to evict
        (:meth:`repro.execution.runtime.ExecutionContext.refresh` does it
        under the store's lock).  Counters survive.
        """
        new_csr = self._graph.csr()
        if self._shared is not None and self._shared.num_vertices != new_csr.number_of_vertices():
            raise ConfigurationError(
                "apply_delta across a vertex-count change; the caller must "
                "rebuild the oracle instead"
            )
        old_vertices = self._csr.vertices
        self._csr = new_csr
        self._zero.clear()
        store = self._rows
        if store is None:
            return 0, 0
        if tuple(new_csr.vertices) != tuple(old_vertices):
            evicted = store.published()
            self._rows = None
            return evicted, 0
        evicted = store.invalidate_sources(np.flatnonzero(affected_mask))
        store.compact()
        return evicted, store.published()

    def clear(self) -> None:
        """Drop every *private* cached vector and reset the counters.

        The shared store is left alone: its rows belong to the whole run,
        and the driver that created it owns its lifecycle.
        """
        if self._rows is not None:
            self._rows.clear()
        self._zero.clear()
        self.evaluations = self.lookups = self.prefetch_evaluations = 0
        self.shared_hits = self.screened = 0
