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

The Brandes pass runs on the vectorised CSR kernels of
:mod:`repro.shortest_paths` and the cached vector is a dense ``float64``
array indexed by CSR vertex index; point queries read one array element and
the dict view is materialised only when a caller explicitly asks for a
vertex-keyed vector.

With an independence proposal a chain draws every candidate before its
first step (Equations 6 and 17), so the oracle knows the chain's whole
miss set up front: :meth:`DependencyOracle.dependency_rows` hands it,
start state included, to the batched kernels in one call, and the kernels
choose the block widths (:func:`repro.shortest_paths.batch.source_blocks`)
and stream the rows block by block into the cache.  A bounded cache takes
the set in runs it can hold whole; with a shared store attached the set
goes one kernel block at a time, each after re-reading the store.

Caching is an implementation choice, not part of the algorithm; benchmark E8
ablates it.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.graphs.core import Graph, Vertex
from repro.shortest_paths.batch import batch_source_dependencies, source_blocks

if TYPE_CHECKING:  # pragma: no cover
    from repro.execution.shared_cache import SharedDependencyStore

__all__ = ["DependencyOracle"]


class DependencyOracle:
    """Evaluate (and optionally cache) dependency vectors of source vertices.

    Parameters
    ----------
    graph:
        The graph all evaluations refer to.  The oracle snapshots the graph
        through :meth:`Graph.csr` and assumes the graph is not mutated while
        the oracle is alive (:meth:`apply_delta` re-binds it after one).
    cache_size:
        Maximum number of source vertices whose dependency vectors are kept
        (LRU eviction).  ``0`` disables caching entirely; ``None`` means
        unbounded.
    shared_store:
        Optional cross-process
        :class:`~repro.execution.shared_cache.SharedDependencyStore`.  When
        attached, the oracle consults it between the private cache and the
        kernels — a vector another worker already published is copied out
        instead of recomputed — and publishes every vector it computes
        itself, so one Brandes pass serves every chain of a multi-chain run
        whatever process it lives in.  Sharing is
        result-neutral by construction — a published row is bit-identical
        to what the reader would have computed — so only the pass counters
        (never a chain) depend on it.
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
        self._cache: "OrderedDict[Vertex, object]" = OrderedDict()
        self._cache_size = cache_size
        self.evaluations = 0  #: number of Brandes passes actually performed
        self.lookups = 0  #: number of dependency queries answered
        #: Brandes passes performed by :meth:`prefetch` (a subset of
        #: :attr:`evaluations`) — prefetched passes answer no lookup at the
        #: time they run, so :meth:`hit_rate` must not bill them as misses.
        self.prefetch_evaluations = 0
        #: Vectors served from the cross-process shared store (0 without one).
        self.shared_hits = 0

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

    def hit_rate(self) -> float:
        """Return the fraction of lookups answered without a Brandes pass.

        Only *lookup-serving* passes count as misses:
        :attr:`prefetch_evaluations` are passes run speculatively before any
        query existed, so subtracting them keeps the rate honest (an earlier
        revision divided the raw :attr:`evaluations` — which include
        prefetched passes — by :attr:`lookups` and returned negative rates
        after a prefetch-then-hit sequence).  Clamped to ``[0, 1]`` so no
        counter interleaving can push it outside the unit interval.
        """
        if self.lookups == 0:
            return 0.0
        misses = self.evaluations - self.prefetch_evaluations
        return min(max(1.0 - misses / self.lookups, 0.0), 1.0)

    # ------------------------------------------------------------------
    def prefetch(self, sources) -> int:
        """Batch-compute and cache the dependency vectors of *sources*.

        The entry point of the Metropolis-Hastings prefetch path: samplers
        with an independence proposal know a whole chain's proposal
        sources before its first step, and :meth:`dependency_rows` hands
        them over here in one call.  Every pass — prefetched sets and
        point-query misses (a one-row set) alike — runs through
        :func:`~repro.shortest_paths.batch.batch_source_dependencies`,
        which chooses its own block widths and computes every row
        independently, so a vector is bit-identical whether it was
        prefetched or recomputed after eviction.  The kernels stream the
        set block by block: each block's rows are copied into the cache
        and the block freed, so no set-sized matrix is ever built.  With a
        shared store attached the set goes to the kernels one block
        (:func:`~repro.shortest_paths.batch.source_blocks`) at a time, each
        after re-reading the store, so rows other workers publish while
        the set runs are copied in instead of recomputed.
        Already-cached (and duplicate) sources are skipped; a disabled
        cache makes this a no-op because there is nowhere to keep the
        vectors.  A bounded cache fills its **free slots** first and
        beyond them claims at most **half the capacity**, so a prefetch
        evicts nothing but the LRU half: the MRU entry provably survives
        every call (``max(free, C // 2) <= C - 1`` whenever anything is
        cached), and with it the recently-touched vectors — in particular
        the one of the state the chain currently sits on.  The
        half-capacity floor is what keeps the *batched* kernels running on
        a full cache.  Every freshly computed vector is published to the
        shared store, if one is attached.  Returns the
        number of passes performed (each counted in both
        :attr:`evaluations` and :attr:`prefetch_evaluations`).
        """
        if not self.cache_enabled:
            return 0
        missing = [s for s in dict.fromkeys(sources) if s not in self._cache]
        if self._cache_size is not None:
            free = self._cache_size - len(self._cache)
            allowance = max(free, 0 if not self._cache else self._cache_size // 2)
            missing = missing[:allowance]
        if not missing:
            return 0
        index_of = self._csr.index_of
        # With a shared store attached, each kernel block re-reads it first:
        # a row another worker published while this set ran is copied in,
        # not recomputed.
        blocks = [(0, len(missing))]
        if self._shared is not None:
            blocks = source_blocks(self._csr, len(missing))
        computed = 0
        for begin, end in blocks:
            pending = self._copy_shared(missing[begin:end])
            if not pending:
                continue

            def store(offset, rows):
                for s, row in zip(pending[offset : offset + len(rows)], rows):
                    # Copy the row so the block matrix can be freed.
                    self._publish_and_store(s, row.copy())

            batch_source_dependencies(self._csr, [index_of(s) for s in pending], sink=store)
            computed += len(pending)
        self.evaluations += computed
        self.prefetch_evaluations += computed
        return computed

    def _copy_shared(self, sources) -> list:
        """Cache the *sources* the shared store holds; return the rest."""
        if self._shared is None:
            return sources
        pending = []
        for s in sources:
            row = self._shared.get(self._csr.index_of(s))
            if row is not None:
                self.shared_hits += 1
                self._store(s, row)
            else:
                pending.append(s)
        return pending

    def _publish_and_store(self, source: Vertex, vector: object) -> None:
        """Publish a freshly computed vector to the shared store, then cache it."""
        if self._shared is not None:
            self._shared.put(self._csr.index_of(source), vector)
        self._store(source, vector)

    def _store(self, source: Vertex, vector: object) -> None:
        self._cache[source] = vector
        if self._cache_size is not None and len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def _raw_vector(self, source: Vertex):
        """Return the per-source dependency array, from cache or a fresh pass.

        Lookup order: private cache (lock-free), then the cross-process
        shared store (a locked row copy, counted in :attr:`shared_hits` and
        re-cached privately so revisits stay lock-free), then the kernels —
        and a vector the kernels produce is published to the shared store so
        no other worker pays the same pass again.
        """
        self.lookups += 1
        if self.cache_enabled and source in self._cache:
            self._cache.move_to_end(source)
            return self._cache[source]
        if self._shared is not None:
            row = self._shared.get(self._csr.index_of(source))
            if row is not None:
                self.shared_hits += 1
                if self.cache_enabled:
                    self._store(source, row)
                return row
        self.evaluations += 1
        # A one-row set, so a recomputed vector is bit-identical to its
        # prefetched twin (batch rows are composition-independent).
        vector = batch_source_dependencies(self._csr, [self._csr.index_of(source)])[0]
        if self._shared is not None:
            self._shared.put(self._csr.index_of(source), vector)
        if self.cache_enabled:
            self._store(source, vector)
        return vector

    def dependency_vector(self, source: Vertex) -> Dict[Vertex, float]:
        """Return ``{target: delta_{source.}(target)}`` for every target.

        This materialises a vertex-keyed dict from the cached array
        (boundary conversion); point queries should prefer
        :meth:`dependency`, which reads a single array element.
        """
        return self._csr.array_to_vertex_map(self._raw_vector(source))

    def dependency(self, source: Vertex, target: Vertex) -> float:
        """Return :math:`\\delta_{source\\bullet}(target)`.

        0 when ``source == target`` and when *target* is not a vertex of
        the graph at all.
        """
        if source == target:
            return 0.0
        vector = self._raw_vector(source)
        index = self._csr.find_index(target)
        return 0.0 if index is None else float(vector[index])

    def dependencies_for(self, source: Vertex, targets) -> Dict[Vertex, float]:
        """Return ``{t: delta_{source.}(t)}`` for the given *targets* only.

        One Brandes pass (or cache hit) serves every target without
        materialising a full vertex-keyed vector; :meth:`dependency_rows` is
        the many-source form the chains use.  Unknown targets read as 0.0.
        """
        vector = self._raw_vector(source)
        find_index = self._csr.find_index
        result: Dict[Vertex, float] = {}
        for t in targets:
            index = find_index(t)
            result[t] = 0.0 if t == source or index is None else float(vector[index])
        return result

    def dependency_rows(
        self,
        sources: Sequence[Vertex],
        targets: Sequence[Vertex],
        *,
        prefetch: bool = False,
        skip_self_lookups: bool = False,
    ) -> np.ndarray:
        """Return the ``(len(sources), len(targets))`` array of δ_{s·}(t).

        The bulk read of the Metropolis-Hastings chains: one call gathers
        every candidate's dependency row, each source taking one lookup in
        order, read with :meth:`dependencies_for` semantics (a target equal
        to the source, or not in the graph, reads 0.0).
        ``skip_self_lookups`` gives a single target :meth:`dependency`
        semantics instead: a source equal to the target reads 0.0 without
        a lookup (and is never prefetched).

        With *prefetch*, the rows are computed ahead of the lookups by
        :meth:`prefetch`: with an unbounded cache the whole deduplicated
        set in one call.  A bounded cache takes the sources in runs it can
        hold whole (:meth:`_prefetch_run`), so a prefetched row is never
        evicted before its run reads it.
        """
        if skip_self_lookups and len(targets) != 1:
            raise ConfigurationError("skip_self_lookups needs exactly one target")
        find_index = self._csr.find_index
        columns = [find_index(t) for t in targets]
        known = [j for j, c in enumerate(columns) if c is not None]
        index = [columns[j] for j in known]
        # Each vector is read as soon as it is looked up (holding the
        # vectors would keep every evicted one alive): a scalar read for
        # one column, one fancy-indexed read for several.
        pick = itemgetter(index[0] if len(index) == 1 else np.array(index, dtype=np.intp))
        position = {t: j for j, t in enumerate(targets)}
        skip = targets[0] if skip_self_lookups else None
        zero = np.zeros(self._csr.number_of_vertices())
        cached = self.cache_enabled
        cache = self._cache
        values = []
        append = values.append
        self_cells = []
        hits = 0
        begin = 0
        while begin < len(sources):
            end = len(sources)
            if prefetch and cached:
                end = self._prefetch_run(sources, begin, skip)
            for s in sources[begin:end]:
                if s in position:
                    if skip_self_lookups:
                        append(pick(zero))
                        continue
                    self_cells.append((len(values), position[s]))
                # The cache-hit branch of _raw_vector, inlined; a miss
                # takes the full path.
                if cached and s in cache:
                    cache.move_to_end(s)
                    append(pick(cache[s]))
                    hits += 1
                else:
                    append(pick(self._raw_vector(s)))
            begin = end
        self.lookups += hits
        rows = np.zeros((len(sources), len(targets)))
        if known:
            rows[:, known] = np.array(values, dtype=float).reshape(len(sources), len(known))
        for k, j in self_cells:
            rows[k, j] = 0.0
        return rows

    def _prefetch_run(self, sources: Sequence[Vertex], begin: int, skip) -> int:
        """Prefetch the run of *sources* from *begin* and return where it ends.

        Unbounded, the run is every remaining source.  A bounded cache
        ends the run before its distinct sources would outnumber the
        capacity, or its misses the prefetch allowance (free slots, else
        half the capacity, at least one); the run's cached sources are
        touched first, so storing its misses evicts only vectors the run
        does not read.  *skip* (a target read as 0.0) is never fetched.
        """
        if self._cache_size is None:
            self.prefetch([s for s in sources[begin:] if s != skip])
            return len(sources)
        cache = self._cache
        capacity = self._cache_size
        free = capacity - len(cache)
        allowance = max(free, capacity // 2 if cache else 0, 1)
        run: Dict[Vertex, None] = {}
        misses = 0
        end = begin
        for s in sources[begin:]:
            if s != skip and s not in run:
                miss = s not in cache
                if len(run) == capacity or misses + miss > allowance:
                    break
                run[s] = None
                misses += miss
            end += 1
        for s in run:
            if s in cache:
                cache.move_to_end(s)
        self.prefetch(list(run))
        return end

    # ------------------------------------------------------------------
    def apply_delta(self, affected_mask) -> tuple:
        """Re-bind to the mutated graph, evicting only affected cached vectors.

        The delta-scoped alternative to discarding the oracle on mutation:
        *affected_mask* is the boolean per-CSR-index mask (over the
        post-mutation snapshot) that
        :meth:`repro.execution.runtime.ExecutionContext.refresh` computed
        for the same journal window.  Cached vectors of unaffected sources
        are bit-identical on the mutated graph — the over-approximation
        contract of :mod:`repro.incremental` — so retaining them can never
        change a result; affected ones are dropped and re-snapshotting the
        CSR view re-binds future evaluations to the new structure.  The
        caller guarantees the vertex set is unchanged (vertex ops force the
        full path upstream).  Returns ``(evicted, retained)`` counts.
        Counters survive: they are lifetime work accounting, not graph
        state.
        """
        new_csr = self._graph.csr()
        if (
            self._shared is not None
            and self._shared.num_vertices != new_csr.number_of_vertices()
        ):
            raise ConfigurationError(
                "apply_delta across a vertex-count change; the caller must "
                "rebuild the oracle instead"
            )
        self._csr = new_csr
        index_of = new_csr.find_index
        evicted = 0
        for source in list(self._cache):
            index = index_of(source)
            if index is None or bool(affected_mask[index]):
                del self._cache[source]
                evicted += 1
        return evicted, len(self._cache)

    def clear(self) -> None:
        """Drop every *private* cached vector and reset the counters.

        The cross-process shared store is deliberately left untouched: its
        rows belong to the whole run (other workers may be reading them),
        and its lifecycle is owned by the driver that created it.
        """
        self._cache.clear()
        self.evaluations = 0
        self.lookups = 0
        self.prefetch_evaluations = 0
        self.shared_hits = 0
