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

Caching is an implementation choice, not part of the algorithm; benchmark E8
ablates it.
"""

from __future__ import annotations

from collections import OrderedDict
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.execution.plan import ExecutionPlan
from repro.graphs.core import Graph, Vertex
from repro.shortest_paths.batch import batch_source_dependencies
from repro.shortest_paths.dependencies import iter_batches

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
    batch_size:
        Sources per traversal of :meth:`prefetch` blocks.  Every pass —
        prefetch blocks and point-query misses (a K=1 batch) alike — runs
        through :func:`~repro.shortest_paths.batch.batch_source_dependencies`,
        which computes every row independently, so a vector is
        bit-identical whether it was prefetched or recomputed after
        eviction, which is what keeps a chain's estimate independent of the
        batch size.
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
        batch_size: int = ExecutionPlan.batch_size,
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
        self._batch_size = max(int(batch_size), 1)
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

        The entry point of the Metropolis-Hastings batch-prefetch path:
        samplers with an independence proposal know their upcoming proposal
        sources ahead of time and hand them over in blocks, so the Brandes
        passes run ``batch_size`` sources per batched traversal instead of
        one pass per acceptance test.  Already-cached (and duplicate)
        sources are skipped; a disabled cache makes this a no-op because
        there is nowhere to keep the vectors.  A bounded cache fills its
        **free slots** first and beyond them claims at most **half the
        capacity**, so a prefetch evicts nothing but the LRU half: the MRU
        entry provably survives every block (``max(free, C // 2) <= C - 1``
        whenever anything is cached), and with it the recently-touched
        vectors — in particular the one of the state the chain currently
        sits on, which an earlier revision flushed by capping at raw
        capacity, re-paying a Brandes pass on every later revisit.  The
        half-capacity floor is what keeps the *batched* kernels running on a
        full cache (a free-slots-only cap would degenerate to solitary
        point-query passes for the rest of the chain).  With a shared store
        attached, sources already published by another worker are copied in
        instead of computed, and every freshly computed vector is
        published.  Returns the number of passes performed (each counted in
        both :attr:`evaluations` and :attr:`prefetch_evaluations`).
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
        if self._shared is not None:
            pending = []
            for s in missing:
                row = self._shared.get(self._csr.index_of(s))
                if row is not None:
                    self.shared_hits += 1
                    self._store(s, row)
                else:
                    pending.append(s)
            missing = pending
            if not missing:
                return 0
        index_of = self._csr.index_of
        for chunk in iter_batches(missing, self._batch_size):
            deltas = batch_source_dependencies(self._csr, [index_of(s) for s in chunk])
            for row, s in enumerate(chunk):
                # Copy the row so the (K, n) batch matrix can be freed.
                self._publish_and_store(s, deltas[row].copy())
        self.evaluations += len(missing)
        self.prefetch_evaluations += len(missing)
        return len(missing)

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
        # A K=1 batch, so a recomputed vector is bit-identical to its
        # prefetched twin (batch rows are composition-independent).
        vector = batch_source_dependencies(self._csr, [self._csr.index_of(source)])[0].copy()
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
        prefetch_block: Optional[int] = None,
        skip_self_lookups: bool = False,
    ) -> np.ndarray:
        """Return the ``(len(sources), len(targets))`` array of δ_{s·}(t).

        The bulk read of the Metropolis-Hastings chains: one call gathers
        every candidate's dependency row, and the oracle traffic is exactly
        that of the per-candidate loop it replaces, so a bounded cache
        evicts the same vectors and :attr:`evaluations`, :attr:`lookups`
        and :meth:`hit_rate` read the same.  With *prefetch_block*, every
        ``prefetch_block``-th source (the first included) is preceded by a
        :meth:`prefetch` of the block it starts.  Then each source takes one
        lookup, read with :meth:`dependencies_for` semantics (a target equal
        to the source, or not in the graph, reads 0.0).
        ``skip_self_lookups`` gives a single target :meth:`dependency`
        semantics instead: a source equal to the target reads 0.0 without
        a lookup.
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
        zero = np.zeros(self._csr.number_of_vertices())
        cached = self.cache_enabled
        cache = self._cache
        values = []
        append = values.append
        self_cells = []
        hits = 0
        block = prefetch_block or max(len(sources), 1)
        for begin in range(0, len(sources), block):
            chunk = sources[begin : begin + block]
            if prefetch_block:
                self.prefetch(chunk)
            for s in chunk:
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
        self.lookups += hits
        rows = np.zeros((len(sources), len(targets)))
        if known:
            rows[:, known] = np.array(values, dtype=float).reshape(len(sources), len(known))
        for k, j in self_cells:
            rows[k, j] = 0.0
        return rows

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
