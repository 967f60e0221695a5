"""Adjacency-list graph used by every algorithm in the library.

The paper (Section 2) works with undirected, connected, loop-free graphs
without multi-edges, optionally weighted with strictly positive weights.
:class:`Graph` implements exactly that model plus an optional *directed*
mode, because several substrates (the shortest-path DAG, the bidirectional
BFS sampler) are easiest to express on top of a directed view.

Design notes
------------
* Vertices are arbitrary hashable objects; the common case in the
  reproduction is small integers.
* The adjacency structure is ``dict[vertex, dict[vertex, weight]]``.  For an
  unweighted graph every stored weight is ``1.0``; this keeps a single code
  path for weighted and unweighted algorithms while the ``weighted`` flag
  records the caller's intent (and controls which shortest-path engine is
  used).
* The only derived cache the class keeps is the CSR snapshot returned by
  :meth:`Graph.csr`; every mutating operation drops it, so a stale view can
  never be observed through the graph.  All other derived data
  (shortest-path DAGs, dependency vectors) is owned by the algorithm layers,
  which decide their own caching policy.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.errors import (
    EdgeNotFoundError,
    GraphStructureError,
    NegativeWeightError,
    VertexNotFoundError,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = ["Vertex", "Edge", "Graph", "GraphDelta", "DELTA_KINDS", "JOURNAL_LIMIT"]

#: Type alias for vertices; anything hashable is accepted.
Vertex = Hashable
#: Type alias for an edge as a pair of endpoints.
Edge = Tuple[Vertex, Vertex]

#: The typed mutation kinds a :class:`GraphDelta` can record.
DELTA_KINDS = (
    "edge-added",
    "edge-removed",
    "weight-changed",
    "vertex-added",
    "vertex-removed",
)

#: Maximum number of delta records the change journal retains.  Readers that
#: fall behind by more than this many mutations get ``None`` from
#: :meth:`Graph.journal_since` and must fall back to full invalidation —
#: the scalar ``version`` stamp remains the compatibility signal.
JOURNAL_LIMIT = 256


@dataclass(frozen=True)
class GraphDelta:
    """One typed mutation record in a graph's change journal.

    ``kind`` is one of :data:`DELTA_KINDS`.  Edge records carry both
    endpoints; ``weight-changed`` additionally carries the old and new
    weight so a weight-only CSR patch can be validated; vertex records
    carry the vertex in ``u``.  Deltas are immutable and picklable, so a
    journal travels with a pickled graph.
    """

    kind: str
    u: Optional[Vertex] = None
    v: Optional[Vertex] = None
    weight: Optional[float] = None
    old_weight: Optional[float] = None

    @property
    def structural(self) -> bool:
        """Whether the delta changes the vertex/edge *set* (not just a weight)."""
        return self.kind != "weight-changed"

    @property
    def touches_vertices(self) -> bool:
        """Whether the delta adds or removes a vertex (index space changes)."""
        return self.kind in ("vertex-added", "vertex-removed")


class Graph:
    """A simple graph (no self-loops, no multi-edges) with optional weights.

    Parameters
    ----------
    directed:
        When ``True`` edges are ordered pairs; the paper's algorithms operate
        on undirected graphs, but the directed mode is used internally and is
        exposed for completeness.
    weighted:
        When ``True`` the graph is treated as weighted with strictly positive
        weights and weighted shortest-path algorithms (Dijkstra) are used
        downstream.  When ``False`` all edge weights are fixed at ``1.0``.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(0, 1)
    >>> g.add_edge(1, 2)
    >>> sorted(g.neighbors(1))
    [0, 2]
    >>> g.number_of_vertices(), g.number_of_edges()
    (3, 2)
    """

    __slots__ = (
        "_adj",
        "_pred",
        "_directed",
        "_weighted",
        "_num_edges",
        "_csr",
        "_stale_csr",
        "_version",
        "_journal",
        "_journal_floor",
        "_batch_depth",
        "_batch_bumped",
        "_connectivity",
    )

    def __init__(self, *, directed: bool = False, weighted: bool = False) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, float]] = {}
        # Predecessor map, only maintained for directed graphs.
        self._pred: Optional[Dict[Vertex, Dict[Vertex, float]]] = {} if directed else None
        self._directed = bool(directed)
        self._weighted = bool(weighted)
        self._num_edges = 0
        self._csr: Optional["CSRGraph"] = None
        # Last built CSR snapshot retained across a mutation, with the
        # version it was built at, so the next snapshot can splice the
        # journal window into it instead of paying a full O(m) Python
        # rebuild (see :meth:`csr`).
        self._stale_csr: Optional[Tuple["CSRGraph", int]] = None
        self._version = 0
        # Bounded change journal: (version_after, GraphDelta) records, the
        # structured companion to the scalar version stamp.  The journal
        # covers the version interval (_journal_floor, _version]; readers
        # behind the floor must fall back to full invalidation.
        self._journal: Deque[Tuple[int, GraphDelta]] = deque()
        self._journal_floor = 0
        self._batch_depth = 0
        self._batch_bumped = False
        # (version, connected) verdict memoised by
        # repro.graphs.utils.ensure_connected; stale once the version moves.
        self._connectivity: Optional[Tuple[int, bool]] = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def directed(self) -> bool:
        """Whether edges are ordered pairs."""
        return self._directed

    @property
    def weighted(self) -> bool:
        """Whether the graph carries meaningful positive edge weights."""
        return self._weighted

    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumped by every mutating operation).

        Derived caches that outlive a single call — the persistent
        dependency arena and worker payloads of
        :mod:`repro.execution.runtime` — stamp the version they were built
        against and treat any change as an invalidation signal, the
        cross-call analogue of the CSR snapshot being dropped on mutation.
        """
        return self._version

    @property
    def in_batch(self) -> bool:
        """Whether a :meth:`batch_mutations` block is currently open."""
        return self._batch_depth > 0

    def settled_version(self) -> int:
        """The newest version that can no longer acquire journal records.

        Equal to :attr:`version` except inside an open
        :meth:`batch_mutations` block that has already bumped: the batch's
        version is still accumulating deltas, so a warm consumer that
        stamped it would silently skip every delta journaled after its
        read.  Consumers therefore stamp ``settled_version()`` — inside a
        bumped batch that is the *pre-batch* version, which keeps the
        batch window pending: every sync until the batch closes re-reads
        the whole window (idempotent for eviction), and the post-batch
        sync can never mistake the graph for unchanged.
        """
        if self._batch_depth > 0 and self._batch_bumped:
            return self._version - 1
        return self._version

    def _record(self, delta: GraphDelta) -> None:
        """Drop the CSR snapshot, advance the stamp and journal *delta*.

        Inside a :meth:`batch_mutations` block the version is bumped once
        (on the first recorded delta) while every delta still lands in the
        journal under that single new version — one observable invalidation
        per batch, full per-edge detail for delta-scoped consumers.
        """
        if self._csr is not None:
            # A snapshot read inside a batch that has already bumped sits
            # mid-version: its stamp cannot say which of the batch's records
            # it has seen, so it is no base for a journal replay.
            mid_batch = self._batch_depth > 0 and self._batch_bumped
            self._stale_csr = None if mid_batch else (self._csr, self._version)
            self._csr = None
        if self._batch_depth > 0:
            if not self._batch_bumped:
                self._version += 1
                self._batch_bumped = True
        else:
            self._version += 1
        self._journal.append((self._version, delta))
        if len(self._journal) > JOURNAL_LIMIT:
            dropped_version, _ = self._journal.popleft()
            self._journal_floor = dropped_version
            # A batch shares one version across its deltas: returning a
            # partial batch would under-report the change set, so every
            # record at or below the floor is dropped with it.
            while self._journal and self._journal[0][0] <= self._journal_floor:
                self._journal.popleft()

    @contextlib.contextmanager
    def batch_mutations(self) -> Iterator["Graph"]:
        """Group several mutations under one version bump.

        An N-edge bulk load through :meth:`add_edges_from` used to bump the
        version (and drop the CSR snapshot) once per edge, so every warm
        consumer saw N invalidation signals for one logical change.  Inside
        this context the first mutation bumps the version once; subsequent
        mutations journal their deltas under the same new version.  Nesting
        is allowed (only the outermost block owns the bump), and a block
        that performs no mutation leaves the version untouched.

        Reading (or even querying a warm session) inside an open block is
        legal: the batch's version keeps accumulating deltas until the
        block exits, so warm consumers stamp :meth:`settled_version` —
        never the in-flight batch version — and a mid-batch read can
        therefore never seal the window early (see
        :meth:`settled_version`).

        Examples
        --------
        >>> g = Graph.from_edges([(0, 1)])
        >>> before = g.version
        >>> with g.batch_mutations():
        ...     g.add_edge(1, 2)
        ...     g.add_edge(2, 3)
        >>> g.version == before + 1
        True
        """
        if self._batch_depth == 0:
            self._batch_bumped = False
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1

    def journal_since(self, version: int) -> Optional[Tuple[GraphDelta, ...]]:
        """Return the deltas applied after *version*, oldest first.

        Returns ``()`` when the graph is unchanged since *version*, and
        ``None`` when the journal cannot answer — *version* predates the
        bounded journal's floor (overflow) or postdates the current stamp
        (a different graph's stamp) — in which case the caller must treat
        everything as changed, exactly as the scalar-version protocol did.
        """
        if version == self._version:
            return ()
        if version < self._journal_floor or version > self._version:
            return None
        return tuple(delta for stamped, delta in self._journal if stamped > version)

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        """Pickle the adjacency only — never the cached CSR snapshot.

        Default ``__slots__`` pickling would ship ``_csr`` (three O(m)
        arrays) alongside the dict adjacency, doubling every worker
        payload that carries a graph.  Payloads that need the snapshot in
        the worker ship it explicitly, as its own array bundle, and prime
        the unpickled graph via :meth:`adopt_csr`.
        """
        return {
            slot: getattr(self, slot)
            for slot in Graph.__slots__
            if slot not in ("_csr", "_stale_csr", "_connectivity")
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._csr = None
        self._stale_csr = None
        self._connectivity = None
        for slot, value in state.items():
            setattr(self, slot, value)

    def adopt_csr(self, snapshot: "CSRGraph") -> None:
        """Adopt *snapshot* as the cached CSR view when none is cached yet.

        Worker-side priming: a payload that ships ``(graph, snapshot)``
        separately reunites them so a subsequent :meth:`csr` call returns
        the shipped view instead of rebuilding O(m) arrays.  The caller asserts
        the snapshot describes this graph at its current version; a no-op
        when a cached view already exists.
        """
        if self._csr is None:
            self._csr = snapshot

    def number_of_vertices(self) -> int:
        """Return ``|V(G)|``."""
        return len(self._adj)

    def number_of_edges(self) -> int:
        """Return ``|E(G)|`` (each undirected edge counted once)."""
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DiGraph" if self._directed else "Graph"
        weight = "weighted" if self._weighted else "unweighted"
        return (
            f"<{kind} ({weight}) with {self.number_of_vertices()} vertices "
            f"and {self.number_of_edges()} edges>"
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add *vertex* to the graph (no-op if already present)."""
        if vertex not in self._adj:
            self._adj[vertex] = {}
            if self._pred is not None:
                self._pred[vertex] = {}
            self._record(GraphDelta("vertex-added", u=vertex))

    def add_vertices_from(self, vertices: Iterable[Vertex]) -> None:
        """Add every vertex in *vertices* (one version bump for the batch)."""
        with self.batch_mutations():
            for vertex in vertices:
                self.add_vertex(vertex)

    def add_edge(self, u: Vertex, v: Vertex, weight: float = 1.0) -> None:
        """Add the edge ``(u, v)`` with the given *weight*.

        Endpoints are added automatically.  Self-loops are rejected because
        the paper's model is loop-free.  Re-adding an existing edge updates
        its weight (simple graph: no multi-edges).

        Raises
        ------
        GraphStructureError
            If ``u == v``.
        NegativeWeightError
            If the graph is weighted and *weight* is not strictly positive.
        """
        if u == v:
            raise GraphStructureError(f"self-loop on vertex {u!r} is not allowed")
        weight = float(weight)
        if self._weighted and weight <= 0.0:
            raise NegativeWeightError(u, v, weight)
        if not self._weighted:
            weight = 1.0
        self.add_vertex(u)
        self.add_vertex(v)
        is_new = v not in self._adj[u]
        if is_new:
            self._record(GraphDelta("edge-added", u=u, v=v, weight=weight))
        elif self._adj[u][v] != weight:
            self._record(
                GraphDelta(
                    "weight-changed",
                    u=u,
                    v=v,
                    weight=weight,
                    old_weight=self._adj[u][v],
                )
            )
        # An idempotent upsert (same edge, same weight) records nothing: it
        # must not drop the CSR snapshot or bump the version stamp that
        # session-scoped warm state (arena, worker payloads) is keyed on.
        self._adj[u][v] = weight
        if self._directed:
            assert self._pred is not None
            self._pred[v][u] = weight
        else:
            self._adj[v][u] = weight
        if is_new:
            self._num_edges += 1

    def add_edges_from(
        self, edges: Iterable[Tuple[Vertex, ...]], weight: float = 1.0
    ) -> None:
        """Add every edge in *edges*.

        Each element may be a pair ``(u, v)`` (using the default *weight*) or
        a triple ``(u, v, w)``.
        """
        with self.batch_mutations():
            for edge in edges:
                if len(edge) == 2:
                    u, v = edge
                    self.add_edge(u, v, weight)
                elif len(edge) == 3:
                    u, v, w = edge
                    self.add_edge(u, v, w)
                else:
                    raise ValueError(
                        f"edge tuples must have 2 or 3 elements, got {edge!r}"
                    )

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Vertex, ...]],
        *,
        directed: bool = False,
        weighted: bool = False,
    ) -> "Graph":
        """Build a graph directly from an iterable of edges.

        Each element may be a pair ``(u, v)`` or a triple ``(u, v, w)``; the
        triple form requires ``weighted=True`` for the weight to be kept.
        This is the one-liner replacement for the ``g = Graph();
        g.add_edge(...)`` loops that used to pepper examples and fixtures.

        Examples
        --------
        >>> g = Graph.from_edges([(0, 1), (1, 2), (2, 0)])
        >>> g.number_of_vertices(), g.number_of_edges()
        (3, 3)
        """
        graph = cls(directed=directed, weighted=weighted)
        graph.add_edges_from(edges)
        return graph

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        self._record(GraphDelta("edge-removed", u=u, v=v, old_weight=self._adj[u][v]))
        del self._adj[u][v]
        if self._directed:
            assert self._pred is not None
            del self._pred[v][u]
        else:
            del self._adj[v][u]
        self._num_edges -= 1

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove *vertex* and every incident edge.

        Raises
        ------
        VertexNotFoundError
            If *vertex* is not in the graph.
        """
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        # One journal record for the vertex and all incident edges: delta
        # consumers treat any vertex removal as a full-invalidation signal
        # (the CSR index space changes), so per-edge detail is not needed.
        self._record(GraphDelta("vertex-removed", u=vertex))
        if self._directed:
            assert self._pred is not None
            out_neighbors = list(self._adj[vertex])
            in_neighbors = list(self._pred[vertex])
            for v in out_neighbors:
                del self._pred[v][vertex]
                self._num_edges -= 1
            for u in in_neighbors:
                del self._adj[u][vertex]
                self._num_edges -= 1
            del self._pred[vertex]
        else:
            neighbors = list(self._adj[vertex])
            for v in neighbors:
                del self._adj[v][vertex]
                self._num_edges -= 1
        del self._adj[vertex]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def vertices(self) -> List[Vertex]:
        """Return a list of all vertices (insertion order)."""
        return list(self._adj)

    def edges(self, data: bool = False) -> Iterator[Tuple]:
        """Iterate over edges.

        For undirected graphs each edge is yielded exactly once.  With
        ``data=True`` each item is ``(u, v, weight)``.
        """
        if self._directed:
            for u, nbrs in self._adj.items():
                for v, w in nbrs.items():
                    yield (u, v, w) if data else (u, v)
        else:
            seen = set()
            for u, nbrs in self._adj.items():
                for v, w in nbrs.items():
                    if v in seen:
                        continue
                    yield (u, v, w) if data else (u, v)
                seen.add(u)

    def has_vertex(self, vertex: Vertex) -> bool:
        """Return ``True`` if *vertex* is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` if the edge ``(u, v)`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def neighbors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over the (out-)neighbours of *vertex*."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return iter(self._adj[vertex])

    def predecessors(self, vertex: Vertex) -> Iterator[Vertex]:
        """Iterate over in-neighbours (directed) or neighbours (undirected)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._directed:
            assert self._pred is not None
            return iter(self._pred[vertex])
        return iter(self._adj[vertex])

    def adjacency(self, vertex: Vertex) -> Mapping[Vertex, float]:
        """Return a read-only view of ``{neighbour: weight}`` for *vertex*."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return dict(self._adj[vertex])

    def degree(self, vertex: Vertex) -> int:
        """Return the (out-)degree of *vertex*."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return len(self._adj[vertex])

    def in_degree(self, vertex: Vertex) -> int:
        """Return the in-degree of *vertex* (equals degree for undirected graphs)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._directed:
            assert self._pred is not None
            return len(self._pred[vertex])
        return len(self._adj[vertex])

    def edge_weight(self, u: Vertex, v: Vertex) -> float:
        """Return the weight of edge ``(u, v)``.

        Raises
        ------
        EdgeNotFoundError
            If the edge is not present.
        """
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def degree_sequence(self) -> List[int]:
        """Return the sorted (descending) degree sequence."""
        return sorted((len(nbrs) for nbrs in self._adj.values()), reverse=True)

    # ------------------------------------------------------------------
    # CSR view
    # ------------------------------------------------------------------
    def csr(self) -> "CSRGraph":
        """Return the cached immutable CSR snapshot of the graph.

        The snapshot is built lazily on first call and re-used until the next
        mutating operation (``add_vertex`` / ``add_edge`` / ``remove_edge`` /
        ``remove_vertex``), which drops the cache; see
        :mod:`repro.graphs.csr` for the immutability contract.  After edge
        mutations the next snapshot splices the journal window into the
        dropped one (:meth:`CSRGraph.patched`); vertex deltas and journal
        overflow rebuild it from the adjacency.
        """
        if self._csr is None:
            from repro.graphs.csr import CSRGraph

            snapshot: Optional["CSRGraph"] = None
            if self._stale_csr is not None:
                base, base_version = self._stale_csr
                deltas = self.journal_since(base_version)
                if deltas and not any(d.touches_vertices for d in deltas):
                    snapshot = base.patched(deltas)
            self._stale_csr = None
            if snapshot is None:
                snapshot = CSRGraph.from_graph(self)
            self._csr = snapshot
        return self._csr

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of the graph.

        Each adjacency dict is copied in its own iteration order, so the
        copy's CSR snapshot — and every traversal over it — is
        byte-identical to the original's.  Re-adding the edges in
        :meth:`edges` order would reorder the neighbours of any vertex
        first reached as a ``v`` endpoint.
        """
        new = Graph(directed=self._directed, weighted=self._weighted)
        new._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        if self._pred is not None:
            new._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        new._num_edges = self._num_edges
        return new

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by *vertices*.

        Unknown vertices are ignored, mirroring the common "induce on an
        arbitrary vertex set" usage in component extraction.
        """
        keep = {v for v in vertices if v in self._adj}
        new = Graph(directed=self._directed, weighted=self._weighted)
        for vertex in keep:
            new.add_vertex(vertex)
        for u in keep:
            for v, w in self._adj[u].items():
                if v in keep:
                    if self._directed or not new.has_edge(u, v):
                        new.add_edge(u, v, w)
        return new

    def without_vertex(self, vertex: Vertex) -> "Graph":
        """Return a copy of the graph with *vertex* (and incident edges) removed.

        This is the ``G \\ v`` operation from Section 2 of the paper (before
        splitting into connected components).
        """
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        remaining = (u for u in self._adj if u != vertex)
        return self.subgraph(remaining)

    def to_undirected(self) -> "Graph":
        """Return an undirected copy (collapsing edge directions)."""
        new = Graph(directed=False, weighted=self._weighted)
        for vertex in self._adj:
            new.add_vertex(vertex)
        for u, v, w in self.edges(data=True):
            new.add_edge(u, v, w)
        return new

    def relabelled(self) -> Tuple["Graph", Dict[Vertex, int]]:
        """Return a copy with vertices relabelled ``0..n-1`` plus the mapping.

        Useful before handing a graph to array-based tooling; the mapping is
        ``{original_label: new_index}``.
        """
        mapping = {v: i for i, v in enumerate(self._adj)}
        new = Graph(directed=self._directed, weighted=self._weighted)
        for vertex in self._adj:
            new.add_vertex(mapping[vertex])
        for u, v, w in self.edges(data=True):
            new.add_edge(mapping[u], mapping[v], w)
        return new, mapping

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def validate_vertex(self, vertex: Vertex) -> None:
        """Raise :class:`VertexNotFoundError` unless *vertex* is present."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)

    def require_undirected(self) -> None:
        """Raise :class:`GraphStructureError` if the graph is directed."""
        if self._directed:
            raise GraphStructureError("this operation requires an undirected graph")
