"""Compressed-sparse-row (CSR) view of a :class:`~repro.graphs.core.Graph`.

Every estimator in this library pays one shortest-path-DAG construction per
sample (Section 2.1 of the paper), so the traversal substrate dominates the
runtime.  The dict-of-dicts adjacency of :class:`Graph` is convenient for
mutation and for hashable vertex labels, but it is the wrong shape for a hot
loop: every edge visit pays a hash lookup and the working set is scattered
across the heap.  :class:`CSRGraph` is the standard flat-array alternative —
the whole adjacency packed into three numpy arrays — on top of which the
``*_csr`` kernels in :mod:`repro.shortest_paths` run level-synchronous,
vectorised traversals.

Immutability / invalidation contract
------------------------------------
A :class:`CSRGraph` is an **immutable snapshot**: it never observes later
mutations of the :class:`Graph` it was built from.  The canonical way to
obtain one is ``graph.csr()``, which caches the view on the graph and
*invalidates* the cache on every mutating operation (``add_vertex``,
``add_edge``, ``remove_edge``, ``remove_vertex``).  Holding on to a
:class:`CSRGraph` across a mutation is safe — the arrays still describe the
old snapshot — but a fresh ``graph.csr()`` call is needed to see the new
structure.  Algorithms therefore take the snapshot once at their entry point
and index into it for their whole run.

Vertex ↔ index mapping
----------------------
Vertices keep their arbitrary hashable labels at the API boundary; inside the
kernels they are dense integers ``0..n-1`` in **insertion order** (the same
order as ``graph.vertices()``).  The bidirectional mapper —
:meth:`CSRGraph.index_of` and :meth:`CSRGraph.vertex_at` — is how results
cross the boundary back to vertex-keyed dictionaries.  Keeping insertion
order means that index-based random draws consume the *same* rng stream as
label-based draws from ``graph.vertices()``, which is what lets the
dict-kernel reference loops of the test-suite reproduce every estimate for a
fixed seed.

Kernels
-------
Every estimator runs on CSR snapshots, through the numpy kernels of
:mod:`repro.shortest_paths` — the one kernel rung; there is no kernel knob.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import VertexNotFoundError

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.core import Graph, Vertex

__all__ = [
    "CSRGraph",
    "np",
]


class CSRGraph:
    """Immutable flat-array snapshot of a :class:`Graph` (see module docstring).

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; the out-edges of vertex index
        ``i`` occupy ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``int64`` array of length ``m`` holding neighbour indices, in the
        same order the dict adjacency iterates them (so CSR traversals visit
        edges in the same order as the dict-kernel reference).
    weights:
        ``float64`` array of length ``m`` with the matching edge weights
        (all ``1.0`` for unweighted graphs).
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "directed",
        "weighted",
        "_vertices",
        "_index_of",
        "_scipy_forward",
        "_scipy_backward",
        "_spmm_ok",
        "_dijkstra_adj",
        "_sweep_rounds",
    )

    def __init__(
        self,
        indptr,
        indices,
        weights,
        vertices: Sequence["Vertex"],
        *,
        directed: bool,
        weighted: bool,
    ) -> None:
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.directed = bool(directed)
        self.weighted = bool(weighted)
        self._vertices: Tuple["Vertex", ...] = tuple(vertices)
        self._index_of: Dict["Vertex", int] = {v: i for i, v in enumerate(vertices)}
        self._scipy_forward = None
        self._scipy_backward = None
        # Lazily-computed verdict of repro.shortest_paths.batch on whether
        # the sparse-matmul sweep suits this snapshot (small depth), cached
        # so the depth probe runs once per snapshot.
        self._spmm_ok = None
        # Lazily-built list-of-(neighbour, weight) adjacency view for the
        # interpreter Dijkstra rung (repro.shortest_paths.dijkstra); one
        # build per snapshot, shared by every source.
        self._dijkstra_adj = None
        # Hop rounds the batched weighted sweep last observed on this
        # snapshot (repro.shortest_paths.batch), the input of its depth gate.
        self._sweep_rounds = None

    # ------------------------------------------------------------------
    def __getstate__(self):
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        # Per-process lazy caches are rebuilt on demand; shipping them to
        # worker processes would multiply the payload size for no benefit.
        state["_scipy_forward"] = None
        state["_scipy_backward"] = None
        state["_dijkstra_adj"] = None
        return state

    def __setstate__(self, state) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)

    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: "Graph") -> "CSRGraph":
        """Build a CSR snapshot of *graph* (vertex indices in insertion order)."""
        vertices = graph.vertices()
        index = {v: i for i, v in enumerate(vertices)}
        n = len(vertices)
        # Preallocate from degree counts instead of growing Python lists and
        # converting at the end: one O(m) fill pass, no list reallocation
        # churn and no transient second copy of the edge arrays.  The
        # per-vertex fill visits neighbours in dict iteration order, so the
        # arrays are byte-identical to the appending builder's.
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum([graph.degree(v) for v in vertices], out=indptr[1:])
        m = int(indptr[n]) if n else 0
        flat_indices = np.empty(m, dtype=np.int64)
        flat_weights = np.empty(m, dtype=np.float64)
        for i, v in enumerate(vertices):
            adj = graph.adjacency(v)
            if adj:
                start, stop = indptr[i], indptr[i + 1]
                flat_indices[start:stop] = [index[u] for u in adj]
                flat_weights[start:stop] = list(adj.values())
        return cls(
            indptr,
            flat_indices,
            flat_weights,
            vertices,
            directed=graph.directed,
            weighted=graph.weighted,
        )

    def patched(self, deltas) -> "CSRGraph":
        """Return a new snapshot with a journal window's edge *deltas* applied.

        *deltas* are the :class:`~repro.graphs.core.GraphDelta` records of
        one journal window, oldest first, with no vertex record among them
        (a vertex delta changes the index space: rebuild with
        :meth:`from_graph`).  They are replayed in order on the touched rows
        only, each starting from its slice of this snapshot, exactly as the
        dict adjacency applied them: an added edge appends at the row's
        end, a removal deletes in place and a weight change rewrites in
        place, in both rows of an undirected edge.  So the result is
        byte-identical to ``from_graph`` on the mutated graph — the
        delta-scoped alternative to that O(m) Python rebuild.

        A weight-only window **shares** this snapshot's ``indptr`` /
        ``indices`` arrays and only copies the weights.  An edge delta
        rebuilds the three arrays in one O(n + m) numpy pass.  Either way
        the vertex mapping is shared.

        Raises
        ------
        EdgeNotFoundError
            If a removal or weight change names an edge absent from the
            snapshot.
        ValueError
            On a vertex delta.
        """
        from repro.errors import EdgeNotFoundError

        rows: Dict[int, Tuple[list, list]] = {}
        structural = False
        for delta in deltas:
            if delta.touches_vertices:
                raise ValueError("a vertex delta changes the index space; use from_graph")
            structural = structural or delta.structural
            ui = self._index_of.get(delta.u)
            vi = self._index_of.get(delta.v)
            if ui is None or vi is None:
                raise EdgeNotFoundError(delta.u, delta.v)
            for a, b in ((ui, vi),) if self.directed else ((ui, vi), (vi, ui)):
                row = rows.get(a)
                if row is None:
                    start, stop = self.indptr[a], self.indptr[a + 1]
                    row = rows[a] = (
                        self.indices[start:stop].tolist(),
                        self.weights[start:stop].tolist(),
                    )
                nbrs, weights = row
                if delta.kind == "edge-added":
                    nbrs.append(b)
                    weights.append(float(delta.weight))
                    continue
                try:
                    at = nbrs.index(b)
                except ValueError:
                    raise EdgeNotFoundError(delta.u, delta.v) from None
                if delta.kind == "edge-removed":
                    del nbrs[at], weights[at]
                else:
                    weights[at] = float(delta.weight)
        clone = CSRGraph.__new__(CSRGraph)
        clone.directed = self.directed
        clone.weighted = self.weighted
        clone._vertices = self._vertices
        clone._index_of = self._index_of
        clone._scipy_forward = None
        clone._scipy_backward = None
        # The pair view caches weights, which this clone may have changed.
        clone._dijkstra_adj = None
        touched = sorted(rows)
        if not structural:
            clone.indptr = self.indptr
            clone.indices = self.indices
            clone.weights = self.weights.copy()
            for a in touched:
                clone.weights[self.indptr[a] : self.indptr[a + 1]] = rows[a][1]
            # Same structure, so the depth verdict holds and the observed
            # hop rounds stay a fair estimate for the depth gate.
            clone._spmm_ok = self._spmm_ok
            clone._sweep_rounds = self._sweep_rounds
            return clone
        degrees = self.indptr[1:] - self.indptr[:-1]
        degrees[touched] = [len(rows[a][0]) for a in touched]
        indptr = np.zeros_like(self.indptr)
        np.cumsum(degrees, out=indptr[1:])
        # Untouched runs of rows move as whole slices between the new rows.
        index_parts, weight_parts = [], []
        begin = 0
        for a in touched:
            old, stop = self.indptr[begin], self.indptr[a]
            index_parts += [self.indices[old:stop], np.array(rows[a][0], dtype=np.int64)]
            weight_parts += [self.weights[old:stop], np.array(rows[a][1], dtype=np.float64)]
            begin = a + 1
        index_parts.append(self.indices[self.indptr[begin] :])
        weight_parts.append(self.weights[self.indptr[begin] :])
        clone.indptr = indptr
        clone.indices = np.concatenate(index_parts)
        clone.weights = np.concatenate(weight_parts)
        clone._spmm_ok = None
        clone._sweep_rounds = None
        return clone

    # ------------------------------------------------------------------
    # Sizes and mapping
    # ------------------------------------------------------------------
    def number_of_vertices(self) -> int:
        """Return ``|V|`` of the snapshot."""
        return len(self._vertices)

    def number_of_edges(self) -> int:
        """Return ``|E|`` (each undirected edge counted once)."""
        m = int(self.indices.shape[0])
        return m if self.directed else m // 2

    def __len__(self) -> int:
        return len(self._vertices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CSRGraph with {self.number_of_vertices()} vertices and "
            f"{self.number_of_edges()} edges>"
        )

    @property
    def vertices(self) -> Tuple["Vertex", ...]:
        """The vertex labels in index order (insertion order of the source graph)."""
        return self._vertices

    def index_of(self, vertex: "Vertex") -> int:
        """Return the dense index of *vertex* (raises :class:`VertexNotFoundError`)."""
        try:
            return self._index_of[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def find_index(self, vertex: "Vertex") -> Optional[int]:
        """Return the dense index of *vertex*, or ``None`` when absent.

        The lenient twin of :meth:`index_of`, for callers whose dict-backed
        contract treats unknown vertices as "no data" rather than an error.
        """
        return self._index_of.get(vertex)

    def vertex_at(self, index: int) -> "Vertex":
        """Return the vertex label stored at dense *index*."""
        return self._vertices[index]

    # ------------------------------------------------------------------
    # Structure queries (index space)
    # ------------------------------------------------------------------
    def degree_of(self, index: int) -> int:
        """Return the (out-)degree of the vertex at *index*."""
        return int(self.indptr[index + 1] - self.indptr[index])

    def degrees(self):
        """Return the ``int64`` array of (out-)degrees of all vertices."""
        return self.indptr[1:] - self.indptr[:-1]

    def neighbors_of(self, index: int):
        """Return the neighbour-index array of the vertex at *index* (a view)."""
        return self.indices[self.indptr[index] : self.indptr[index + 1]]

    def weights_of(self, index: int):
        """Return the edge-weight array matching :meth:`neighbors_of` (a view)."""
        return self.weights[self.indptr[index] : self.indptr[index + 1]]

    def array_to_vertex_map(self, values) -> Dict["Vertex", float]:
        """Convert a per-index array into a ``{vertex: value}`` dict (boundary helper)."""
        return {v: float(values[i]) for i, v in enumerate(self._vertices)}

    # ------------------------------------------------------------------
    # Optional scipy views (cached; the snapshot is immutable)
    # ------------------------------------------------------------------
    def scipy_adjacency(self, *, transpose: bool = False):
        """Return the cached ``scipy.sparse.csr_matrix`` view of the snapshot.

        With ``transpose=False`` rows are out-adjacencies (the orientation
        the Brandes back-propagation spreads along); ``transpose=True``
        yields in-adjacencies (what a forward BFS wave gathers over) — the
        two coincide for undirected graphs, so the transpose is only
        materialised for directed ones.  Used by the sparse-matmul fast path
        of :mod:`repro.shortest_paths.batch`; callers must gate on scipy
        being importable (it is an optional dependency).
        """
        from scipy.sparse import csr_matrix

        if self._scipy_forward is None:
            n = self.number_of_vertices()
            self._scipy_forward = csr_matrix(
                (self.weights, self.indices, self.indptr), shape=(n, n)
            )
            self._scipy_backward = (
                self._scipy_forward.T.tocsr() if self.directed else self._scipy_forward
            )
        return self._scipy_backward if transpose else self._scipy_forward
