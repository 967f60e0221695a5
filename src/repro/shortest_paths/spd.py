"""The shortest-path DAG (SPD) data structure.

Section 2.1 of the paper: for every source vertex *s* the SPD rooted at *s*
is the DAG containing all shortest paths starting from *s*.  It is the
work-horse of every algorithm in the library — exact Brandes, all baseline
samplers, and the Metropolis-Hastings acceptance ratio all consume SPDs.

An SPD stores, for each vertex *v* reachable from the source, the
shortest-path distance d(s, v), the number of shortest paths
:math:`\\sigma_{sv}`, the parent set :math:`P_s(v)` of *v* in the DAG, and
the traversal order — non-decreasing distance, the order forward
accumulation needs and, reversed, the Brandes dependency recursion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.graphs.csr import np

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = ["CSRShortestPathDAG"]


class CSRShortestPathDAG:
    """Array-backed shortest-path DAG over a :class:`~repro.graphs.csr.CSRGraph`.

    Produced by :func:`repro.shortest_paths.bfs.bfs_spd_csr` and
    :func:`repro.shortest_paths.dijkstra.dijkstra_spd_csr`.  All per-vertex
    quantities live in dense numpy arrays indexed by CSR vertex index:

    * ``dist`` — ``float64`` distances (``inf`` for unreachable vertices);
    * ``sig`` — ``float64`` shortest-path counts (0 for unreachable);
    * ``order_indices`` — reachable vertex indices in non-decreasing distance
      order (the BFS dequeue order or the Dijkstra settle order);
    * predecessor lists in CSR layout, built lazily from the recorded DAG
      edges: the parents of index ``i`` are
      ``pred_indices[pred_indptr[i]:pred_indptr[i + 1]]``, in discovery
      order (BFS: frontier order, then adjacency order; Dijkstra: settle
      order).  :meth:`parents_of` on an undirected BFS-built DAG whose
      arrays are not built derives one vertex's parents instead, in the
      same order, so a path sampler that walks a few vertices never pays
      for every arc.

    For unweighted (BFS-built) DAGs, ``level_edges`` additionally groups the
    DAG edges by the level of the child vertex, which is what lets the
    dependency accumulation in :mod:`repro.shortest_paths.dependencies` run
    one vectorised pass per level.  Dijkstra-built DAGs set it to ``None``
    and fall back to the per-vertex ordered sweep.  Vertex labels stay at
    the caller's boundary (``csr.vertex_at`` / ``csr.index_of``).
    """

    __slots__ = (
        "csr",
        "source_index",
        "dist",
        "sig",
        "order_indices",
        "level_edges",
        "_pred_indptr",
        "_pred_indices",
        "_rank",
    )

    def __init__(
        self,
        csr: "CSRGraph",
        source_index: int,
        dist,
        sig,
        order_indices,
        *,
        level_edges=None,
        pred_indptr=None,
        pred_indices=None,
    ) -> None:
        self.csr = csr
        self.source_index = int(source_index)
        self.dist = dist
        self.sig = sig
        self.order_indices = order_indices
        self.level_edges = level_edges
        self._pred_indptr = pred_indptr
        self._pred_indices = pred_indices
        #: Discovery rank of every reachable vertex (see :meth:`parents_of`).
        self._rank = None

    @property
    def pred_indptr(self):
        """CSR-layout offsets of the predecessor lists (built lazily)."""
        if self._pred_indptr is None:
            self._build_predecessors()
        return self._pred_indptr

    @property
    def pred_indices(self):
        """Flat predecessor-index array matching :attr:`pred_indptr`."""
        if self._pred_indices is None:
            self._build_predecessors()
        return self._pred_indices

    def _build_predecessors(self) -> None:
        n = self.csr.number_of_vertices()
        if self.level_edges is None:
            raise RuntimeError(
                "predecessor arrays were neither recorded nor derivable; "
                "the builder must pass pred_indptr/pred_indices or level_edges"
            )
        if self.level_edges:
            parents = np.concatenate([p for p, _ in self.level_edges])
            children = np.concatenate([c for _, c in self.level_edges])
            # Stable sort by child keeps, within each child, the discovery
            # order of the parents (frontier order, then adjacency order) —
            # required for rng-identical path backtracking.
            perm = np.argsort(children, kind="stable")
            self._pred_indices = parents[perm]
            counts = np.bincount(children, minlength=n)
        else:
            self._pred_indices = np.empty(0, dtype=np.int64)
            counts = np.zeros(n, dtype=np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        self._pred_indptr = indptr

    def parents_of(self, index: int):
        """Return the predecessor-index array of vertex *index*.

        A view of the predecessor arrays once they exist.  Until then, on an
        undirected BFS-built DAG, the parents are derived on demand: the
        CSR neighbours one level closer to the source, ordered by discovery
        rank — the order :meth:`_build_predecessors`' stable sort gives, as
        each parent enters a level in that rank and, in a simple graph,
        meets a child once.
        """
        if self._pred_indices is None and self.level_edges is not None and not self.csr.directed:
            depth = self.dist[index]
            if not 0.0 < depth < np.inf:
                return np.empty(0, dtype=np.int64)
            csr = self.csr
            nbrs = csr.indices[csr.indptr[index] : csr.indptr[index + 1]]
            parents = nbrs[self.dist[nbrs] == depth - 1.0]
            if parents.size > 1:
                if self._rank is None:
                    self._rank = np.empty(csr.number_of_vertices(), dtype=np.int64)
                    self._rank[self.order_indices] = np.arange(self.order_indices.shape[0])
                parents = parents[np.argsort(self._rank[parents], kind="stable")]
            return parents
        indptr = self.pred_indptr
        return self.pred_indices[indptr[index] : indptr[index + 1]]

    def number_of_reachable(self) -> int:
        """Return how many vertices are reachable from the source."""
        return int(self.order_indices.shape[0])
