"""The zero-dependency screen: sources whose dependency on a target is provably 0.

By Brandes' recursion, :math:`\\delta_{s\\bullet}(c)` is a sum over the
children of *c* in the shortest-path DAG rooted at *s*, and every term is
positive, so it is zero exactly when *c* has no child there.  On an
unweighted, undirected graph a neighbour *w* of *c* is a child iff
``d(s, w) = d(s, c) + 1``, and ``|d(s, w) − d(s, c)| ≤ 1`` for every
neighbour, so

.. math::

   \\delta_{s\\bullet}(c) = 0 \\iff \\max_{w \\in N(c)} d(w, s) \\le d(c, s),

with ``inf ≤ inf`` for an *s* that cannot reach *c* (its row is 0.0 at
*c*) and the empty maximum for an isolated *c*.  One distance pass from *c*
and from each of its neighbours
(:func:`~repro.shortest_paths.batch.bfs_distances_batch_csr`; distances
*from* them are distances *to* them on an undirected graph) therefore
decides every source at once.  The root
is screened too: a row's own entry is 0.0 by definition.

The screen returns where a dependency row would hold ``+0.0``, bit for bit,
never a value: :class:`~repro.mcmc.estimates.DependencyOracle` writes 0.0
for the sources it screens instead of running their Brandes passes.
Weighted and directed snapshots have no such cheap test and are refused.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.graphs.csr import np
from repro.shortest_paths.batch import bfs_distances_batch_csr, source_blocks

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = ["zero_dependency_sources", "screen_sources"]


def screen_sources(csr: "CSRGraph", columns: Sequence[int]) -> int:
    """Return how many distance passes screening *columns* costs: Σ (deg(c) + 1)."""
    indptr = csr.indptr
    return sum(int(indptr[c + 1] - indptr[c]) + 1 for c in set(np.asarray(columns).tolist()))


def zero_dependency_sources(csr: "CSRGraph", columns: Sequence[int]):
    """Return the ``bool`` mask of sources *s* with δ_{s·}(c) = 0 for every column *c*.

    *csr* must be unweighted and undirected (``ValueError`` otherwise).
    Each column's passes (:func:`screen_sources`) run in the kernel
    layer's blocks (:func:`~repro.shortest_paths.batch.source_blocks`),
    so the working set stays one block of distance rows however high the
    degree.
    """
    if csr.weighted or csr.directed:
        raise ValueError("the zero-dependency screen needs an unweighted, undirected snapshot")
    n = csr.number_of_vertices()
    zero = np.ones(n, dtype=bool)
    for c in np.unique(np.asarray(columns, dtype=np.intp)).tolist():
        # The column first, then its neighbours: the first block's row 0
        # holds d(c, ·).
        rows = np.concatenate(([c], csr.indices[csr.indptr[c] : csr.indptr[c + 1]]))
        own = farthest = None
        for begin, end in source_blocks(csr, len(rows)):
            dist = bfs_distances_batch_csr(csr, rows[begin:end])
            if begin == 0:
                own, dist = dist[0], dist[1:]
            if len(dist):
                block = dist.max(axis=0)
                farthest = block if farthest is None else np.maximum(farthest, block)
        if farthest is not None:
            here = farthest <= own
            here[c] = True
            zero &= here
            if not zero.any():
                break
    return zero
