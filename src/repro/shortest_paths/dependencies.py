"""Brandes dependency accumulation.

The *dependency score* of a source vertex *s* on a vertex *v* is

.. math::

   \\delta_{s\\bullet}(v) = \\sum_{t \\in V(G) \\setminus \\{v, s\\}}
                             \\frac{\\sigma_{st}(v)}{\\sigma_{st}},

computed for all *v* at once from the SPD rooted at *s* with the recursion
of Brandes (Equation 4 of the paper).  Dependency scores are the currency of
this library: the exact algorithm sums them over all sources, the optimal
sampler of Chehreghani (2014) is proportional to them, and the
Metropolis-Hastings acceptance ratio is a ratio of two of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.graphs.core import Graph, Vertex
from repro.graphs.csr import np
from repro.execution.plan import ExecutionPlan, resolve_plan
from repro.execution.runtime import interned_payload
from repro.execution.scheduler import merge_ordered, run_sharded, split_shards
from repro.shortest_paths.bfs import (
    _accumulate_levels,
    bfs_source_dependencies_csr,
    bfs_spd_csr,
)
from repro.shortest_paths.dijkstra import (
    _source_sweep,
    dijkstra_source_dependencies_csr,
    dijkstra_spd_csr,
)
from repro.shortest_paths.spd import CSRShortestPathDAG

if TYPE_CHECKING:  # pragma: no cover
    from repro.graphs.csr import CSRGraph

__all__ = [
    "all_dependencies_on_target",
    "csr_spd_builder",
    "accumulate_dependencies_csr",
    "csr_source_dependencies",
    "csr_edge_dependency",
    "dependency_sum",
    "dependencies_at_target",
    "dependency_sum_shard_csr",
    "dependency_at_target_shard_csr",
]


def csr_spd_builder(csr: "CSRGraph") -> Callable[["CSRGraph", int], CSRShortestPathDAG]:
    """Return the CSR SPD construction kernel appropriate for *csr*."""
    return dijkstra_spd_csr if csr.weighted else bfs_spd_csr


def all_dependencies_on_target(
    graph: Graph,
    target: Vertex,
    *,
    n_jobs: Optional[int] = None,
    plan: Optional[ExecutionPlan] = None,
) -> Dict[Vertex, float]:
    """Return ``{v: delta_{v.}(target)}`` for every vertex *v* of *graph*.

    This is the full (unnormalised) Metropolis-Hastings target distribution
    of Equation 5.  It costs one SPD per vertex (``O(|V||E|)`` total) and is
    used by the exact single-vertex algorithm, by the optimal sampler, and by
    the analysis layer to compute :math:`\\mu(r)` exactly.  Every pass runs
    on the vectorised CSR kernels; the result is converted back to a
    vertex-keyed dict only at this boundary.

    The passes run through the execution engine of :mod:`repro.execution`
    (``n_jobs`` or a ready-made *plan*, see
    :func:`dependencies_at_target`), so the result is identical for any
    ``n_jobs``.
    """
    graph.validate_vertex(target)
    plan = resolve_plan(plan, n_jobs=n_jobs)
    csr = graph.csr()
    values = dependencies_at_target(
        csr, range(csr.number_of_vertices()), csr.index_of(target), plan
    )
    return dict(zip(csr.vertices, values))


def dependency_sum(csr: "CSRGraph", sources: Sequence[int], plan: ExecutionPlan):
    """Return the summed dependency vector of the source indices *sources*.

    The engine recipe behind exact Brandes and the uniform-source sampler:
    the sources are cut into fixed shards (:func:`split_shards`), each
    shard goes whole to the batched kernels (which choose their own block
    widths) on up to ``plan.n_jobs`` processes, and shard buffers merge in
    shard order — bit-identical for any ``n_jobs``.  The payload is
    interned per snapshot, so a persistent pool ships
    the CSR arrays to its workers once per session, not per request.
    """
    if not len(sources):
        return np.zeros(csr.number_of_vertices())
    return merge_ordered(
        run_sharded(
            dependency_sum_shard_csr,
            split_shards(sources),
            n_jobs=plan.n_jobs,
            plan=plan,
            shared=interned_payload(
                plan,
                ("dep-sum-csr", id(csr)),
                lambda: csr,
            ),
        )
    )


def dependencies_at_target(
    csr: "CSRGraph", sources: Sequence[int], target: int, plan: ExecutionPlan
) -> List[float]:
    """Return ``delta_{s.}(target)`` for every source index in *sources*, in order.

    The per-source twin of :func:`dependency_sum` (same shards and payload
    interning; one interned payload per target as well, so a
    persistent pool re-ships nothing for repeated targets).  A source equal
    to *target* reads 0.
    """
    if not len(sources):
        return []
    return merge_ordered(
        run_sharded(
            dependency_at_target_shard_csr,
            split_shards(sources),
            n_jobs=plan.n_jobs,
            plan=plan,
            shared=interned_payload(
                plan,
                ("dep-at-target-csr", id(csr), target),
                lambda: (csr, target),
            ),
        )
    )


# ----------------------------------------------------------------------
# Shard workers (module-level so the multiprocessing pool can pickle them)
# ----------------------------------------------------------------------
def dependency_sum_shard_csr(shared, shard):
    """Shard worker: sum the dependency vectors of the shard's source indices.

    ``shared`` is the CSR snapshot.  The whole shard goes to the batched
    kernels in one call, streamed block by block, and the sum follows the
    canonical accumulation order (one vector addition per source, in shard
    order), so the buffer is bit-identical however the kernels block the
    sources.
    """
    csr = shared
    from repro.shortest_paths.batch import batch_source_dependencies

    out = np.zeros(csr.number_of_vertices())
    batch_source_dependencies(csr, shard, out=out, sink=_discard)
    return out


def _discard(begin, rows) -> None:
    """A block sink that keeps nothing (the rows already went into ``out``)."""


def dependency_at_target_shard_csr(shared, shard) -> List[float]:
    """Shard worker: per-source dependency on one target index.

    ``shared`` is ``(csr, target_index)``; returns one float per shard
    source, in shard order.  A source equal to the target reads its own
    delta entry, which is 0 by construction.
    """
    csr, target_index = shared
    from repro.shortest_paths.batch import batch_source_dependencies

    values: List[float] = []
    batch_source_dependencies(
        csr,
        shard,
        sink=lambda begin, rows: values.extend(rows[:, target_index].tolist()),
    )
    return values


# ----------------------------------------------------------------------
# CSR kernels
# ----------------------------------------------------------------------
def accumulate_dependencies_csr(spd: CSRShortestPathDAG):
    """Return the dependency array ``delta`` for the source of *spd*.

    ``delta[i]`` is :math:`\\delta_{s\\bullet}(v_i)` with ``delta[source] =
    0``, by the Brandes recursion (Equation 4).  BFS-built DAGs
    carry their edges grouped by level, so the Brandes recursion runs one
    vectorised pass per level (every child of level ``L + 1`` has its final
    delta before the level-``L`` edges are processed).  Dijkstra-built DAGs
    have no levels: the sweep runs per parent in reverse settle order over
    the DAG children (:mod:`repro.shortest_paths.dijkstra`).  Both compute
    the one Brandes arithmetic, as does every fused and batched pass.
    """
    if spd.level_edges is None:
        return _source_sweep(spd.csr, spd.dist, spd.order_indices.tolist())[1]
    delta = _accumulate_levels(spd.sig, spd.level_edges, spd.csr.number_of_vertices())
    delta[spd.source_index] = 0.0
    return delta


def csr_source_dependencies(csr: "CSRGraph", source: int):
    """Return the dependency array of vertex index *source* (build + accumulate).

    The whole pass runs as one fused call (BFS or Dijkstra wave +
    back-propagation without materialising the DAG):
    :func:`~repro.shortest_paths.bfs.bfs_source_dependencies_csr` /
    :func:`~repro.shortest_paths.dijkstra.dijkstra_source_dependencies_csr`,
    bitwise identical to build-then-accumulate.
    """
    if csr.weighted:
        return dijkstra_source_dependencies_csr(csr, source)
    return bfs_source_dependencies_csr(csr, source)


def csr_edge_dependency(spd: CSRShortestPathDAG, a: int, b: int) -> float:
    """Return the dependency of the source of *spd* on the undirected edge ``{a, b}``.

    Sums the contributions of both possible DAG orientations: an
    orientation ``(v, w)`` contributes ``sigma[v] / sigma[w] * (1 +
    delta[w])`` when ``v`` is a DAG predecessor of ``w``.
    """
    delta = accumulate_dependencies_csr(spd)
    sig = spd.sig
    total = 0.0
    for v, w in ((a, b), (b, a)):
        if sig[w] > 0.0 and v in spd.parents_of(w):
            total += float(sig[v] / sig[w] * (1.0 + delta[w]))
    return total
