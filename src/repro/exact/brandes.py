"""Exact betweenness centrality via Brandes's algorithm.

Time complexity: ``O(|V||E|)`` for unweighted graphs and
``O(|V||E| + |V|^2 log |V|)`` for weighted graphs with positive weights —
the most efficient known exact method, and the reference every approximate
estimator in this library is measured against.

Normalisation conventions
-------------------------
Different papers and libraries divide the raw pair-dependency sum by
different constants.  All exact and approximate estimators in this library
accept a ``normalization`` argument with the following values:

``"paper"`` (default)
    Equation 1 of the paper: divide by ``|V| (|V| - 1)``, counting ordered
    source/target pairs.  All theorems in the paper are stated in this
    scale, and every estimator here defaults to it.
``"count"``
    The raw number of (unordered, for undirected graphs) pair dependencies
    — Freeman's original definition.
``"pairs"``
    Divide by ``(|V| - 1)(|V| - 2)`` (the number of ordered pairs excluding
    the vertex itself); this matches ``networkx.betweenness_centrality``
    with ``normalized=True`` on undirected graphs and is provided for
    cross-validation.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.errors import ConfigurationError
from repro.execution import ExecutionPlan, resolve_plan
from repro.graphs.core import Graph, Vertex
from repro.shortest_paths.dependencies import dependency_sum

__all__ = ["betweenness_centrality", "normalization_factor", "NORMALIZATIONS"]

#: The accepted normalisation names.
NORMALIZATIONS = ("paper", "count", "pairs")


def normalization_factor(n: int, normalization: str, *, directed: bool = False) -> float:
    """Return the multiplicative factor applied to the raw ordered-pair dependency sum.

    The raw quantity produced by summing Brandes dependencies over all source
    vertices counts **ordered** (s, t) pairs.  The factor returned here
    converts that raw sum into the requested convention.
    """
    if normalization not in NORMALIZATIONS:
        raise ConfigurationError(
            f"unknown normalization {normalization!r}; expected one of {NORMALIZATIONS}"
        )
    if normalization == "paper":
        if n < 2:
            return 0.0
        return 1.0 / (n * (n - 1))
    if normalization == "pairs":
        if n < 3:
            return 0.0
        return 1.0 / ((n - 1) * (n - 2))
    # "count": unordered pairs for undirected graphs, ordered for directed.
    return 1.0 if directed else 0.5


def betweenness_centrality(
    graph: Graph,
    *,
    normalization: str = "paper",
    sources: Optional[Iterable[Vertex]] = None,
    n_jobs: Optional[int] = None,
    plan: Optional[ExecutionPlan] = None,
) -> Dict[Vertex, float]:
    """Return the exact betweenness centrality of every vertex.

    Parameters
    ----------
    graph:
        Input graph (undirected or directed, unweighted or positively
        weighted).
    normalization:
        One of :data:`NORMALIZATIONS`; see the module docstring.
    sources:
        Optional restriction of the outer loop to a subset of source
        vertices.  With the default (all vertices) the result is exact; with
        a subset it is the building block of the uniform source-sampling
        baseline and of tests that check per-source contributions.
    n_jobs, plan:
        Execution-engine knobs (see :mod:`repro.execution`; an unset
        ``n_jobs`` takes the ``REPRO_JOBS`` env var, then the plan
        default): the outer source loop runs sharded — each shard one call
        into the batched CSR kernels, shards spread over ``n_jobs``
        processes, buffers merged in deterministic shard order, so the
        result is bit-identical for any ``n_jobs``.

    Returns
    -------
    dict
        ``{vertex: betweenness score}`` for every vertex of the graph (also
        the ones with score 0).
    """
    factor = normalization_factor(
        graph.number_of_vertices(), normalization, directed=graph.directed
    )
    plan = resolve_plan(plan, n_jobs=n_jobs)
    csr = graph.csr()
    if sources is None:
        source_indices = range(csr.number_of_vertices())
    else:
        source_indices = [csr.index_of(s) for s in sources]
    return csr.array_to_vertex_map(dependency_sum(csr, source_indices, plan) * factor)
