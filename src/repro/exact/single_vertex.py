"""Exact betweenness of a single vertex, and exact dependency-score vectors.

The paper's first problem (Section 1) is estimating the betweenness of one
given vertex *r*.  Its exact value is the normalised sum of the dependency
scores of every source on *r* (Equation 3); computing it costs one SPD per
source, i.e. the same ``O(|V||E|)`` as full Brandes.  The exact value is
used as ground truth throughout the test-suite and the benchmark harness.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

from repro.execution import ExecutionPlan
from repro.graphs.core import Graph, Vertex
from repro.exact.brandes import normalization_factor
from repro.shortest_paths.dependencies import all_dependencies_on_target

__all__ = [
    "betweenness_of_vertex",
    "betweenness_of_vertices",
    "dependency_vector",
    "exact_relative_betweenness",
    "exact_stationary_relative_betweenness",
    "exact_betweenness_ratio",
]


def dependency_vector(
    graph: Graph,
    r: Vertex,
    *,
    n_jobs: Optional[int] = None,
    plan: Optional["ExecutionPlan"] = None,
) -> Dict[Vertex, float]:
    """Return ``{v: delta_{v.}(r)}`` — the unnormalised MH target distribution of Eq. 5.

    ``n_jobs`` / ``plan`` configure the sharded execution
    engine that runs the |V| Brandes passes (see :mod:`repro.execution`).
    """
    return all_dependencies_on_target(graph, r, n_jobs=n_jobs, plan=plan)


def betweenness_of_vertex(
    graph: Graph,
    r: Vertex,
    *,
    normalization: str = "paper",
    n_jobs: Optional[int] = None,
    plan: Optional["ExecutionPlan"] = None,
) -> float:
    """Return the exact betweenness score of vertex *r*.

    Equivalent to ``betweenness_centrality(graph)[r]`` but phrased as the
    sum the sampling algorithms approximate, so the tests can compare both
    routes.  ``n_jobs`` / ``plan`` configure the execution
    engine that runs the |V| dependency passes.
    """
    deltas = dependency_vector(graph, r, n_jobs=n_jobs, plan=plan)
    raw = sum(deltas.values())
    factor = normalization_factor(
        graph.number_of_vertices(), normalization, directed=graph.directed
    )
    return raw * factor


def betweenness_of_vertices(
    graph: Graph,
    targets: Iterable[Vertex],
    *,
    normalization: str = "paper",
    n_jobs: Optional[int] = None,
) -> Dict[Vertex, float]:
    """Return the exact betweenness of each vertex in *targets*."""
    return {
        r: betweenness_of_vertex(
            graph,
            r,
            normalization=normalization,
            n_jobs=n_jobs,
        )
        for r in targets
    }


def exact_betweenness_ratio(graph: Graph, ri: Vertex, rj: Vertex) -> float:
    """Return the exact ratio ``BC(ri) / BC(rj)``.

    Raises
    ------
    ZeroDivisionError
        If ``BC(rj)`` is exactly zero; callers in the benchmark harness pick
        reference vertices with positive betweenness.
    """
    bc_i = betweenness_of_vertex(graph, ri)
    bc_j = betweenness_of_vertex(graph, rj)
    return bc_i / bc_j


def exact_relative_betweenness(graph: Graph, ri: Vertex, rj: Vertex) -> float:
    """Return the exact relative betweenness score ``BC_rj(ri)`` of Equation 23.

    .. math::

       BC_{r_j}(r_i) = \\frac{1}{|V(G)|} \\sum_{v \\in V(G)}
           \\min\\left\\{1, \\frac{\\delta_{v\\bullet}(r_i)}{\\delta_{v\\bullet}(r_j)}\\right\\}

    Following the paper's joint-space construction, a source *v* with
    :math:`\\delta_{v\\bullet}(r_j) = 0` cannot appear in the chain restricted
    to :math:`r_j` (its stationary probability is zero), and the min-ratio it
    would contribute is taken as 1 when :math:`\\delta_{v\\bullet}(r_i) > 0`
    and 0 when both dependencies vanish.
    """
    graph.validate_vertex(ri)
    graph.validate_vertex(rj)
    deltas_i = dependency_vector(graph, ri)
    deltas_j = dependency_vector(graph, rj)
    n = graph.number_of_vertices()
    if n == 0:
        return 0.0
    total = 0.0
    for v in graph.vertices():
        di = deltas_i.get(v, 0.0)
        dj = deltas_j.get(v, 0.0)
        if dj > 0.0:
            total += min(1.0, di / dj)
        elif di > 0.0:
            total += 1.0
        # both zero: contributes 0
    return total / n


def exact_stationary_relative_betweenness(graph: Graph, ri: Vertex, rj: Vertex) -> float:
    """Return the expectation the joint-space chain's relative estimator converges to.

    .. math::

       E_{P_{r_j}}\\Bigl[\\min\\Bigl\\{1,
           \\frac{\\delta_{v\\bullet}(r_i)}{\\delta_{v\\bullet}(r_j)}\\Bigr\\}\\Bigr]
       = \\frac{\\sum_v \\min\\{\\delta_{v\\bullet}(r_i), \\delta_{v\\bullet}(r_j)\\}}
              {\\sum_v \\delta_{v\\bullet}(r_j)}

    **Reproduction note.**  Equation 23 of the paper defines the relative
    betweenness score as the *uniform* average over sources, but the samples
    of the joint-space chain restricted to ``r_j`` are distributed according
    to Equation 5 (``P_{r_j}``), so the Equation 22 numerator converges to
    *this* quantity instead.  The two coincide when the dependency scores on
    ``r_j`` are flat (µ(r_j) = 1).  Theorem 3 — the ratio identity — holds
    exactly for the stationary expectations, which is why the ratio estimator
    remains consistent even when the two averages differ.

    Raises
    ------
    ZeroDivisionError
        If ``BC(rj)`` is exactly zero (the chain restricted to r_j is
        degenerate).
    """
    graph.validate_vertex(ri)
    graph.validate_vertex(rj)
    deltas_i = dependency_vector(graph, ri)
    deltas_j = dependency_vector(graph, rj)
    denominator = sum(deltas_j.values())
    numerator = sum(
        min(deltas_i.get(v, 0.0), deltas_j.get(v, 0.0)) for v in graph.vertices()
    )
    return numerator / denominator
