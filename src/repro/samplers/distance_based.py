"""Distance-proportional source sampling (Chehreghani 2014).

Section 3.2 / 4.1 of the paper: Chehreghani's randomized framework estimates
the betweenness of a single vertex *r* by sampling source vertices from an
arbitrary probability mass function q and averaging the importance-weighted
dependency scores

.. math::

   \\widehat{BC}(r) = \\frac{1}{T\\,|V|\\,(|V|-1)}
       \\sum_{i=1}^{T} \\frac{\\delta_{s_i\\bullet}(r)}{q(s_i)} .

The *optimal* q (zero variance) is proportional to the dependency score
itself (Equation 5) but cannot be computed without knowing the answer; the
practical proposal of that paper is the distance-based mass function
``q(s) ∝ d(r, s)``.  This module implements the general framework plus the
distance-based and uniform mass functions, so benchmark E1 can compare the
MH sampler against its direct ancestor.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError, SamplingError
from repro.graphs.core import Graph, Vertex
from repro.samplers.base import ExecutionPlanMixin, SingleEstimate, SingleVertexEstimator, timed
from repro.shortest_paths.bfs import bfs_distances_csr
from repro.shortest_paths.dependencies import dependencies_at_target
from repro.shortest_paths.dijkstra import dijkstra_distances_csr

__all__ = ["DistanceBasedSampler", "ImportanceSamplingEstimator"]


class ImportanceSamplingEstimator(ExecutionPlanMixin, SingleVertexEstimator):
    """Chehreghani's randomized framework with a pluggable source distribution.

    Parameters
    ----------
    mass_function:
        Callable ``(graph, r) -> {vertex: unnormalised probability mass}``.
        Vertices missing from the returned mapping (or with mass 0) are never
        sampled; the estimator remains unbiased as long as every vertex with
        a positive dependency score on *r* has positive mass.
    name:
        Identifier used in benchmark tables.
    n_jobs:
        Execution-engine knob (:mod:`repro.execution`).  The source
        sequence is drawn upfront (the dependency passes consume no
        randomness), then the passes run sharded and batched; for a fixed
        seed the estimate is bit-identical for any ``n_jobs``.
    """

    def __init__(
        self,
        mass_function: Callable[[Graph, Vertex], Dict[Vertex, float]],
        name: str = "importance-sampling",
        *,
        n_jobs: Optional[int] = None,
    ) -> None:
        self._mass_function = mass_function
        self.name = name
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Return the importance-weighted estimate of ``BC(r)``."""
        graph.validate_vertex(r)
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        n = graph.number_of_vertices()
        plan = self._plan()
        with timed() as clock:
            csr = graph.csr()
            masses = self._mass_function(graph, r)
            masses = {v: m for v, m in masses.items() if m > 0.0 and v != r}
            total_mass = sum(masses.values())
            if total_mass <= 0.0:
                raise SamplingError(
                    f"the source distribution for vertex {r!r} has zero total mass; "
                    "the vertex is isolated or the mass function is degenerate"
                )
            vertices = list(masses)
            weights = [masses[v] for v in vertices]
            probabilities = {v: w / total_mass for v, w in zip(vertices, weights)}
            # Draw the whole source sequence upfront (the passes consume no
            # randomness), run the passes sharded, then weight each sample.
            sources = [
                rng.choices(vertices, weights=weights, k=1)[0] for _ in range(num_samples)
            ]
            values = dependencies_at_target(
                csr, [csr.index_of(s) for s in sources], csr.index_of(r), plan
            )
            total = 0.0
            for s, delta in zip(sources, values):
                total += delta / probabilities[s]
        estimate = total / (num_samples * n * max(n - 1, 1))
        diagnostics: Dict[str, object] = {
            "support_size": len(vertices),
            "n_jobs": plan.n_jobs,
        }
        return SingleEstimate(
            vertex=r,
            estimate=estimate,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )


def _distance_mass(graph: Graph, r: Vertex) -> Dict[Vertex, float]:
    """Return the distance-proportional mass function ``q(s) ∝ d(r, s)``.

    The dict comes out in traversal discovery order — BFS level order when
    unweighted, Dijkstra settle order when weighted — which is the
    candidate ordering ``rng.choices`` consumes.
    """
    csr = graph.csr()
    r_index = csr.index_of(r)
    if graph.weighted:
        dist, order = dijkstra_distances_csr(csr, r_index)
    else:
        dist, order = bfs_distances_csr(csr, r_index)
    vertex_at = csr.vertex_at
    return {vertex_at(i): float(dist[i]) for i in order.tolist() if i != r_index}


def _uniform_mass(graph: Graph, r: Vertex) -> Dict[Vertex, float]:
    """Return the uniform mass function over ``V(G) \\ {r}``."""
    return {v: 1.0 for v in graph.vertices() if v != r}


class DistanceBasedSampler(ImportanceSamplingEstimator):
    """The distance-based source sampler of Chehreghani (2014).

    Source vertices are drawn with probability proportional to their distance
    from the target vertex *r* — an easily computable surrogate for the
    optimal (dependency-proportional) distribution of Equation 5.
    """

    def __init__(
        self,
        *,
        uniform: bool = False,
        n_jobs: Optional[int] = None,
    ) -> None:
        if uniform:
            super().__init__(
                _uniform_mass,
                name="uniform-importance",
                n_jobs=n_jobs,
            )
        else:
            super().__init__(
                _distance_mass,
                name="distance-based",
                n_jobs=n_jobs,
            )
