"""Uniform source-vertex sampling (Bader et al. 2007; Brandes & Pich 2007).

The simplest approximate scheme discussed in Section 3.2 of the paper:
pick source vertices uniformly at random, compute their dependency scores on
every vertex with one Brandes pass each, and scale.  It estimates the
betweenness of *all* vertices simultaneously, and restricting the read-out to
a single vertex gives the baseline the MH sampler is compared against in
benchmark E1.
"""

from __future__ import annotations

from typing import Optional

from repro._rng import RandomState, ensure_rng
from repro.errors import ConfigurationError
from repro.graphs.core import Graph, Vertex
from repro.samplers.base import (
    AllVerticesEstimator,
    ExecutionPlanMixin,
    MapEstimate,
    SingleEstimate,
    SingleVertexEstimator,
    timed,
    vertex_keyed,
)
from repro.shortest_paths.dependencies import dependencies_at_target, dependency_sum

__all__ = ["UniformSourceSampler"]


class UniformSourceSampler(ExecutionPlanMixin, SingleVertexEstimator, AllVerticesEstimator):
    """Estimate betweenness by averaging dependency scores of random sources.

    For each sampled source *s*, one Brandes pass yields
    :math:`\\delta_{s\\bullet}(v)` for every *v*; the unbiased estimator of
    the paper-normalised betweenness of *v* is the sample mean of
    :math:`\\delta_{s\\bullet}(v) / (|V| - 1)`.  Every dependency pass is a
    vectorised CSR kernel accumulated into one numpy buffer; results are
    converted back to vertex-keyed dicts only at the estimate boundary.

    Parameters
    ----------
    with_replacement:
        When ``True`` (default) sources are drawn i.i.d. uniformly; when
        ``False`` they are drawn without replacement (the Brandes–Pich
        "random k sources" variant), which caps ``num_samples`` at ``|V|``.
    n_jobs:
        Execution-engine knob (:mod:`repro.execution`).  Sources are drawn
        upfront from the caller's rng stream, then the passes run sharded
        and batched, so a fixed seed gives bit-identical results for any
        ``n_jobs``.
    """

    name = "uniform-source"

    def __init__(
        self,
        *,
        with_replacement: bool = True,
        n_jobs: Optional[int] = None,
    ) -> None:
        self.with_replacement = bool(with_replacement)
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def _sample_sources(self, graph: Graph, num_samples: int, rng) -> list:
        vertices = graph.vertices()
        if self.with_replacement:
            return [vertices[rng.randrange(len(vertices))] for _ in range(num_samples)]
        if num_samples > len(vertices):
            raise ConfigurationError(
                f"cannot draw {num_samples} sources without replacement from "
                f"{len(vertices)} vertices"
            )
        return rng.sample(vertices, num_samples)

    # ------------------------------------------------------------------
    def estimate_all(
        self,
        graph: Graph,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> MapEstimate:
        """Estimate the betweenness of every vertex from *num_samples* random sources."""
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        n = graph.number_of_vertices()
        scale = 1.0 / (num_samples * max(n - 1, 1))
        plan = self._plan()
        with timed() as clock:
            sources = self._sample_sources(graph, num_samples, rng)
            csr = graph.csr()
            buffer = dependency_sum(csr, [csr.index_of(s) for s in sources], plan)
        diagnostics = {
            "with_replacement": self.with_replacement,
            "n_jobs": plan.n_jobs,
        }
        return MapEstimate(
            estimates=vertex_keyed(csr, buffer * scale),
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Estimate ``BC(r)`` by reading a single entry of :meth:`estimate_all`.

        The work per sample is identical (one full Brandes pass); only the
        read-out is restricted, mirroring how this baseline is used when a
        caller cares about one vertex.
        """
        graph.validate_vertex(r)
        if num_samples < 1:
            raise ConfigurationError("num_samples must be at least 1")
        rng = ensure_rng(seed)
        n = graph.number_of_vertices()
        total = 0.0
        plan = self._plan()
        with timed() as clock:
            sources = self._sample_sources(graph, num_samples, rng)
            csr = graph.csr()
            for value in dependencies_at_target(
                csr, [csr.index_of(s) for s in sources], csr.index_of(r), plan
            ):
                total += value
        diagnostics = {
            "with_replacement": self.with_replacement,
            "n_jobs": plan.n_jobs,
        }
        return SingleEstimate(
            vertex=r,
            estimate=total / (num_samples * max(n - 1, 1)),
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )
