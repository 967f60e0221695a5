"""Common interfaces and result containers for approximate betweenness estimators.

Every estimator in the library — the baselines in this package and the
Metropolis-Hastings samplers in :mod:`repro.mcmc` — reports its output
through the same small dataclasses so the benchmark harness, the analysis
layer and the high-level API can treat them interchangeably.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro._rng import RandomState
from repro.execution import ExecutionPlan, resolve_plan
from repro.graphs.core import Graph, Vertex

__all__ = [
    "SingleEstimate",
    "MapEstimate",
    "SingleVertexEstimator",
    "AllVerticesEstimator",
    "ExecutionPlanMixin",
    "timed",
    "vertex_keyed",
]


class ExecutionPlanMixin:
    """Shared resolution of the execution-engine knobs.

    Estimators that accept the engine knob store it as ``self.n_jobs`` in
    their constructors (the
    per-class API surface) and call :meth:`_plan` once per estimate; unset
    knobs resolve to the plan defaults, so every estimate runs through one
    plan.  Centralised here so a change to plan resolution (a new env
    knob, say) lands in every sampler at once.  A ready ``plan`` attribute
    wins over the individual knobs: a session attaches its own resolved
    plan (persistent runtime included) that way.

    ``mp_context``, ``runtime`` and ``shared_graph`` are class-level
    defaults rather than constructor parameters: they configure *how* pools
    run (start method; per-call ephemeral vs a session's persistent
    :class:`~repro.execution.runtime.ExecutionContext`; whether the CSR
    snapshot ships as a shared-memory handle), never what is computed, so
    callers attach them to an existing sampler
    (``sampler.mp_context = "spawn"``) instead of every constructor growing
    pass-through arguments.  Samplers that
    ship themselves inside worker payloads stay safe: a runtime context
    pickles to ``None``.
    """

    plan: Optional[ExecutionPlan] = None
    n_jobs: Optional[int] = None
    mp_context: Optional[str] = None
    runtime: Optional[object] = None
    shared_graph: Optional[bool] = None

    def _plan(self) -> ExecutionPlan:
        return resolve_plan(
            self.plan,
            n_jobs=self.n_jobs,
            mp_context=self.mp_context,
            runtime=self.runtime,
            shared_graph=self.shared_graph,
        )


def vertex_keyed(csr, values) -> Dict[Vertex, float]:
    """Convert a per-index accumulation buffer into a ``{vertex: value}`` dict.

    The result boundary of the samplers in *this package*: estimators
    accumulate into numpy buffers over a
    :class:`~repro.graphs.csr.CSRGraph` and cross back to vertex labels
    once, here, when filling the result containers below.  (Other layers —
    exact, mcmc — convert at their own API boundaries via
    ``CSRGraph.array_to_vertex_map``, which this delegates to.)
    """
    return csr.array_to_vertex_map(values)


@dataclass
class SingleEstimate:
    """Approximation of the betweenness score of one vertex.

    Attributes
    ----------
    vertex:
        The target vertex *r*.
    estimate:
        The estimated betweenness score (in the "paper" normalisation unless
        the producing estimator documents otherwise).
    samples:
        Number of samples drawn (chain length T for MCMC estimators).
    elapsed_seconds:
        Wall-clock time spent producing the estimate.
    method:
        Short name of the estimator that produced the value.
    diagnostics:
        Estimator-specific extras (acceptance rate, effective sample size,
        per-sample traces, theoretical bounds, ...).
    """

    vertex: Vertex
    estimate: float
    samples: int
    elapsed_seconds: float = 0.0
    method: str = ""
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __float__(self) -> float:
        return float(self.estimate)


@dataclass
class MapEstimate:
    """Approximation of the betweenness scores of many vertices at once."""

    estimates: Dict[Vertex, float]
    samples: int
    elapsed_seconds: float = 0.0
    method: str = ""
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __getitem__(self, vertex: Vertex) -> float:
        return self.estimates[vertex]

    def restricted_to(self, vertices) -> Dict[Vertex, float]:
        """Return the estimates of the requested *vertices* only."""
        return {v: self.estimates[v] for v in vertices}


class SingleVertexEstimator(abc.ABC):
    """Interface of estimators that approximate the betweenness of one vertex."""

    #: Short identifier used in benchmark tables.
    name: str = "abstract"

    @abc.abstractmethod
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Return an approximation of ``BC(r)`` using *num_samples* samples."""


class AllVerticesEstimator(abc.ABC):
    """Interface of estimators that approximate the betweenness of every vertex."""

    name: str = "abstract"

    @abc.abstractmethod
    def estimate_all(
        self,
        graph: Graph,
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> MapEstimate:
        """Return approximations of ``BC(v)`` for every vertex using *num_samples* samples."""


class timed:
    """Tiny context manager measuring wall-clock time.

    Example
    -------
    >>> with timed() as clock:
    ...     _ = sum(range(10))
    >>> clock.elapsed >= 0.0
    True
    """

    def __enter__(self) -> "timed":
        self._start = time.perf_counter()
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = time.perf_counter() - self._start
