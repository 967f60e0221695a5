"""High-level, one-call estimation API.

This is the façade most users should interact with: pick a method by name,
hand over a graph, get back a result object that bundles the estimate with
its diagnostics and (for the MCMC methods) the theoretical accuracy
quantities of the paper.

Example
-------
>>> from repro.graphs import barbell_graph
>>> from repro.centrality import betweenness_single
>>> g = barbell_graph(6, 2)
>>> bridge = 6  # first bridge vertex
>>> result = betweenness_single(g, bridge, method="mh", samples=200, seed=7)
>>> 0.0 < result.estimate < 1.0
True
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Union

from repro._rng import RandomState
from repro.errors import ConfigurationError
from repro.exact.brandes import betweenness_centrality
from repro.exact.single_vertex import (
    betweenness_of_vertex,
    exact_relative_betweenness,
)
from repro.execution.autotune import calibrate_n_jobs
from repro.graphs.core import Graph, Vertex
from repro.graphs.utils import ensure_connected
from repro.mcmc.bounds import epsilon_for_samples, mu_statistics, required_samples
from repro.mcmc.joint import JointSpaceMHSampler, RelativeBetweennessEstimate
from repro.mcmc.multichain import MultiChainJointSampler, MultiChainMHSampler
from repro.mcmc.single import SingleSpaceMHSampler
from repro.samplers.base import SingleEstimate
from repro.samplers.distance_based import DistanceBasedSampler
from repro.samplers.kadabra import KadabraSampler
from repro.samplers.riondato_kornaropoulos import RiondatoKornaropoulosSampler
from repro.samplers.uniform_source import UniformSourceSampler

__all__ = [
    "SINGLE_VERTEX_METHODS",
    "MCMC_SINGLE_METHODS",
    "DEFAULT_CHAINS",
    "BetweennessSession",
    "betweenness_single",
    "betweenness_exact",
    "relative_betweenness",
    "betweenness_ranking",
    "suggested_chain_length",
]


def __getattr__(name):
    # Lazy re-export: the session module builds on this one, so importing
    # it eagerly here would be circular.  ``from repro.centrality.api
    # import BetweennessSession`` still works (PEP 562).
    if name == "BetweennessSession":
        from repro.centrality.session import BetweennessSession

        return BetweennessSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

#: Chains the multi-chain driver runs when only ``rhat_target`` was given.
DEFAULT_CHAINS = 4

#: Worker-count specification: an int, ``None`` (the ``REPRO_JOBS`` default,
#: inline) or ``"auto"`` (calibrated from a timed probe over real pool
#: spin-ups).
Jobs = Union[int, str, None]


def _resolve_n_jobs(graph: Graph, n_jobs: Jobs, workload: Optional[int] = None):
    """Resolve ``"auto"`` to a calibrated worker count at the point the graph is known.

    The engine's sharded discipline is n_jobs-invariant, so the timed
    choice can never change an estimate.  *workload* scales the probe down
    for small jobs (a cruder, noisier probe is the right trade there).
    """
    if n_jobs == "auto":
        probe_sources = 64 if workload is None else max(8, min(64, workload // 8))
        return calibrate_n_jobs(graph, probe_sources=probe_sources)
    return n_jobs


#: Estimator registry for :func:`betweenness_single`.  Every factory accepts
#: the execution-engine knob ``n_jobs`` (see :mod:`repro.execution`);
#: calling one with no argument leaves it to the ``REPRO_JOBS`` env
#: override and the plan default.
SINGLE_VERTEX_METHODS = {
    "mh": lambda n_jobs=None: SingleSpaceMHSampler(n_jobs=n_jobs),
    "mh-unbiased": lambda n_jobs=None: SingleSpaceMHSampler(
        estimator="proposal", n_jobs=n_jobs
    ),
    "mh-degree": lambda n_jobs=None: SingleSpaceMHSampler(proposal="degree", n_jobs=n_jobs),
    "mh-random-walk": lambda n_jobs=None: SingleSpaceMHSampler(
        proposal="random-walk", n_jobs=n_jobs
    ),
    "uniform-source": lambda n_jobs=None: UniformSourceSampler(n_jobs=n_jobs),
    "distance": lambda n_jobs=None: DistanceBasedSampler(n_jobs=n_jobs),
    "rk": lambda n_jobs=None: RiondatoKornaropoulosSampler(n_jobs=n_jobs),
    "kadabra": lambda n_jobs=None: KadabraSampler(n_jobs=n_jobs),
}

#: The methods the multi-chain driver (``n_chains`` / ``rhat_target``) can
#: wrap: the Metropolis-Hastings single-vertex samplers.  The baselines draw
#: i.i.d. samples — there is no chain to multiply — and already parallelise
#: over sources through the execution engine.
MCMC_SINGLE_METHODS = ("mh", "mh-unbiased", "mh-degree", "mh-random-walk")


def betweenness_single(
    graph: Graph,
    r: Vertex,
    *,
    method: str = "mh",
    samples: int = 200,
    seed: RandomState = None,
    check_connected: bool = True,
    n_jobs: Jobs = None,
    n_chains: Optional[int] = None,
    rhat_target: Optional[float] = None,
    shared_cache: Optional[bool] = None,
) -> SingleEstimate:
    """Estimate the betweenness of one vertex with the chosen *method*.

    Parameters
    ----------
    graph:
        Connected input graph (the paper's standing assumption; disable the
        check with ``check_connected=False`` if you know what you are doing).
    r:
        The target vertex.
    method:
        One of :data:`SINGLE_VERTEX_METHODS`: ``"mh"`` (the paper's sampler,
        default), ``"mh-degree"`` / ``"mh-random-walk"`` (proposal ablations),
        ``"uniform-source"``, ``"distance"``, ``"rk"`` or ``"kadabra"``.
    samples:
        Chain length (MCMC methods) or number of samples (baselines).
    seed:
        Randomness specification.
    n_jobs:
        Execution-engine knob (:mod:`repro.execution`): worker processes
        for the sharded source loop.  Results are deterministic — identical
        for any ``n_jobs``, set or unset, at a fixed seed — per the
        estimator-specific notes on each sampler class.  How many sources
        one batched CSR traversal takes is the kernels' choice, not a knob
        (:func:`repro.shortest_paths.batch.source_blocks`).  ``n_jobs``
        also accepts ``"auto"``
        (:func:`repro.execution.calibrate_n_jobs`): the worker count is
        probed with real pool spin-ups; the sharded discipline is
        n_jobs-invariant, so the timing-chosen count can never change the
        estimate either.
    n_chains, rhat_target:
        Engage the multi-chain MCMC driver
        (:class:`repro.mcmc.multichain.MultiChainMHSampler`) for the MH
        methods: *samples* becomes a total budget split over ``n_chains``
        independent chains (per-chain rng streams, executed across
        ``n_jobs`` worker processes, pooled with a deterministic ordered
        reduce), and ``rhat_target`` optionally adds split-R̂-driven
        adaptive burn-in and early stopping.  ``rhat_target`` alone implies
        ``n_chains=DEFAULT_CHAINS``.  ``n_chains=1`` reproduces the
        single-chain sampler bit for bit.  Rejected for the non-MCMC
        baselines, which have no chain to multiply.
    shared_cache:
        Share one cross-process dependency-vector arena across the
        multi-chain driver's worker processes
        (:mod:`repro.execution.shared_cache`): a Brandes pass paid by any
        worker becomes a cache hit for every chain, and the estimate is
        bit-identical to the private-cache run.  Requires the multi-chain
        driver (``n_chains`` / ``rhat_target``); ``None`` consults the
        ``REPRO_SHARED_CACHE`` environment override.
    """
    if method not in SINGLE_VERTEX_METHODS:
        raise ConfigurationError(
            f"unknown method {method!r}; expected one of {sorted(SINGLE_VERTEX_METHODS)}"
        )
    multichain = n_chains is not None or rhat_target is not None
    if multichain and method not in MCMC_SINGLE_METHODS:
        raise ConfigurationError(
            f"n_chains / rhat_target apply to the MCMC methods "
            f"{sorted(MCMC_SINGLE_METHODS)} only; got {method!r}"
        )
    if shared_cache and not multichain:
        raise ConfigurationError(
            "shared_cache shares a dependency arena across the multi-chain "
            "driver's worker processes; pass n_chains (or rhat_target) to "
            "engage it"
        )
    if check_connected:
        ensure_connected(graph)
    if multichain:
        # The driver owns n_jobs (chains are the unit of parallel work); the
        # base sampler keeps batch-prefetching its own proposals.  An "auto"
        # worker count is capped at the chain count — extra workers would
        # idle, and the probe times per-source sharding, not chain fan-out.
        chains = n_chains if n_chains is not None else DEFAULT_CHAINS
        if n_jobs == "auto":
            n_jobs = min(_resolve_n_jobs(graph, n_jobs, workload=samples), chains)
        base = SINGLE_VERTEX_METHODS[method]()
        driver = MultiChainMHSampler(
            base,
            n_chains=chains,
            rhat_target=rhat_target,
            n_jobs=n_jobs,
            shared_cache=shared_cache,
        )
        return driver.estimate(graph, r, samples, seed=seed)
    n_jobs = _resolve_n_jobs(graph, n_jobs, workload=samples)
    estimator = SINGLE_VERTEX_METHODS[method](n_jobs)
    return estimator.estimate(graph, r, samples, seed=seed)


def betweenness_exact(
    graph: Graph,
    vertices: Optional[Iterable[Vertex]] = None,
    *,
    normalization: str = "paper",
    n_jobs: Jobs = None,
) -> Dict[Vertex, float]:
    """Return exact betweenness scores (all vertices, or just the requested ones).

    ``n_jobs`` configures the sharded execution engine that runs the
    per-source Brandes passes (see :mod:`repro.execution`); ``"auto"``
    calibrates it from a timed probe (bit-identical results for any
    resolved value).
    """
    passes = graph.number_of_vertices() if vertices is None else None
    n_jobs = _resolve_n_jobs(graph, n_jobs, workload=passes)
    if vertices is None:
        return betweenness_centrality(graph, normalization=normalization, n_jobs=n_jobs)
    return {
        v: betweenness_of_vertex(graph, v, normalization=normalization, n_jobs=n_jobs)
        for v in vertices
    }


def relative_betweenness(
    graph: Graph,
    reference_set: Sequence[Vertex],
    *,
    samples: int = 1000,
    seed: RandomState = None,
    check_connected: bool = True,
    n_jobs: Jobs = None,
    n_chains: Optional[int] = None,
    shared_cache: Optional[bool] = None,
) -> RelativeBetweennessEstimate:
    """Estimate all pairwise relative betweenness scores of *reference_set*.

    Runs the joint-space Metropolis-Hastings sampler of Section 4.3 and
    returns the Equation 22/23 estimates plus chain diagnostics.
    ``n_chains`` splits *samples* over
    that many independent joint chains run across ``n_jobs`` worker
    processes and pools the per-chain multisets
    (:class:`~repro.mcmc.multichain.MultiChainJointSampler`); ``n_chains=1``
    reproduces the single-chain sampler bit for bit.  ``shared_cache``
    shares one cross-process dependency arena across the driver's worker
    processes (multi-chain only; estimates are bit-identical either way).
    """
    if shared_cache and n_chains is None:
        raise ConfigurationError(
            "shared_cache shares a dependency arena across the multi-chain "
            "driver's worker processes; pass n_chains to engage it"
        )
    if check_connected:
        ensure_connected(graph)
    if n_chains is not None:
        if n_jobs == "auto":
            n_jobs = min(_resolve_n_jobs(graph, n_jobs, workload=samples), n_chains)
        driver = MultiChainJointSampler(
            JointSpaceMHSampler(),
            n_chains=n_chains,
            n_jobs=n_jobs,
            shared_cache=shared_cache,
        )
        return driver.estimate_relative(graph, reference_set, samples, seed=seed)
    n_jobs = _resolve_n_jobs(graph, n_jobs, workload=samples)
    sampler = JointSpaceMHSampler(n_jobs=n_jobs)
    return sampler.estimate_relative(graph, reference_set, samples, seed=seed)


def betweenness_ranking(
    graph: Graph,
    reference_set: Sequence[Vertex],
    *,
    samples: int = 1000,
    seed: RandomState = None,
) -> Dict[str, object]:
    """Rank the vertices of *reference_set* by (estimated) betweenness.

    Returns a dictionary with the estimated ranking, the exact ranking (for
    verification on graphs small enough to afford it, computed lazily only
    when requested through the returned callable) and the raw estimate
    object.
    """
    estimate = relative_betweenness(graph, reference_set, samples=samples, seed=seed)
    ranking = estimate.ranking()
    return {
        "ranking": ranking,
        "estimate": estimate,
        "exact_ranking": lambda: sorted(
            reference_set,
            key=lambda v: betweenness_of_vertex(graph, v),
            reverse=True,
        ),
    }


def suggested_chain_length(
    graph: Graph,
    r: Vertex,
    *,
    epsilon: float = 0.05,
    delta: float = 0.1,
) -> Dict[str, float]:
    """Return the Equation 14 chain length for the requested accuracy, plus µ(r).

    This performs an exact Brandes sweep to compute µ(r), so it is meant for
    analysis and benchmarking, not for production estimation (where one would
    bound µ(r) structurally, e.g. through Theorem 2).
    """
    stats = mu_statistics(graph, r)
    samples = required_samples(epsilon, delta, stats.mu)
    return {
        "mu": stats.mu,
        "required_samples": float(samples),
        "epsilon": epsilon,
        "delta": delta,
        "achievable_epsilon_at_required": epsilon_for_samples(samples, delta, stats.mu),
    }
