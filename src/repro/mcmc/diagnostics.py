"""Convergence diagnostics for the Metropolis-Hastings chains.

The paper's guarantees (Theorems 1 and 4) are non-asymptotic and hold
without burn-in, but practitioners still want to *see* that a chain is
healthy.  This module provides the standard MCMC diagnostics used by
benchmark E7 and by the examples:

* acceptance rate (already on the chain results; re-exported here for
  completeness of the diagnostics report);
* autocorrelation and effective sample size of the dependency trace;
* the Geweke z-score comparing the first and last portions of the trace;
* total-variation distance between the empirical visit distribution and the
  exact stationary distribution of Equation 5 (small graphs only, since the
  exact distribution needs a full Brandes sweep);
* cross-chain convergence statistics for the multi-chain driver of
  :mod:`repro.mcmc.multichain`: the Gelman–Rubin potential scale reduction
  factor (:func:`gelman_rubin`), its split-chain variant
  (:func:`split_rhat`, which also diagnoses a *single* chain by comparing
  its halves) and the pooled effective sample size
  (:func:`multichain_ess`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.graphs.core import Graph, Vertex
from repro.mcmc.single import ChainResult
from repro.shortest_paths.dependencies import all_dependencies_on_target

__all__ = [
    "autocorrelation",
    "effective_sample_size",
    "geweke_z_score",
    "total_variation_distance",
    "stationary_distribution",
    "empirical_vs_stationary",
    "ChainDiagnostics",
    "diagnose_chain",
    "gelman_rubin",
    "split_rhat",
    "multichain_ess",
    "MultiChainDiagnostics",
    "diagnose_chains",
]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _variance(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mean = _mean(values)
    return sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def autocorrelation(trace: Sequence[float], lag: int) -> float:
    """Return the lag-*lag* autocorrelation of *trace* (0 when undefined)."""
    if lag < 0:
        raise ConfigurationError("lag must be non-negative")
    n = len(trace)
    if lag >= n or n < 2:
        return 0.0
    mean = _mean(trace)
    denominator = sum((v - mean) ** 2 for v in trace)
    if denominator == 0.0:
        return 0.0
    numerator = sum((trace[i] - mean) * (trace[i + lag] - mean) for i in range(n - lag))
    return numerator / denominator


def effective_sample_size(trace: Sequence[float], max_lag: Optional[int] = None) -> float:
    """Return the effective sample size of *trace*.

    Uses the initial-positive-sequence truncation: autocorrelations are
    summed until the first non-positive value.  A constant trace is reported
    as having an effective size equal to its length (there is nothing left to
    mix).
    """
    n = len(trace)
    if n == 0:
        return 0.0
    if _variance(trace) == 0.0:
        return float(n)
    if max_lag is None:
        max_lag = min(n - 1, 1000)
    rho_sum = 0.0
    for lag in range(1, max_lag + 1):
        rho = autocorrelation(trace, lag)
        if rho <= 0.0:
            break
        rho_sum += rho
    return n / (1.0 + 2.0 * rho_sum)


def geweke_z_score(
    trace: Sequence[float], first_fraction: float = 0.1, last_fraction: float = 0.5
) -> float:
    """Return the Geweke convergence z-score of *trace*.

    Compares the mean of the first ``first_fraction`` of the trace against
    the mean of the last ``last_fraction``; values within ±2 indicate the two
    segments are statistically compatible.  Each segment's variance of the
    mean is its sample variance over its :func:`effective_sample_size` (the
    spectral density at zero, estimated with the initial-positive-sequence
    truncation), so an autocorrelated but stationary chain is not flagged.
    """
    if not 0.0 < first_fraction < 1.0 or not 0.0 < last_fraction < 1.0:
        raise ConfigurationError("fractions must lie strictly between 0 and 1")
    if first_fraction + last_fraction > 1.0:
        raise ConfigurationError("the two fractions must not overlap")
    n = len(trace)
    if n < 4:
        return 0.0
    first = trace[: max(int(n * first_fraction), 1)]
    last = trace[-max(int(n * last_fraction), 1) :]
    var_first = _variance(first) / effective_sample_size(first)
    var_last = _variance(last) / effective_sample_size(last)
    spread = math.sqrt(var_first + var_last)
    if spread == 0.0:
        return 0.0
    return (_mean(first) - _mean(last)) / spread


def total_variation_distance(p: Dict[Vertex, float], q: Dict[Vertex, float]) -> float:
    """Return the total-variation distance between two distributions over vertices."""
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(v, 0.0) - q.get(v, 0.0)) for v in support)


def stationary_distribution(graph: Graph, r: Vertex) -> Dict[Vertex, float]:
    """Return the exact stationary distribution of the single-space chain (Equation 5)."""
    deltas = all_dependencies_on_target(graph, r)
    total = sum(deltas.values())
    if total <= 0.0:
        raise ConfigurationError(
            f"vertex {r!r} has betweenness 0; the stationary distribution is undefined"
        )
    return {v: d / total for v, d in deltas.items() if d > 0.0}


def empirical_vs_stationary(graph: Graph, chain: ChainResult) -> float:
    """Return the TV distance between the chain's visit frequencies and Equation 5."""
    return total_variation_distance(
        chain.empirical_distribution(), stationary_distribution(graph, chain.target)
    )


@dataclass
class ChainDiagnostics:
    """Bundle of diagnostics for one chain run (produced by :func:`diagnose_chain`)."""

    acceptance_rate: float
    effective_sample_size: float
    geweke_z: float
    lag1_autocorrelation: float
    chain_length: int
    evaluations: int
    tv_distance_to_stationary: Optional[float] = None

    def healthy(self) -> bool:
        """Return ``True`` when the standard rules of thumb are satisfied.

        Acceptance rate not degenerate (between 5% and 99.9%), Geweke within
        ±2, and an effective sample size of at least 10.
        """
        return (
            0.05 <= self.acceptance_rate <= 0.999
            and abs(self.geweke_z) <= 2.0
            and self.effective_sample_size >= 10.0
        )


# ----------------------------------------------------------------------
# Cross-chain diagnostics (multi-chain driver)
# ----------------------------------------------------------------------


def gelman_rubin(traces: Sequence[Sequence[float]]) -> float:
    """Return the Gelman–Rubin potential scale reduction factor R̂ of *traces*.

    The classic between/within variance comparison over ``m >= 2`` chains:
    with *n* the common length (longer traces are truncated to the shortest),
    *W* the mean of the within-chain sample variances and *B/n* the sample
    variance of the chain means,

    .. math::

       \\hat R = \\sqrt{\\frac{\\frac{n-1}{n} W + B/n}{W}}.

    Values near 1 indicate the chains explored the same distribution.
    Degenerate cases are pinned explicitly: all chains constant *and* equal
    gives 1.0 (nothing left to mix); chains constant but *unequal* gives
    ``inf`` (they will never agree); fewer than two samples per chain gives
    ``inf`` (no information yet, treat as unconverged).

    Raises
    ------
    ConfigurationError
        If fewer than two traces are given — use :func:`split_rhat` to
        diagnose a single chain by comparing its halves.
    """
    if len(traces) < 2:
        raise ConfigurationError(
            "gelman_rubin needs at least two chains; use split_rhat for one"
        )
    n = min(len(trace) for trace in traces)
    if n < 2:
        return float("inf")
    truncated = [list(trace[:n]) for trace in traces]
    within = _mean([_variance(trace) for trace in truncated])
    means = [_mean(trace) for trace in truncated]
    between_over_n = _variance(means)
    if within == 0.0:
        return 1.0 if between_over_n == 0.0 else float("inf")
    var_plus = (n - 1) / n * within + between_over_n
    return math.sqrt(var_plus / within)


def split_rhat(traces: Sequence[Sequence[float]]) -> float:
    """Return the split-chain R̂ of *traces* (works for a single chain too).

    Each trace is truncated to the shortest length *n*, then split into its
    first and last ``n // 2`` samples (the middle element is dropped when
    *n* is odd), and :func:`gelman_rubin` is applied to the ``2 m`` halves.
    Splitting makes the statistic sensitive to within-chain drift — a chain
    whose first half lives somewhere else than its second half is not
    converged even if the *m* full chains agree — and it gives the
    degenerate 1-chain case a meaningful reading.  Returns ``inf`` when the
    halves would be shorter than two samples.
    """
    if not traces:
        raise ConfigurationError("split_rhat needs at least one chain")
    n = min(len(trace) for trace in traces)
    half = n // 2
    if half < 2:
        return float("inf")
    halves: List[List[float]] = []
    for trace in traces:
        truncated = list(trace[:n])
        halves.append(truncated[:half])
        halves.append(truncated[n - half :])
    return gelman_rubin(halves)


def multichain_ess(traces: Sequence[Sequence[float]]) -> float:
    """Return the pooled effective sample size of *traces*.

    The chains are independent by construction (per-chain rng streams), so
    their effective sample sizes — each computed with the
    initial-positive-sequence truncation of :func:`effective_sample_size` —
    simply add.
    """
    return sum(effective_sample_size(trace) for trace in traces)


@dataclass
class MultiChainDiagnostics:
    """Cross-chain convergence report (produced by :func:`diagnose_chains`).

    Attributes
    ----------
    n_chains:
        Number of pooled chains.
    rhat:
        Split-chain R̂ over the post-burn-in dependency traces.
    ess:
        Pooled effective sample size of the same traces.
    acceptance_rates:
        Per-chain acceptance rates, in chain order.
    chain_lengths:
        Per-chain iteration counts ``T`` (excluding initial states).
    evaluations:
        Brandes passes actually performed across every chain (cache misses;
        with chains sharing a per-process oracle this is the true total
        work, which per-chain ``ChainResult.evaluations`` cannot report).
    screened:
        Missing sources the oracles' zero-dependency screen answered
        without a pass, summed over the chains' own counters.
    burn_in:
        Leading states excluded from each chain (driver-adapted when the
        R̂-driven mode converged, else the base sampler's setting).
    converged:
        ``True``/``False`` when an R̂ target drove the run, ``None`` when
        the chains ran their full fixed length.
    rounds:
        Scheduler rounds executed (1 unless the adaptive mode segmented the
        chains).
    """

    n_chains: int
    rhat: float
    ess: float
    acceptance_rates: List[float] = field(default_factory=list)
    chain_lengths: List[int] = field(default_factory=list)
    evaluations: int = 0
    screened: int = 0
    burn_in: int = 0
    converged: Optional[bool] = None
    rounds: int = 1

    def mean_acceptance_rate(self) -> float:
        """Return the unweighted mean of the per-chain acceptance rates."""
        if not self.acceptance_rates:
            return 0.0
        return sum(self.acceptance_rates) / len(self.acceptance_rates)

    def healthy(self, *, rhat_threshold: float = 1.1) -> bool:
        """Return ``True`` when the standard multi-chain rules of thumb hold."""
        return (
            self.rhat <= rhat_threshold
            and self.ess >= 10.0
            and all(0.05 <= rate <= 0.999 for rate in self.acceptance_rates)
        )


def diagnose_chains(
    chains: Sequence[ChainResult],
    *,
    evaluations: int = 0,
    converged: Optional[bool] = None,
    rounds: int = 1,
) -> MultiChainDiagnostics:
    """Return :class:`MultiChainDiagnostics` for a family of single-space chains.

    The traces are the post-burn-in dependency traces, so the statistics
    describe exactly the samples that enter the pooled estimate.
    """
    if not chains:
        raise ConfigurationError("diagnose_chains needs at least one chain")
    traces = [chain.dependency_trace() for chain in chains]
    return MultiChainDiagnostics(
        n_chains=len(chains),
        rhat=split_rhat(traces),
        ess=multichain_ess(traces),
        acceptance_rates=[chain.acceptance_rate() for chain in chains],
        chain_lengths=[chain.chain_length() for chain in chains],
        evaluations=evaluations,
        screened=sum(chain.screened for chain in chains),
        burn_in=chains[0].burn_in,
        converged=converged,
        rounds=rounds,
    )


def diagnose_chain(
    chain: ChainResult, *, graph: Optional[Graph] = None
) -> ChainDiagnostics:
    """Return :class:`ChainDiagnostics` for a single-space chain run.

    Passing *graph* additionally computes the exact total-variation distance
    to the stationary distribution, which requires a full Brandes sweep —
    only do this on small graphs.
    """
    trace = chain.dependency_trace()
    tv: Optional[float] = None
    if graph is not None:
        tv = empirical_vs_stationary(graph, chain)
    return ChainDiagnostics(
        acceptance_rate=chain.acceptance_rate(),
        effective_sample_size=effective_sample_size(trace),
        geweke_z=geweke_z_score(trace),
        lag1_autocorrelation=autocorrelation(trace, 1),
        chain_length=chain.chain_length(),
        evaluations=chain.evaluations,
        tv_distance_to_stationary=tv,
    )
