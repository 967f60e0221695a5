"""Parallel multi-chain Metropolis-Hastings drivers.

A Markov chain is inherently sequential — the one estimation layer the
source-sharded execution engine of :mod:`repro.execution` could not touch in
its first incarnation.  The way to parallelise the MCMC path is therefore
*many independent chains*: spawn ``K`` chains from per-chain child rng
streams, run them across the shard scheduler (one chain per shard — chains,
not sources, are the unit of work here), and pool the per-chain estimates
with a deterministic ordered reduce.  This module provides that driver for
all three Metropolis-Hastings samplers of the library:

* :class:`MultiChainMHSampler` — the single-space sampler of Section 4.2,
  with cross-chain convergence diagnostics (split-R̂ / pooled effective
  sample size, per-chain acceptance rates) and an optional adaptive mode
  that runs the chains in checkpointed segments, discards the first half of
  each chain as burn-in once the split-R̂ of the remainder drops below a
  target, and stops early;
* :class:`MultiChainJointSampler` — the joint-space sampler of Section 4.3;
  the pooled relative-betweenness scores are the Equation 23 averages over
  the union of the per-chain multisets ``M(j)``;
* :class:`MultiChainEdgeSampler` — the edge-betweenness extension.

Determinism contract
--------------------
Chain *i*'s trajectory is a pure function of the base sampler's
configuration, the graph, the target and its own rng stream
(``spawn_rng(rng, i)``, spawned in chain order before any chain runs).  The
dependency scores a chain consumes are deterministic whatever oracle
instance serves them — prefetched, recomputed after eviction, rebuilt in
another process — so a chain never depends on which worker ran it or on
what shared a cache with it.  Per-chain results are merged strictly in
chain order.  Together this makes every pooled estimate **bit-identical for
any** ``n_jobs`` at a fixed seed, and a ``K = 1`` driver runs the parent
stream itself (no spawn), reproducing the single-chain sampler's
estimate bit for bit.

``n_jobs`` belongs to the *driver* (how many worker processes the chains
are spread over); the base sampler's own ``n_jobs`` stays unset so a
chain's trajectory cannot vary with the degree of parallelism.  Each
chain batch-prefetches its own independence proposals, which is typically
the dominant speedup on few-core machines.

Chains propose sources from the same distribution, so chains in
different processes keep re-proposing each other's sources.  Whenever the
chains go to a pool (``n_jobs > 1`` and more than one chain) the driver
therefore publishes every computed dependency vector into one
cross-process shared-memory arena (:mod:`repro.execution.shared_cache`),
attached to each worker's oracle through the pool-initializer payload;
inline chains already share one oracle and get none.  Because the
dependency kernels are bit-identical per source, *which* process computed
a vector — and therefore any cache timing at all — can never change a
chain; the total ``evaluations`` across workers drops toward the run's
unique-source count while the pooled estimate stays bit-identical to the
inline run.
"""

from __future__ import annotations

import copy
import multiprocessing
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.errors import ConfigurationError, EdgeNotFoundError
from repro.execution import (
    ExecutionPlan,
    create_shared_store,
    interned_payload,
    resolve_plan,
    run_sharded,
    shared_memory_available,
)
from repro.graphs.core import Graph, Vertex
from repro.mcmc.diagnostics import (
    MultiChainDiagnostics,
    diagnose_chains,
    multichain_ess,
    split_rhat,
)
from repro.mcmc.edge import EdgeChainState, EdgeMHSampler
from repro.mcmc.joint import (
    JointChainResult,
    JointSpaceMHSampler,
    RelativeBetweennessEstimate,
)
from repro.mcmc.single import (
    ESTIMATORS,
    ChainResult,
    SingleSpaceMHSampler,
    state_contribution,
)
from repro.samplers.base import SingleEstimate, SingleVertexEstimator, timed

__all__ = [
    "split_budget",
    "MultiChainResult",
    "MultiChainMHSampler",
    "MultiChainJointSampler",
    "MultiChainEdgeSampler",
    "merge_joint_chains",
    "DEFAULT_CHECK_INTERVAL",
]

#: Iterations each chain advances between R̂ checkpoints in the adaptive mode.
DEFAULT_CHECK_INTERVAL = 64


def split_budget(num_samples: int, n_chains: int) -> List[int]:
    """Split a total iteration budget into per-chain lengths, longest first.

    ``num_samples`` is the *total* budget — what the caller pays in Brandes
    passes — so ``K`` chains receive ``num_samples // K`` iterations each and
    the remainder goes to the leading chains.  The split is a pure function
    of ``(num_samples, n_chains)``, part of the determinism contract.
    """
    if n_chains < 1:
        raise ConfigurationError("n_chains must be a positive integer")
    if num_samples < n_chains:
        raise ConfigurationError(
            f"num_samples ({num_samples}) must be at least n_chains ({n_chains}); "
            "every chain needs one iteration"
        )
    base, extra = divmod(num_samples, n_chains)
    return [base + (1 if i < extra else 0) for i in range(n_chains)]


class _ChainPayload:
    """Read-only payload shipped once per worker process.

    Bundles the graph and the configured base sampler, and lazily builds the
    dependency oracle every chain assigned to that process shares.  The
    oracle is dropped from the pickled state — each worker rebuilds it on
    first use (cheap next to the chains' Brandes passes) and the rebuild
    cannot change any chain: dependency vectors are deterministic regardless
    of the oracle instance or its cache history.

    The chain *target* travels with the tasks, not the payload, for the
    single and joint kinds: the payload is then a pure function of
    ``(sampler, graph, store)`` and one installed payload serves every
    request of a session whatever vertex it asks about — which is what lets
    the persistent pool ship the graph snapshot once and keep each worker's
    oracle cache warm across requests.  The edge kind keeps its target here
    because its oracle is built *per edge*.

    *shared_store* optionally carries the run's cross-process
    :class:`~repro.execution.shared_cache.SharedDependencyStore`.  On the
    per-call pool the payload travels through
    :func:`repro.execution.run_sharded`'s **initializer** — the only channel
    a process-shared lock may cross; on a persistent pool the install
    broadcast substitutes the context's lock by persistent id (see
    :mod:`repro.execution.runtime`).

    *snapshot* optionally carries the graph's CSR snapshot (the cached
    ``graph.csr()`` arrays) explicitly.
    :class:`~repro.graphs.core.Graph` itself pickles *without* its cached
    snapshot, so :meth:`oracle` primes the worker-side graph via
    :meth:`~repro.graphs.core.Graph.adopt_csr` before building the
    oracle; inline (same process) the adoption is a no-op.
    """

    def __init__(
        self,
        kind: str,
        graph: Graph,
        sampler,
        target=None,
        shared_store=None,
        snapshot=None,
    ) -> None:
        self.kind = kind
        self.graph = graph
        self.sampler = sampler
        self.target = target
        self.shared_store = shared_store
        self.snapshot = snapshot
        self._oracle = None

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_oracle"] = None
        return state

    def oracle(self):
        if self._oracle is None:
            if self.snapshot is not None:
                self.graph.adopt_csr(self.snapshot)
            if self.kind == "edge":
                self._oracle = self.sampler.build_oracle(self.graph, self.target)
            else:
                self._oracle = self.sampler.build_oracle(
                    self.graph, shared_store=self.shared_store
                )
        return self._oracle


def _run_single_shard(payload: _ChainPayload, shard):
    """Worker: run/extend the single-space chains of one shard in order.

    Each chain record is billed with *its own* Brandes-pass delta (the
    sampler already bills deltas against whatever oracle it is handed, and
    :meth:`extend_chain` accumulates them), so a shared — possibly warm —
    per-process oracle never charges one chain for another's work.
    """
    oracle = payload.oracle()
    before = oracle.evaluations
    out = []
    for index, rng, chain, count, target in shard:
        if chain is None:
            chain = payload.sampler.run_chain(
                payload.graph, target, count, seed=rng, oracle=oracle
            )
        else:
            chain = payload.sampler.extend_chain(
                payload.graph, target, chain, count, rng=rng, oracle=oracle
            )
        out.append((index, rng, chain))
    return out, oracle.evaluations - before


def _run_fixed_shard(payload: _ChainPayload, shard):
    """Worker: run the fixed-length chains of one shard in order.

    Serves both the joint and the edge drivers — their samplers share the
    ``run_chain(graph, target, count, seed=..., oracle=...)`` shape and the
    payload's ``kind`` already dispatched the oracle type.
    """
    oracle = payload.oracle()
    before = oracle.evaluations
    out = []
    for index, rng, count, target in shard:
        chain = payload.sampler.run_chain(
            payload.graph, target, count, seed=rng, oracle=oracle
        )
        out.append((index, rng, chain))
    return out, oracle.evaluations - before


class _MultiChainBase:
    """Shared knob validation and scheduling for the three drivers.

    Each run resolves its :class:`~repro.execution.plan.ExecutionPlan` once
    (:meth:`_driver_plan`) and hands it to every scheduling helper.  A
    ``plan`` attribute set on the driver — a session attaches its own plan,
    persistent runtime included — wins over the individual knobs.
    """

    plan: Optional[ExecutionPlan] = None

    def __init__(
        self,
        *,
        n_chains: int,
        n_jobs: Optional[int],
        mp_context: Optional[str] = None,
        runtime: Optional[object] = None,
    ) -> None:
        if not isinstance(n_chains, int) or isinstance(n_chains, bool) or n_chains < 1:
            raise ConfigurationError(
                f"n_chains must be a positive integer, got {n_chains!r}"
            )
        if mp_context is not None:
            ExecutionPlan(mp_context=mp_context)  # validate eagerly
        self.n_chains = n_chains
        self.n_jobs = n_jobs
        #: Multiprocessing start method of the chain scheduler's pools and of
        #: the shared arena's lock (``None`` consults ``REPRO_MP_CONTEXT``,
        #: then the interpreter default) — the two must agree, which is why
        #: one knob configures both.
        self.mp_context = mp_context
        #: Optional persistent :class:`~repro.execution.runtime.ExecutionContext`.
        #: With a runtime attached the driver runs its chains on the
        #: context's long-lived pool and reads/publishes dependency vectors
        #: through the context's *persistent* arena, so Brandes passes paid
        #: by earlier requests are cache hits here.  Results are
        #: bit-identical either way — the runtime only moves where work is
        #: paid.
        self.runtime = runtime
        #: ``SharedDependencyStore.stats()`` of the last run (``None`` when
        #: no arena was attached) — the drivers' estimate methods stamp
        #: it into their diagnostics.
        self._shared_cache_stats: Optional[Dict[str, object]] = None
        #: The plan of the last run (see :meth:`_driver_plan`).
        self._run_plan: Optional[ExecutionPlan] = None

    @staticmethod
    def _resolve_base(base, expected_cls, base_kwargs):
        """Build or validate the base sampler shared by every chain."""
        if base is None:
            return expected_cls(**base_kwargs)
        if base_kwargs:
            raise ConfigurationError(
                "pass either a base sampler or its keyword arguments, not both"
            )
        if not isinstance(base, expected_cls):
            raise ConfigurationError(
                f"base must be a {expected_cls.__name__}, got {type(base).__name__}"
            )
        return base

    def _driver_plan(self) -> ExecutionPlan:
        """Resolve this run's plan: the attached ``plan``, else the knobs.

        Called once per run; the result is kept as ``_run_plan`` so the
        estimate methods stamp the ``n_jobs`` the run actually used.
        """
        self._run_plan = resolve_plan(
            self.plan,
            n_jobs=self.n_jobs,
            mp_context=self.mp_context,
            runtime=self.runtime,
        )
        return self._run_plan

    def _acquire_store(self, graph: Graph, num_samples: int, plan: ExecutionPlan):
        """Return ``(store, owned)`` — the run's dependency arena, if any.

        With a runtime attached the store is the context's *persistent*
        arena (created on first use, surviving this run, invalidated by
        graph mutation) and the driver must not destroy it.  Otherwise the
        driver creates an arena exactly when its chains go to a pool
        (``n_jobs > 1`` and more than one chain — inline chains already
        share one oracle) and owns it.  It is sized at
        ``min(|V|, total budget + K)``: a chain consumes at most one new
        source per iteration plus its initial state, so only the
        free-space clamp of :func:`~repro.execution.create_shared_store`
        can make it overflow.  On a platform without working shared memory
        the run silently proceeds on private per-worker caches, as the
        runtime's arena does; where the arena cannot be made otherwise it
        warns first.
        """
        if plan.runtime is not None:
            return plan.runtime.dependency_arena(graph), False
        n = graph.number_of_vertices()
        pooled = plan.n_jobs > 1 and self.n_chains > 1
        if not pooled or n < 1 or not shared_memory_available():
            return None, False
        # A configured start method must govern the arena's lock too: a
        # fork-context lock cannot enter a spawn-context worker.
        store = create_shared_store(
            n,
            min(n, num_samples + self.n_chains),
            context=multiprocessing.get_context(plan.mp_context),
        )
        return store, True

    def _chain_payload(
        self, kind: str, graph: Graph, sampler, store, snapshot, plan: ExecutionPlan
    ):
        """Build (or recall from the runtime memo) the shared worker payload.

        One payload per ``(kind, sampler, graph version, arena, snapshot)``
        — the memo hands back the same object across requests, so a
        persistent pool installs it (and ships the graph snapshot) once and
        its workers keep their rebuilt oracles warm between requests.
        """
        key = (
            "multichain",
            kind,
            id(sampler),
            id(graph),
            graph.version,
            store.name if store is not None else None,
            id(snapshot),
        )
        return interned_payload(
            plan,
            key,
            lambda: _ChainPayload(
                kind, graph, sampler, shared_store=store, snapshot=snapshot
            ),
        )

    def _chain_rngs(self, rng: Random) -> List[Random]:
        """One stream per chain; ``K = 1`` keeps the parent stream itself.

        Keeping the parent for a single chain is what makes the degenerate
        driver bit-identical to the single-chain sampler — it consumes
        the caller's stream exactly as a direct ``run_chain`` call would.
        """
        if self.n_chains == 1:
            return [rng]
        return [spawn_rng(rng, i) for i in range(self.n_chains)]

    def _run_round(self, payload, tasks, worker, plan: ExecutionPlan, chains, rngs):
        """Run one scheduler round; merge results back strictly by chain index."""
        shards = [[task] for task in tasks]
        results = run_sharded(
            worker,
            shards,
            n_jobs=plan.n_jobs,
            shared=payload,
            mp_context=plan.mp_context,
            runtime=plan.runtime,
        )
        chains = list(chains)
        rngs = list(rngs)
        evaluations = 0
        for shard_out, shard_evaluations in results:
            evaluations += shard_evaluations
            for index, chain_rng, chain in shard_out:
                chains[index] = chain
                rngs[index] = chain_rng
        return chains, rngs, evaluations


@dataclass
class MultiChainResult:
    """A family of single-space chains plus their cross-chain diagnostics."""

    target: Vertex
    chains: List[ChainResult]
    num_vertices: int
    diagnostics: MultiChainDiagnostics

    def pooled_estimate(self, estimator: str = "chain") -> float:
        """Return the pooled betweenness estimate over every chain's kept states.

        A sample-weighted mean: per-chain totals accumulate strictly in
        chain order (the deterministic reduce) and one division by the
        pooled count happens at the end, so a single chain reproduces
        ``ChainResult.estimate`` bit for bit.
        """
        if estimator not in ESTIMATORS:
            raise ValueError(
                f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}"
            )
        scale = max(self.num_vertices - 1, 1)
        total = 0.0
        count = 0
        for chain in self.chains:
            kept = chain.contributions(estimator)
            total += sum(kept)
            count += len(kept)
        if count == 0:
            return 0.0
        return total / (count * scale)

    def per_chain_estimates(self, estimator: str = "chain") -> List[float]:
        """Return each chain's own estimate, in chain order."""
        return [chain.estimate(estimator) for chain in self.chains]

    def traces(self) -> List[List[float]]:
        """Return the post-burn-in dependency traces, in chain order."""
        return [chain.dependency_trace() for chain in self.chains]


class MultiChainMHSampler(_MultiChainBase, SingleVertexEstimator):
    """K independent single-space MH chains, pooled (see the module docstring).

    Parameters
    ----------
    base:
        The configured :class:`~repro.mcmc.single.SingleSpaceMHSampler` every
        chain runs; alternatively pass its keyword arguments directly
        (``proposal=...``, ``cache_size=...``, ...).  Must
        keep ``record_states=True`` — the traces feed the diagnostics and the
        adaptive continuation.
    n_chains:
        Number of chains ``K``.  The total sample budget of each
        :meth:`estimate` call is split across them (:func:`split_budget`).
    rhat_target:
        ``None`` (default) runs every chain to its full budget.  A float
        ``> 1`` engages the adaptive mode: chains advance in
        ``check_interval`` segments; at each checkpoint the driver proposes
        discarding the first half of every chain and measures the split-R̂ of
        the remainder — at or below the target it adopts that burn-in and
        stops early, otherwise it continues until the budget is exhausted
        (falling back to the base sampler's ``burn_in``).  With
        ``n_jobs > 1`` each round ships the accumulated chain state through
        a fresh pool and workers rebuild their oracle caches, so prefer a
        ``check_interval`` large enough that a segment's Brandes passes
        dominate that fixed cost (the inline path keeps its oracle across
        rounds and pays none of it).
    check_interval:
        Segment length of the adaptive mode.
    n_jobs:
        Worker processes for the chain scheduler (``None`` consults
        ``REPRO_JOBS``; 1 runs inline).  Never changes the pooled estimate.
        With more than one worker and chain the workers share one
        dependency arena (see the module docstring).
    """

    name = "mh-multichain"

    def __init__(
        self,
        base: Optional[SingleSpaceMHSampler] = None,
        *,
        n_chains: int = 4,
        rhat_target: Optional[float] = None,
        check_interval: int = DEFAULT_CHECK_INTERVAL,
        n_jobs: Optional[int] = None,
        mp_context: Optional[str] = None,
        runtime: Optional[object] = None,
        **base_kwargs,
    ) -> None:
        super().__init__(
            n_chains=n_chains,
            n_jobs=n_jobs,
            mp_context=mp_context,
            runtime=runtime,
        )
        base = self._resolve_base(base, SingleSpaceMHSampler, base_kwargs)
        if not base.record_states:
            raise ConfigurationError(
                "multi-chain pooling needs record_states=True on the base sampler"
            )
        if rhat_target is not None and not rhat_target > 1.0:
            raise ConfigurationError(
                "rhat_target must exceed 1.0 (split-R-hat approaches 1 from above)"
            )
        if not isinstance(check_interval, int) or check_interval < 1:
            raise ConfigurationError("check_interval must be a positive integer")
        self.base = base
        self.rhat_target = rhat_target
        self.check_interval = check_interval
        self._segment_cache = None

    def _segment_sampler(self) -> SingleSpaceMHSampler:
        """Return the burn-in-stripped copy of the base the adaptive segments run.

        Segments run with ``burn_in=0``: the driver owns warm-up in adaptive
        mode (a configured burn_in would otherwise be validated against each
        short segment rather than the eventual chain) and applies the base's
        setting only as the not-converged fallback.  Memoized against the
        base's identity and burn-in so warm sessions hand the payload memo
        one stable sampler object across requests.
        """
        cached = self._segment_cache
        if (
            cached is not None
            and cached[0] is self.base
            and cached[1] == self.base.burn_in
        ):
            return cached[2]
        sampler = copy.copy(self.base)
        sampler.burn_in = 0
        self._segment_cache = (self.base, self.base.burn_in, sampler)
        return sampler

    # ------------------------------------------------------------------
    def run_chains(
        self, graph: Graph, r: Vertex, num_samples: int, *, seed: RandomState = None
    ) -> MultiChainResult:
        """Run the K chains (budget *num_samples* in total) and return the family."""
        graph.validate_vertex(r)
        rng = ensure_rng(seed)
        rngs = self._chain_rngs(rng)
        budgets = split_budget(num_samples, self.n_chains)
        plan = self._driver_plan()
        store, owned = self._acquire_store(graph, num_samples, plan)
        self._shared_cache_stats = None
        try:
            return self._run_chain_rounds(graph, r, rngs, budgets, store, plan)
        finally:
            if owned and store is not None:
                store.destroy()

    def _run_chain_rounds(
        self, graph: Graph, r: Vertex, rngs, budgets, store, plan: ExecutionPlan
    ) -> MultiChainResult:
        """The scheduling body of :meth:`run_chains` (store lifecycle handled there)."""
        # A Graph pickles without its CSR snapshot, so the payload carries
        # the cached arrays.
        snapshot = graph.csr()
        payload = self._chain_payload(
            "single", graph, self.base, store, snapshot, plan
        )
        chains: List[Optional[ChainResult]] = [None] * self.n_chains
        evaluations = 0
        if self.rhat_target is None:
            tasks = [
                (i, rngs[i], None, budgets[i], r) for i in range(self.n_chains)
            ]
            chains, rngs, evaluations = self._run_round(
                payload, tasks, _run_single_shard, plan, chains, rngs
            )
            rounds = 1
            converged: Optional[bool] = None
        else:
            if self.base.burn_in >= min(budgets) + 1:
                raise ConfigurationError(
                    "the base sampler's burn_in must be smaller than the "
                    "per-chain budget (it is the fallback when the R-hat "
                    "target is never reached)"
                )
            payload = self._chain_payload(
                "single", graph, self._segment_sampler(), store, snapshot, plan
            )
            converged = False
            rounds = 0
            remaining = list(budgets)
            while True:
                tasks = [
                    (i, rngs[i], chains[i], min(self.check_interval, remaining[i]), r)
                    for i in range(self.n_chains)
                    if remaining[i] > 0
                ]
                chains, rngs, used = self._run_round(
                    payload, tasks, _run_single_shard, plan, chains, rngs
                )
                evaluations += used
                rounds += 1
                for task in tasks:
                    remaining[task[0]] -= task[3]
                # Candidate warm-up: drop the first half of every chain and
                # measure the split-R-hat of what would remain.
                burn = min(len(chain.vertex) for chain in chains) // 2
                traces = [chain.dependency[burn:].tolist() for chain in chains]
                if split_rhat(traces) <= self.rhat_target:
                    converged = True
                    for chain in chains:
                        chain.burn_in = burn
                    break
                if all(left == 0 for left in remaining):
                    for chain in chains:
                        chain.burn_in = self.base.burn_in
                    break
        if store is not None:
            self._shared_cache_stats = store.stats()
        diagnostics = diagnose_chains(
            chains, evaluations=evaluations, converged=converged, rounds=rounds
        )
        return MultiChainResult(
            target=r,
            chains=list(chains),
            num_vertices=graph.number_of_vertices(),
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    def estimate(
        self, graph: Graph, r: Vertex, num_samples: int, *, seed: RandomState = None
    ) -> SingleEstimate:
        """Return the pooled estimate of ``BC(r)`` from a total budget of *num_samples*."""
        with timed() as clock:
            result = self.run_chains(graph, r, num_samples, seed=seed)
            value = result.pooled_estimate(self.base.estimator)
        diag = result.diagnostics
        diagnostics: Dict[str, object] = {
            "acceptance_rate": diag.mean_acceptance_rate(),
            "acceptance_rates": list(diag.acceptance_rates),
            "rhat": diag.rhat,
            "ess": diag.ess,
            "evaluations": diag.evaluations,
            "screened": diag.screened,
            "proposal": self.base.proposal,
            "estimator": self.base.estimator,
            "burn_in": diag.burn_in,
            "n_chains": self.n_chains,
            "n_jobs": self._run_plan.n_jobs,
            "rhat_target": self.rhat_target,
            "converged": diag.converged,
            "rounds": diag.rounds,
            "shared_cache": self._shared_cache_stats is not None,
            "shared_cache_stats": self._shared_cache_stats,
            "multichain": result,
        }
        if self.n_chains == 1:
            diagnostics["chain"] = result.chains[0]
        return SingleEstimate(
            vertex=r,
            estimate=value,
            samples=sum(diag.chain_lengths),
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )


# ----------------------------------------------------------------------
# Joint space
# ----------------------------------------------------------------------


def merge_joint_chains(chains: Sequence[JointChainResult]) -> JointChainResult:
    """Concatenate the kept columns of several joint chains, strictly in chain order.

    The merged record is what the pooled Equation 22/23 estimates read: its
    multiset ``M(j)`` is the union of the per-chain multisets, so
    ``relative_matrix`` / ``ratio_estimate`` on the merged chain *are* the
    pooled estimators.  Burn-in is 0 (each chain's own burn-in was applied
    during concatenation) and ``evaluations`` sums the per-chain counters —
    the driver's workers bill each chain its own Brandes-pass delta, so the
    sum is the true total; like any work counter it reflects cache sharing
    and may legitimately differ across ``n_jobs`` (the estimates never do).
    Do not read ``acceptance_rate()`` off the merged record — the per-chain
    initial states count as accepted pseudo-proposals there; the driver
    reports the mean of the per-chain rates instead.
    """
    if not chains:
        raise ConfigurationError("merge_joint_chains needs at least one chain")
    members = chains[0].reference_set
    for chain in chains[1:]:
        if chain.reference_set != members:
            raise ConfigurationError("chains disagree on the reference set")
    iteration, r_index, v, row, accepted, dependencies = [], [], [], [], [], []
    offset = 0
    for chain in chains:
        start = chain.burn_in
        iteration.append(chain.iteration[start:])
        r_index.append(chain.r_index[start:])
        v.extend(chain.v[start:])
        row.append(chain.row[start:] + offset)
        accepted.append(chain.accepted[start:])
        dependencies.append(chain.dependencies)
        offset += len(chain.dependencies)
    return JointChainResult(
        reference_set=list(members),
        iteration=np.concatenate(iteration),
        r_index=np.concatenate(r_index),
        v=v,
        row=np.concatenate(row),
        accepted=np.concatenate(accepted),
        dependencies=np.concatenate(dependencies),
        num_vertices=chains[0].num_vertices,
        burn_in=0,
        evaluations=sum(chain.evaluations for chain in chains),
        screened=sum(chain.screened for chain in chains),
    )


class MultiChainJointSampler(_MultiChainBase):
    """K independent joint-space MH chains with pooled relative scores.

    Same spawning, scheduling and determinism contract as
    :class:`MultiChainMHSampler` — including the shared arena of pooled
    runs, which pays off doubly here because the joint chain's
    reference-set reads revisit the same sources across every chain; the
    chains run to their fixed budgets (no adaptive mode — the joint chain's
    read-outs are per-reference-vertex multisets, not a single trace) and
    cross-chain R̂ / ESS over the dependency traces are reported in the
    estimate diagnostics.
    """

    name = "mh-joint-multichain"

    def __init__(
        self,
        base: Optional[JointSpaceMHSampler] = None,
        *,
        n_chains: int = 4,
        n_jobs: Optional[int] = None,
        mp_context: Optional[str] = None,
        runtime: Optional[object] = None,
        **base_kwargs,
    ) -> None:
        super().__init__(
            n_chains=n_chains,
            n_jobs=n_jobs,
            mp_context=mp_context,
            runtime=runtime,
        )
        self.base = self._resolve_base(base, JointSpaceMHSampler, base_kwargs)

    def run_chains(
        self,
        graph: Graph,
        reference_set: Iterable[Vertex],
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> Tuple[List[JointChainResult], int]:
        """Run the K joint chains; return them (chain order) plus total evaluations."""
        members = list(dict.fromkeys(reference_set))
        rng = ensure_rng(seed)
        rngs = self._chain_rngs(rng)
        budgets = split_budget(num_samples, self.n_chains)
        plan = self._driver_plan()
        store, owned = self._acquire_store(graph, num_samples, plan)
        self._shared_cache_stats = None
        try:
            payload = self._chain_payload(
                "joint", graph, self.base, store, graph.csr(), plan
            )
            tasks = [(i, rngs[i], budgets[i], members) for i in range(self.n_chains)]
            chains, _, evaluations = self._run_round(
                payload, tasks, _run_fixed_shard, plan, [None] * self.n_chains, rngs
            )
            if store is not None:
                self._shared_cache_stats = store.stats()
            return list(chains), evaluations
        finally:
            if owned and store is not None:
                store.destroy()

    def estimate_relative(
        self,
        graph: Graph,
        reference_set: Iterable[Vertex],
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> RelativeBetweennessEstimate:
        """Return the pooled Equation 22/23 estimates from K chains (budget split)."""
        with timed() as clock:
            chains, evaluations = self.run_chains(
                graph, reference_set, num_samples, seed=seed
            )
            merged = merge_joint_chains(chains)
            relative = merged.relative_matrix()
            ratios = merged.ratios()
        traces = [chain.dependency_trace() for chain in chains]
        acceptance_rates = [chain.acceptance_rate() for chain in chains]
        diagnostics: Dict[str, object] = {
            "n_chains": self.n_chains,
            "n_jobs": self._run_plan.n_jobs,
            "rhat": split_rhat(traces),
            "ess": multichain_ess(traces),
            "acceptance_rates": acceptance_rates,
            "evaluations": evaluations,
            "screened": merged.screened,
            "shared_cache": self._shared_cache_stats is not None,
            "shared_cache_stats": self._shared_cache_stats,
        }
        return RelativeBetweennessEstimate(
            reference_set=merged.reference_set,
            relative=relative,
            ratios=ratios,
            sample_counts=merged.sample_counts(),
            acceptance_rate=sum(acceptance_rates) / len(acceptance_rates),
            samples=sum(chain.chain_length() for chain in chains),
            elapsed_seconds=clock.elapsed,
            chain=merged,
            diagnostics=diagnostics,
        )


# ----------------------------------------------------------------------
# Edge space
# ----------------------------------------------------------------------


class MultiChainEdgeSampler(_MultiChainBase):
    """K independent edge-betweenness MH chains, pooled.

    Mirrors :class:`MultiChainMHSampler` for the edge extension: fixed
    per-chain budgets, one shared :class:`EdgeDependencyOracle` per worker
    process, sample-weighted pooled estimate, split-R̂ / pooled ESS
    diagnostics.  Its pooled runs attach no cross-process arena: the edge
    oracle caches one *scalar* per source (the dependency on a fixed edge),
    so there is no expensive vector worth sharing — recomputing a scalar's
    pass is the whole cost either way.
    """

    name = "mh-edge-multichain"

    def __init__(
        self,
        base: Optional[EdgeMHSampler] = None,
        *,
        n_chains: int = 4,
        n_jobs: Optional[int] = None,
        mp_context: Optional[str] = None,
        runtime: Optional[object] = None,
        **base_kwargs,
    ) -> None:
        super().__init__(
            n_chains=n_chains,
            n_jobs=n_jobs,
            mp_context=mp_context,
            runtime=runtime,
        )
        self.base = self._resolve_base(base, EdgeMHSampler, base_kwargs)

    def run_chains(
        self,
        graph: Graph,
        edge: Tuple[Vertex, Vertex],
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> Tuple[List[List[EdgeChainState]], int]:
        """Run the K edge chains; return their state lists (chain order) plus evaluations."""
        a, b = edge
        if not graph.has_edge(a, b):
            raise EdgeNotFoundError(a, b)
        rng = ensure_rng(seed)
        rngs = self._chain_rngs(rng)
        budgets = split_budget(num_samples, self.n_chains)
        # The edge oracle is built per edge, so the target stays in the
        # payload here (one payload per edge; still memoized under a
        # runtime so repeated queries about one edge reuse it).
        plan = self._driver_plan()
        snapshot = graph.csr()
        payload = interned_payload(
            plan,
            (
                "multichain",
                "edge",
                id(self.base),
                id(graph),
                graph.version,
                (a, b),
                id(snapshot),
            ),
            lambda: _ChainPayload("edge", graph, self.base, (a, b), snapshot=snapshot),
        )
        tasks = [(i, rngs[i], budgets[i], (a, b)) for i in range(self.n_chains)]
        chains, _, evaluations = self._run_round(
            payload, tasks, _run_fixed_shard, plan, [None] * self.n_chains, rngs
        )
        return list(chains), evaluations

    def estimate(
        self,
        graph: Graph,
        edge: Tuple[Vertex, Vertex],
        num_samples: int,
        *,
        seed: RandomState = None,
    ) -> SingleEstimate:
        """Return the pooled edge-betweenness estimate from a total budget of *num_samples*."""
        n = graph.number_of_vertices()
        with timed() as clock:
            chains, evaluations = self.run_chains(graph, edge, num_samples, seed=seed)
            total = 0.0
            count = 0
            for states in chains:
                total += sum(state_contribution(s, self.base.estimator) for s in states)
                count += len(states)
            value = total / (count * max(n - 1, 1))
        traces = [[s.dependency for s in states] for states in chains]
        acceptance_rates = [
            sum(1 for s in states[1:] if s.accepted) / max(len(states) - 1, 1)
            for states in chains
        ]
        return SingleEstimate(
            vertex=edge,
            estimate=value,
            samples=sum(len(states) - 1 for states in chains),
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics={
                "acceptance_rate": sum(acceptance_rates) / len(acceptance_rates),
                "acceptance_rates": acceptance_rates,
                "rhat": split_rhat(traces),
                "ess": multichain_ess(traces),
                "estimator": self.base.estimator,
                "n_chains": self.n_chains,
                "n_jobs": self._run_plan.n_jobs,
                "evaluations": evaluations,
            },
        )
