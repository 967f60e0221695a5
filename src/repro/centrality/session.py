"""Warm, multi-query estimation sessions over one graph.

:func:`~repro.centrality.api.betweenness_single` and friends are one-shot:
every call pays full cold-start — a fresh worker pool, the graph re-shipped
to every worker, a fresh dependency arena, a fresh oracle.  A
:class:`BetweennessSession` amortises all of it behind the exact same
estimators: one :class:`~repro.execution.runtime.ExecutionContext` owns a
persistent worker pool, interned worker payloads and a cross-request
dependency arena, so query 1 warms what queries 2..N reuse.  The session's
warm oracles read the arena's rows in place: each warm row is held once,
and an oracle keeps a private row only when a full arena refuses it.

Example
-------
>>> from repro.graphs import barbell_graph
>>> from repro.centrality import BetweennessSession
>>> g = barbell_graph(6, 2)
>>> with BetweennessSession(g) as s:
...     a = s.estimate(6, samples=200, seed=7)
...     b = s.estimate(6, samples=200, seed=7)   # warm: oracle hits
>>> a.estimate == b.estimate
True

Determinism contract
--------------------
A session result is **bit-identical** to the cold per-call API result for
the same knobs and seed: per-request rng streams are derived from the
request's seed (never from session state), and every piece of warm state —
arena rows, oracle caches, installed payloads — serves dependency vectors
that are bit-identical to what a cold run would recompute (the kernel
contract of :mod:`repro.shortest_paths.batch`).  Only work counters
(``evaluations``) and wall-clock move; ``benchmarks/bench_e14_session.py``
is the receipt.

Mutating the session's graph between queries is allowed: the next query
notices the version stamp and re-syncs the warm state before answering —
bit-identical to a cold call on the mutated graph.  The sync is
*delta-scoped* when the graph's change journal proves an affected-source
region (:mod:`repro.incremental`): only affected arena rows and oracle
vectors are evicted, the rest keep serving, and the
:class:`~repro.incremental.InvalidationReceipt` returned by
:meth:`BetweennessSession.refresh_warm_state` itemises what survived.
Retention never changes an answer — the affected region over-approximates
every source whose dependency vector could differ, so retained vectors
are bit-identical to a cold recompute on the mutated graph.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro._rng import RandomState, ensure_rng
from repro.centrality.api import (
    DEFAULT_CHAINS,
    MCMC_SINGLE_METHODS,
    SINGLE_VERTEX_METHODS,
)
from repro.errors import ConfigurationError
from repro.incremental import InvalidationReceipt
from repro.exact.brandes import betweenness_centrality
from repro.exact.single_vertex import betweenness_of_vertex
from repro.execution import ExecutionContext, ExecutionPlan, resolve_plan
from repro.graphs.core import Graph, Vertex
from repro.graphs.utils import ensure_connected
from repro.mcmc.joint import JointSpaceMHSampler, RelativeBetweennessEstimate
from repro.mcmc.multichain import MultiChainJointSampler, MultiChainMHSampler
from repro.samplers.base import SingleEstimate

__all__ = ["BetweennessSession", "SessionChain", "ThreadSafeSession"]


class BetweennessSession:
    """A warm execution context plus the estimator registry it serves.

    Parameters
    ----------
    graph:
        The graph every query of this session runs against.  It may be
        mutated between queries — the session invalidates its warm state on
        the next call (see the module docstring) — but must stay connected
        while ``check_connected`` is on (the paper's standing assumption).
    plan:
        Optional :class:`~repro.execution.ExecutionPlan` fixing the
        execution knobs of every query: worker count and
        multiprocessing start method.  ``None`` resolves from the
        ``REPRO_*`` environment overrides, then the plan defaults, like
        every estimator does.
    arena_capacity:
        Rows of the persistent dependency arena (``None`` = byte-budget
        heuristic, see :func:`repro.execution.runtime.default_arena_rows`).
    check_connected:
        Verify connectivity at session start and again after any mutation.

    Use as a context manager (or call :meth:`close`): the session owns
    worker processes and a shared-memory segment.
    """

    def __init__(
        self,
        graph: Graph,
        plan: Optional[ExecutionPlan] = None,
        *,
        arena_capacity: Optional[int] = None,
        check_connected: bool = True,
    ) -> None:
        self.graph = graph
        self.plan = resolve_plan(plan)
        self.check_connected = bool(check_connected)
        self._context = ExecutionContext(
            n_jobs=self.plan.n_jobs,
            mp_context=self.plan.mp_context,
            arena_capacity=arena_capacity,
        )
        self._estimators: Dict[object, object] = {}
        self._oracles: Dict[object, object] = {}
        self._chains: List["SessionChain"] = []
        self._plan_with_runtime = dataclasses.replace(self.plan, runtime=self._context)
        self._queries = 0
        self._closed = False
        if self.check_connected:
            ensure_connected(graph)
        # Stamp by reference *and* version: replacing ``session.graph``
        # with a different object must invalidate exactly like a mutation,
        # even when the two graphs happen to share a version number.  The
        # *settled* version is stamped so a session opened (or synced)
        # inside an open batch_mutations() block keeps the batch window
        # pending and re-syncs once the batch closes.
        self._stamped_graph = graph
        self._version = graph.settled_version()
        self._context.refresh(graph)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def context(self) -> ExecutionContext:
        """The session's warm :class:`~repro.execution.runtime.ExecutionContext`."""
        return self._context

    def _begin(self) -> None:
        """Per-query entry: closed-check and graph-change handling."""
        if self._closed:
            raise ConfigurationError("the session has been closed")
        self._sync_graph()
        self._queries += 1

    def _sync_graph(self) -> Optional[InvalidationReceipt]:
        """Reconcile warm state with the graph; return the receipt (``None`` if in sync).

        The graph changed since the last query (mutated, or the ``graph``
        attribute was rebound to another object) exactly when the stamp
        below mismatches.  The context scopes its own invalidation (arena
        rows, payload memo) through the change journal; this method extends
        the same receipt over the state the session owns — warm oracle
        vectors and open :class:`SessionChain` continuations — using the
        identical affected-source mask, so every layer retains or evicts
        the same region.  An oracle's vectors are the ones it can serve:
        the arena rows it reads in place plus its private overflow.
        """
        if self.graph is self._stamped_graph and self.graph.version == self._version:
            return None
        receipt = self._context.refresh(self.graph)
        delta = receipt.mode == "delta"
        mask = self._context.last_affected_mask() if delta else None
        for oracle in self._oracles.values():
            evicted, retained = oracle.apply_delta(mask) if delta else (oracle.cached_count(), 0)
            if oracle.shared_store is not None:
                evicted += receipt.arena_rows_evicted
                retained += receipt.arena_rows_retained
            receipt.oracle_vectors_evicted += evicted
            receipt.oracle_vectors_retained += retained
        if not delta:
            # Full invalidation destroyed the arena: cached oracles hold
            # handles into the dead shared store and must be rebuilt.
            self._oracles.clear()
        for chain in self._chains:
            chain._note_invalidation(receipt)
        if self.check_connected:
            ensure_connected(self.graph)
        self._stamped_graph = self.graph
        # Settled stamp: a query issued inside an open batch_mutations()
        # block must not seal the batch's still-accumulating version, or
        # the post-batch query would skip the rest of the window and serve
        # stale warm vectors.  Re-consuming the window on the next sync is
        # idempotent (eviction of an evicted row is a no-op).
        self._version = self.graph.settled_version()
        return receipt

    def refresh_warm_state(self) -> InvalidationReceipt:
        """Eagerly reconcile warm state after a mutation; return the receipt.

        Normally the next query pays the sync; calling this right after
        mutating moves that work off the query path and hands back the
        :class:`~repro.incremental.InvalidationReceipt` saying what was
        evicted and what survived — the serving layer calls it under its
        write lock so every mutate response can carry the receipt.  With
        no pending change the receipt is mode ``"noop"`` (the
        idempotent-mutate signal: warm keys stay valid).
        """
        if self._closed:
            raise ConfigurationError("the session has been closed")
        receipt = self._sync_graph()
        if receipt is None:
            receipt = InvalidationReceipt(
                mode="noop",
                version_from=self.graph.version,
                version_to=self.graph.version,
            )
        return receipt

    def _record_passes(self, count) -> None:
        """Report a query's Brandes-pass count into the context's counter."""
        if isinstance(count, (int, float)) and not isinstance(count, bool):
            self._context.record_passes(int(count))

    def _sampler(self, method: str):
        """Memoized per-method estimator, constructed exactly like the cold API."""
        key = ("single", method)
        sampler = self._estimators.get(key)
        if sampler is None:
            sampler = SINGLE_VERTEX_METHODS[method]()
            sampler.plan = self._plan_with_runtime
            self._estimators[key] = sampler
        return sampler

    def _oracle(self, kind: str, sampler):
        """Memoized warm dependency oracle, reading the session's arena in place.

        Keyed by *kind* alone — not the graph version: a mutation no longer
        retires a warm oracle wholesale.  :meth:`_sync_graph` either evicts
        only its affected vectors (delta mode, via
        :meth:`~repro.mcmc.estimates.DependencyOracle.apply_delta`) or
        clears the memo (full mode), so an entry found here is always bound
        to the current snapshot.
        """
        key = kind
        oracle = self._oracles.get(key)
        if oracle is None:
            store = self._context.dependency_arena(self.graph)
            oracle = sampler.build_oracle(self.graph, shared_store=store)
            self._oracles[key] = oracle
        return oracle

    def _multichain_driver(
        self, method: str, n_chains: Optional[int], rhat_target: Optional[float]
    ) -> MultiChainMHSampler:
        key = ("multichain", method, n_chains, rhat_target)
        driver = self._estimators.get(key)
        if driver is None:
            # Mirrors the cold API: the driver owns the pool work (chains
            # are the unit of parallel work); the base keeps batch-prefetching.
            base = SINGLE_VERTEX_METHODS[method]()
            base.plan = self.plan
            driver = MultiChainMHSampler(
                base,
                n_chains=n_chains if n_chains is not None else DEFAULT_CHAINS,
                rhat_target=rhat_target,
            )
            driver.plan = self._plan_with_runtime
            self._estimators[key] = driver
        return driver

    def _joint_sampler(self) -> JointSpaceMHSampler:
        key = ("joint",)
        sampler = self._estimators.get(key)
        if sampler is None:
            sampler = JointSpaceMHSampler()
            sampler.plan = self._plan_with_runtime
            self._estimators[key] = sampler
        return sampler

    def _joint_driver(self, n_chains: int) -> MultiChainJointSampler:
        key = ("joint-multichain", n_chains)
        driver = self._estimators.get(key)
        if driver is None:
            base = JointSpaceMHSampler()
            base.plan = self.plan
            driver = MultiChainJointSampler(base, n_chains=n_chains)
            driver.plan = self._plan_with_runtime
            self._estimators[key] = driver
        return driver

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def estimate(
        self,
        r: Vertex,
        *,
        method: str = "mh",
        samples: int = 200,
        seed: RandomState = None,
        n_chains: Optional[int] = None,
        rhat_target: Optional[float] = None,
    ) -> SingleEstimate:
        """Estimate ``BC(r)`` — the warm twin of :func:`betweenness_single`.

        Same methods, same semantics, bit-identical results at a fixed
        seed; the session's plan supplies the execution knobs.  MCMC
        queries read and publish dependency vectors through the session's
        persistent arena and warm oracles, so sources any earlier query
        touched are cache hits here.
        """
        if method not in SINGLE_VERTEX_METHODS:
            raise ConfigurationError(
                f"unknown method {method!r}; expected one of "
                f"{sorted(SINGLE_VERTEX_METHODS)}"
            )
        multichain = n_chains is not None or rhat_target is not None
        if multichain and method not in MCMC_SINGLE_METHODS:
            raise ConfigurationError(
                f"n_chains / rhat_target apply to the MCMC methods "
                f"{sorted(MCMC_SINGLE_METHODS)} only; got {method!r}"
            )
        self._begin()
        if multichain:
            driver = self._multichain_driver(method, n_chains, rhat_target)
            result = driver.estimate(self.graph, r, samples, seed=seed)
        else:
            sampler = self._sampler(method)
            if method in MCMC_SINGLE_METHODS:
                oracle = self._oracle("single", sampler)
                result = sampler.estimate(
                    self.graph, r, samples, seed=seed, oracle=oracle
                )
            else:
                result = sampler.estimate(self.graph, r, samples, seed=seed)
        self._record_passes(result.diagnostics.get("evaluations"))
        return result

    def relative(
        self,
        reference_set: Sequence[Vertex],
        *,
        samples: int = 1000,
        seed: RandomState = None,
        n_chains: Optional[int] = None,
    ) -> RelativeBetweennessEstimate:
        """Pairwise relative scores of *reference_set* — warm twin of
        :func:`relative_betweenness`."""
        self._begin()
        if n_chains is not None:
            driver = self._joint_driver(n_chains)
            estimate = driver.estimate_relative(
                self.graph, reference_set, samples, seed=seed
            )
        else:
            sampler = self._joint_sampler()
            oracle = self._oracle("joint", sampler)
            estimate = sampler.estimate_relative(
                self.graph, reference_set, samples, seed=seed, oracle=oracle
            )
        self._record_passes(estimate.diagnostics.get("evaluations"))
        return estimate

    def ranking(
        self,
        vertices: Union[int, Iterable[Vertex], None] = None,
        *,
        k: Optional[int] = None,
        samples: int = 1000,
        seed: RandomState = None,
        n_chains: Optional[int] = None,
    ) -> List[Vertex]:
        """Rank vertices by estimated betweenness (descending), warm.

        ``ranking(5)`` ranks every vertex of the graph and returns the top
        5; ``ranking([...], k=3)`` restricts the candidate set.  Built on
        the joint-space chain of :meth:`relative`, so the ranking shares
        the session's warm arena with every other query.
        """
        if isinstance(vertices, int) and k is None:
            k, vertices = vertices, None
        members = list(vertices) if vertices is not None else self.graph.vertices()
        # No _begin() here: the delegated relative() performs it, and one
        # user-visible query must count once in stats().
        estimate = self.relative(members, samples=samples, seed=seed, n_chains=n_chains)
        ranked = estimate.ranking()
        return ranked if k is None else ranked[:k]

    def exact(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        *,
        normalization: str = "paper",
    ) -> Dict[Vertex, float]:
        """Exact Brandes scores — warm twin of :func:`betweenness_exact`.

        The per-source passes run on the session's persistent pool against
        the interned CSR payload (shipped once).
        """
        self._begin()
        plan = self._plan_with_runtime
        n = self.graph.number_of_vertices()
        if vertices is None:
            scores = betweenness_centrality(
                self.graph, normalization=normalization, plan=plan
            )
            # Brandes runs one pass per source.
            self._record_passes(n)
            return scores
        scores = {
            v: betweenness_of_vertex(
                self.graph,
                v,
                normalization=normalization,
                plan=plan,
            )
            for v in vertices
        }
        # Each single-vertex query accumulates every source's dependency on
        # its target: n passes per requested vertex.
        self._record_passes(n * len(scores))
        return scores

    def open_chain(
        self, r: Vertex, *, method: str = "mh", seed: RandomState = None
    ) -> "SessionChain":
        """Open a persistent MH chain targeting ``BC(r)`` that survives mutations.

        The returned :class:`SessionChain` is advanced in segments; between
        segments the session may mutate its graph, and the chain *continues*
        from its last state whenever the mutation's affected region excludes
        that state — restarting only when the region (or a full
        invalidation) touches it.  A continued chain's historical samples
        keep their pre-mutation dependency values (see the
        :class:`SessionChain` docstring for what its running estimate
        then means).  Close the chain (or the session) when done.
        """
        if self._closed:
            raise ConfigurationError("the session has been closed")
        if method not in MCMC_SINGLE_METHODS:
            raise ConfigurationError(
                f"open_chain supports the MCMC methods "
                f"{sorted(MCMC_SINGLE_METHODS)} only; got {method!r}"
            )
        self.graph.validate_vertex(r)
        chain = SessionChain(self, r, method=method, seed=seed)
        self._chains.append(chain)
        return chain

    # ------------------------------------------------------------------
    # Lifecycle + diagnostics
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Warm-state diagnostics: query counters plus the context's stamp.

        ``brandes_passes`` is the lifetime pass count of the session's
        queries (the context's :meth:`~repro.execution.runtime
        .ExecutionContext.record_passes` counter — monotone, surviving
        graph mutation), which is what the serving layer's Prometheus
        exporter scrapes.  ``oracle_private_rows`` counts the rows the warm
        oracles hold outside the arena (those a full arena refused): each
        warm row is held once, so it stays 0 while the arena has room.
        """
        context = self._context.stats()
        return {
            "queries": self._queries,
            "graph_version": self.graph.version,
            "brandes_passes": context.get("brandes_passes", 0),
            "warm_oracles": len(self._oracles),
            "oracle_private_rows": sum(o.cached_count() for o in self._oracles.values()),
            "warm_estimators": len(self._estimators),
            "open_chains": len(self._chains),
            "context": context,
        }

    def close(self) -> None:
        """Release the pool and the arena (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._context.close()
        self._estimators.clear()
        self._oracles.clear()
        for chain in list(self._chains):
            chain.close()

    def __enter__(self) -> "BetweennessSession":
        if self._closed:
            raise ConfigurationError("the session has been closed")
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SessionChain:
    """One Metropolis-Hastings chain pinned to a session, surviving mutations.

    Created through :meth:`BetweennessSession.open_chain`.  Each
    :meth:`advance` call runs another segment through the session's warm
    sampler and oracle (:meth:`~repro.mcmc.single.SingleSpaceMHSampler
    .extend_chain` — one rng stream, one growing
    :class:`~repro.mcmc.single.ChainResult`).  When the session's graph
    mutates, the session pushes the invalidation receipt here: the chain
    keeps its trajectory when the affected-source region excludes its
    current state — the stored ``dependency[-1]`` is then still the
    correct score on the mutated graph, so the continuation is a valid MH
    chain — and schedules a restart otherwise.  ``receipt
    .chains_continued`` / ``chains_restarted`` record the verdicts.

    Note the scope of the determinism contract: a continued chain is a
    valid chain on the mutated graph, but it is *not* the trajectory a
    fresh cold chain would walk — chains are stateful by design, unlike
    the session's query methods.  The continuation check covers only the
    chain's *current* state: historical states keep the dependency values
    they were scored with at the time, so after a continued mutation the
    running :meth:`estimate` (which averages over every kept state) may
    mix pre-mutation and post-mutation dependency values until the chain
    restarts.  Restart the chain (or open a fresh one) when the estimate
    must reflect only the mutated graph.
    """

    def __init__(
        self,
        session: BetweennessSession,
        r: Vertex,
        *,
        method: str = "mh",
        seed: RandomState = None,
    ) -> None:
        self._session = session
        self.target = r
        self.method = method
        self._rng = ensure_rng(seed)
        self._result = None
        self._needs_restart = False
        self.continuations = 0
        self.restarts = 0
        self._closed = False

    @property
    def result(self):
        """The accumulated :class:`~repro.mcmc.single.ChainResult` (``None`` before the first segment)."""
        return self._result

    def _note_invalidation(self, receipt: InvalidationReceipt) -> None:
        """Session push on mutation: decide continue-vs-restart, bill the receipt."""
        if self._result is None or self._closed:
            return
        if receipt.mode == "delta":
            mask = self._session._context.last_affected_mask()
            index = self._session.graph.csr().find_index(self._result.vertex[-1])
            unsafe = index is None or bool(mask[index])
        else:
            unsafe = True
        # A pending restart from an earlier un-advanced mutation sticks:
        # a later safe mutation cannot resurrect the stale trajectory.
        self._needs_restart = self._needs_restart or unsafe
        if self._needs_restart:
            receipt.chains_restarted += 1
        else:
            receipt.chains_continued += 1

    def advance(self, num_iterations: int):
        """Run *num_iterations* more chain steps; return the accumulated result."""
        if self._closed:
            raise ConfigurationError("the chain has been closed")
        session = self._session
        session._begin()
        sampler = session._sampler(self.method)
        oracle = session._oracle("single", sampler)
        if self._result is not None and not self._needs_restart:
            evaluations_before = self._result.evaluations
            self._result = sampler.extend_chain(
                session.graph,
                self.target,
                self._result,
                num_iterations,
                rng=self._rng,
                oracle=oracle,
            )
            self.continuations += 1
        else:
            evaluations_before = 0
            if self._result is not None:
                self.restarts += 1
            self._needs_restart = False
            self._result = sampler.run_chain(
                session.graph,
                self.target,
                num_iterations,
                seed=self._rng,
                oracle=oracle,
            )
        # ``evaluations`` accumulates across segments; bill only this one.
        session._record_passes(self._result.evaluations - evaluations_before)
        return self._result

    def estimate(self, estimator: str = "chain") -> float:
        """The running betweenness estimate of the accumulated chain.

        Averages over every kept state of the accumulated trajectory.
        After a mutation the chain continued across, states recorded
        before the mutation retain their pre-mutation dependency values
        (only the current state is verified against the affected region),
        so this estimate can mix old-graph and new-graph values until the
        chain restarts — see the class docstring.
        """
        if self._result is None:
            raise ConfigurationError("advance the chain before reading an estimate")
        return self._result.estimate(estimator)

    def close(self) -> None:
        """Detach from the session (idempotent); the result stays readable."""
        if self._closed:
            return
        self._closed = True
        try:
            self._session._chains.remove(self)
        except ValueError:
            pass


class ThreadSafeSession:
    """Serialise every operation of a :class:`BetweennessSession` behind one lock.

    A :class:`BetweennessSession` is single-threaded by design: its warm
    state (estimator memos, oracles, the context's payload memo and arena
    bookkeeping) is mutated on the query path without synchronisation, and
    the determinism contract assumes queries observe the graph one at a
    time.  Multi-threaded callers — the HTTP daemon of
    :mod:`repro.serving`, where every request runs on its own handler
    thread — wrap the session in this proxy instead: one reentrant lock
    serialises queries, mutations and stats reads, so each query sees a
    consistent graph version and the receipts it stamps can never interleave
    with a mutation.

    Serialising queries does not serialise the *work*: a plan with
    ``n_jobs > 1`` still fans each query out over the session's persistent
    worker pool.  The lock orders queries, the pool parallelises within
    one.

    ``mutate(fn)`` is the one write entry point: it runs ``fn(graph)`` under
    the lock and returns the graph's new version, so a registry can apply
    edge upserts without racing an in-flight query.
    """

    def __init__(self, session: BetweennessSession) -> None:
        self._session = session
        self._lock = threading.RLock()

    @property
    def session(self) -> BetweennessSession:
        """The wrapped session (lock yourself before touching its state)."""
        return self._session

    @property
    def lock(self) -> "threading.RLock":
        """The serialising lock (reentrant; exposed for compound operations)."""
        return self._lock

    @property
    def graph(self) -> Graph:
        return self._session.graph

    def estimate(self, *args, **kwargs) -> SingleEstimate:
        with self._lock:
            return self._session.estimate(*args, **kwargs)

    def relative(self, *args, **kwargs) -> RelativeBetweennessEstimate:
        with self._lock:
            return self._session.relative(*args, **kwargs)

    def ranking(self, *args, **kwargs) -> List[Vertex]:
        with self._lock:
            return self._session.ranking(*args, **kwargs)

    def exact(self, *args, **kwargs) -> Dict[Vertex, float]:
        with self._lock:
            return self._session.exact(*args, **kwargs)

    def mutate(self, fn) -> InvalidationReceipt:
        """Run ``fn(graph)`` under the lock; return the invalidation receipt.

        The warm-state sync runs eagerly (still under the lock) via
        :meth:`BetweennessSession.refresh_warm_state`, so the returned
        :class:`~repro.incremental.InvalidationReceipt` tells the caller
        exactly what the mutation cost — mode ``"noop"`` when every op
        no-opped (warm keys stay valid), ``"delta"`` with retention
        counts, or ``"full"`` with the fallback reason.  Queries are
        serialised behind the same lock, so a response can never carry a
        stale graph version.
        """
        with self._lock:
            fn(self._session.graph)
            return self._session.refresh_warm_state()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return self._session.stats()

    def close(self) -> None:
        with self._lock:
            self._session.close()

    def __enter__(self) -> "ThreadSafeSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
