"""The single-space Metropolis-Hastings sampler (Section 4.2 of the paper).

Given a graph *G* and a target vertex *r*, the sampler runs a Markov chain on
the state space ``V(G)``:

1. the initial state ``v_0`` is chosen uniformly at random;
2. at each iteration a candidate ``v'`` is proposed (uniformly at random in
   the paper's formulation — an *Independence* Metropolis-Hastings chain);
3. the move is accepted with probability
   ``min{1, delta_{v'.}(r) / delta_{v.}(r)}`` (Equation 6).

The stationary distribution is the optimal source distribution of
Equation 5, and the betweenness estimate (Equation 7) is the chain average of
``f(v) = delta_{v.}(r) / (|V| - 1)`` over the ``T + 1`` chain states
(a rejected proposal repeats the current state, as in any Metropolis-Hastings
average).  Theorem 1 gives the (ε, δ) guarantee; the corresponding
quantities live in :mod:`repro.mcmc.bounds`.

A note on the estimator (reproduction finding)
----------------------------------------------
Equation 7 averages ``f`` over the Markov-chain states, whose stationary
distribution is the dependency-proportional distribution of Equation 5 — so
the chain average converges to the *π-weighted* mean of the dependency
scores, not to their uniform mean ``BC(r)``.  The two coincide exactly when
the dependency scores are flat across sources (µ(r) = 1, e.g. perfectly
balanced separators) and the gap grows with their variance.  The
reproduction therefore exposes three estimator read-outs:

* ``"chain"`` (default) — the paper's Equation 7, faithful to the published
  algorithm;
* ``"proposal"`` — a corrected, unbiased variant that averages the
  dependency scores of the *proposed* candidates (which are i.i.d. uniform
  in the Independence chain and are evaluated anyway for the acceptance
  test), so it costs nothing extra;
* ``"accepted"`` — the alternative literal reading of "samples accepted by
  our sampler" (accepted proposals only, still divided by T + 1), included
  so benchmark E8 can show it is not consistent either.

EXPERIMENTS.md quantifies the bias of the ``"chain"`` read-out across the
benchmark datasets.

Beyond the paper's algorithm, the class exposes further ablation knobs used
by benchmark E8 and discussed as natural variations:

* ``proposal`` — ``"uniform"`` (the paper), ``"degree"`` (independence
  proposal proportional to vertex degree) or ``"random-walk"`` (propose a
  uniform neighbour of the current state).  Non-uniform proposals use the
  general Metropolis-Hastings acceptance ratio so the stationary distribution
  is unchanged.
* ``burn_in`` — number of initial states discarded.  Theorem 1 holds without
  burn-in (the paper stresses this); the option exists to verify empirically
  that burn-in is indeed unnecessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._rng import RandomState, ensure_rng, randbelow_block, random_block, spawn_rng
from repro.errors import ConfigurationError, SamplingError
from repro.graphs.core import Graph, Vertex
from repro.mcmc.estimates import DependencyOracle
from repro.samplers.base import ExecutionPlanMixin, SingleEstimate, SingleVertexEstimator, timed

__all__ = [
    "ChainState",
    "ChainResult",
    "SingleSpaceMHSampler",
    "PROPOSALS",
    "ESTIMATORS",
    "state_contribution",
]

#: Supported proposal mechanisms.
PROPOSALS = ("uniform", "degree", "random-walk")

#: Supported estimator read-outs (see the module docstring).
ESTIMATORS = ("chain", "proposal", "accepted")


def state_contribution(state, estimator: str) -> float:
    """Return one chain state's contribution to the given estimator read-out.

    The per-state form of the three read-outs (``"chain"`` /
    ``"proposal"`` / ``"accepted"``, see the module docstring), used by the
    edge samplers, whose states duck-type :class:`ChainState`;
    :meth:`ChainResult.contributions` is the column form.  Rejected
    proposals contribute exactly ``0.0`` to the ``"accepted"`` read-out,
    which leaves float totals bit-identical to a filtered sum.
    """
    if estimator == "chain":
        return state.dependency
    if estimator == "proposal":
        return state.proposal_dependency
    return state.proposal_dependency if state.accepted else 0.0


@dataclass
class ChainState:
    """One state of the Markov chain, with the bookkeeping the analysis layer needs.

    ``proposal_dependency`` records the dependency score of the candidate
    proposed at this iteration (equal to ``dependency`` for the initial
    state); the ``"proposal"`` estimator read-out averages these values.
    """

    iteration: int
    vertex: Vertex
    dependency: float
    accepted: bool
    proposal_dependency: float = 0.0


@dataclass(eq=False)
class ChainResult:
    """Full record of one chain run, stored as columns.

    Entry ``t`` of every column describes state ``t`` (the initial state
    first, ``T + 1`` entries).  :attr:`states` builds the per-state
    :class:`ChainState` objects on demand; the read-outs use the columns.

    Attributes
    ----------
    target:
        The vertex *r* whose betweenness is being estimated.
    vertex:
        The state's vertex.  A rejected proposal repeats its predecessor.
    dependency:
        ``float64`` array of the state's dependency score δ_{v·}(r).
    accepted:
        ``bool`` array: whether the proposal of this iteration was
        accepted (``True`` for the initial state).
    proposal_dependency:
        ``float64`` array of the proposed candidate's dependency score
        (the initial state's own score at index 0).
    num_vertices:
        ``|V(G)|`` at run time, needed to scale Equation 7.
    burn_in:
        Number of leading states excluded from the estimate.
    evaluations:
        Number of Brandes passes actually performed (cache misses).
    screened:
        Number of missing sources the oracle's zero-dependency screen
        answered without a pass (:attr:`DependencyOracle.screened`).
    """

    target: Vertex
    vertex: List[Vertex]
    dependency: np.ndarray
    accepted: np.ndarray
    proposal_dependency: np.ndarray
    num_vertices: int
    burn_in: int = 0
    evaluations: int = 0
    screened: int = 0

    # ------------------------------------------------------------------
    @property
    def states(self) -> List[ChainState]:
        """The ``T + 1`` chain states (initial state first), built on demand."""
        return self._materialise(0)

    def chain_length(self) -> int:
        """Return ``T`` (the number of iterations, excluding the initial state)."""
        return max(len(self.vertex) - 1, 0)

    def kept_states(self) -> List[ChainState]:
        """Return the states that participate in the estimate (after burn-in)."""
        return self._materialise(self.burn_in)

    def _materialise(self, start: int) -> List[ChainState]:
        return [
            ChainState(i, v, d, a, p)
            for i, v, d, a, p in zip(
                range(start, len(self.vertex)),
                self.vertex[start:],
                self.dependency[start:].tolist(),
                self.accepted[start:].tolist(),
                self.proposal_dependency[start:].tolist(),
            )
        ]

    def acceptance_rate(self) -> float:
        """Return the fraction of proposals that were accepted."""
        proposals = len(self.accepted) - 1
        if proposals <= 0:
            return 0.0
        return int(np.count_nonzero(self.accepted[1:])) / proposals

    def visited_vertices(self) -> List[Vertex]:
        """Return the sequence of vertices visited (after burn-in)."""
        return list(self.vertex[self.burn_in :])

    def dependency_trace(self) -> List[float]:
        """Return the sequence of dependency scores (after burn-in)."""
        return self.dependency[self.burn_in :].tolist()

    def contributions(self, estimator: str = "chain") -> List[float]:
        """Return each kept state's contribution to the *estimator* read-out.

        The column form of :func:`state_contribution`: ``"chain"`` reads the
        state dependencies, ``"proposal"`` the candidate dependencies and
        ``"accepted"`` the candidate dependencies of accepted proposals
        (``0.0`` for rejected ones).  Python floats, so callers total them
        with builtin ``sum`` exactly like the per-state loop did.
        """
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
        start = self.burn_in
        if estimator == "chain":
            return self.dependency[start:].tolist()
        if estimator == "proposal":
            return self.proposal_dependency[start:].tolist()
        return np.where(
            self.accepted[start:], self.proposal_dependency[start:], 0.0
        ).tolist()

    # ------------------------------------------------------------------
    def estimate(self, estimator: str = "chain") -> float:
        """Return the betweenness estimate over the kept states.

        ``estimator`` selects the read-out described in the module
        docstring: ``"chain"`` is Equation 7 of the paper, ``"proposal"``
        the corrected unbiased variant, ``"accepted"`` the accepted-only
        alternative reading.
        """
        kept = self.contributions(estimator)
        if not kept:
            return 0.0
        scale = max(self.num_vertices - 1, 1)
        return sum(kept) / (len(kept) * scale)

    def running_estimates(self, estimator: str = "chain") -> List[float]:
        """Return the estimate after each kept state (used by the convergence benchmark E7)."""
        scale = max(self.num_vertices - 1, 1)
        estimates: List[float] = []
        total = 0.0
        for i, value in enumerate(self.contributions(estimator), start=1):
            total += value
            estimates.append(total / (i * scale))
        return estimates

    def empirical_distribution(self) -> Dict[Vertex, float]:
        """Return the empirical visit frequencies of the kept states.

        In the long run these approach the stationary distribution of
        Equation 5; the diagnostics module compares the two.
        """
        kept = self.vertex[self.burn_in :]
        counts: Dict[Vertex, float] = {}
        for vertex in kept:
            counts[vertex] = counts.get(vertex, 0.0) + 1.0
        total = float(len(kept))
        return {v: c / total for v, c in counts.items()}


def _accept_scan(cur, proposed, uniforms, current_weight=1, weights=None):
    """Run a segment's acceptance scan; return its ``(accepted, holder)`` columns.

    Step ``t`` (from 1) proposes ``proposed[t - 1]`` with uniform
    ``uniforms[t - 1]``; step 0 is the start state, of score *cur*.  The
    test is Equation 6 (or 17) with the proposal correction: accept iff
    ``u < (cand / cur) * (w_cur / w_cand)`` (``u < 1``, so a ratio of at
    least 1 always accepts).  Without *weights* the ratio is ``cand / cur``,
    the same float (``x * 1.0 == x``).  A current state with zero dependency
    has zero stationary probability, so any candidate is accepted.
    ``accepted[0]`` is ``True``; ``holder[t]`` is the last accepted step
    ``<= t``, so indexing ``[start] + candidates`` with it gives every state.
    """
    hits = []
    append = hits.append
    steps = range(1, len(proposed) + 1)
    if weights is None:
        for t, cand, u in zip(steps, proposed, uniforms):
            if cur <= 0.0 or u < cand / cur:
                cur = cand
                append(t)
    else:
        for t, cand, weight, u in zip(steps, proposed, weights, uniforms):
            if cur <= 0.0 or u < (cand / cur) * (current_weight / weight):
                cur = cand
                current_weight = weight
                append(t)
    accepted = np.zeros(len(proposed) + 1, dtype=bool)
    accepted[hits] = accepted[0] = True
    holder = np.zeros(len(proposed) + 1, dtype=np.intp)
    holder[hits] = hits
    return accepted, np.maximum.accumulate(holder)


class SingleSpaceMHSampler(ExecutionPlanMixin, SingleVertexEstimator):
    """Metropolis-Hastings estimator of the betweenness of a single vertex."""

    name = "mh-single"

    def __init__(
        self,
        *,
        proposal: str = "uniform",
        estimator: str = "chain",
        burn_in: int = 0,
        cache_size: Optional[int] = None,
        record_states: bool = True,
        n_jobs: Optional[int] = None,
    ) -> None:
        if proposal not in PROPOSALS:
            raise ConfigurationError(
                f"unknown proposal {proposal!r}; expected one of {PROPOSALS}"
            )
        if estimator not in ESTIMATORS:
            raise ConfigurationError(
                f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}"
            )
        if burn_in < 0:
            raise ConfigurationError("burn_in must be non-negative")
        self.proposal = proposal
        self.estimator = estimator
        self.burn_in = int(burn_in)
        self.cache_size = cache_size
        self.record_states = bool(record_states)
        #: Execution-engine knob (:mod:`repro.execution`), accepted for
        #: interface uniformity and unused: a chain is sequential.  The
        #: independence proposals draw their whole candidate sequence up
        #: front from a child stream and the oracle batch-computes its
        #: vectors, bit-identical however batched, so no ``n_jobs`` changes
        #: a chain.  The random-walk proposal draws each candidate from the
        #: main stream as the chain moves.
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    # Proposal machinery
    # ------------------------------------------------------------------
    @staticmethod
    def _propose_neighbor(graph: Graph, current: Vertex, rng):
        """Return a random-walk ``(candidate, proposal correction factor)``.

        The candidate is a uniform neighbour of the current state; the
        Metropolis-Hastings ratio needs the factor
        ``deg(current) / deg(candidate)``.
        """
        neighbors = list(graph.neighbors(current))
        if not neighbors:
            return current, 1.0
        candidate = neighbors[rng.randrange(len(neighbors))]
        correction = graph.degree(current) / max(graph.degree(candidate), 1)
        return candidate, correction

    def _draw_proposals(
        self, graph: Graph, vertices: Sequence[Vertex], rng, count: int
    ) -> Optional[Tuple[np.ndarray, Optional[List[int]]]]:
        """Pre-draw *count* independence-proposal candidates from a child stream.

        Returns ``(indices, weights)``: the candidates' positions in
        *vertices* (an ``intp`` array) and the degree proposal's weights
        ``max(deg, 1)`` (``None`` for the uniform proposal).  A degree draw
        picks the first vertex whose cumulative weight reaches
        ``random() * total``, all at once by :func:`numpy.searchsorted`.
        The child spawn advances *rng* the same whatever *count* is.
        Returns ``None`` for the random-walk proposal, whose candidates
        depend on the chain state.
        """
        if self.proposal == "random-walk":
            return None
        proposal_rng = spawn_rng(rng, 0)
        if self.proposal == "uniform":
            return randbelow_block(proposal_rng, len(vertices), count), None
        weights = [max(graph.degree(v), 1) for v in vertices]
        # Exact integers in float, so the first index with pick <= cum[i]
        # is the one the running float sum of the weights would stop at.
        cumulative = np.cumsum(weights).astype(np.float64)
        picks = random_block(proposal_rng, count) * sum(weights)
        indices = np.searchsorted(cumulative, picks, side="left")
        return np.minimum(indices, len(vertices) - 1), weights

    # ------------------------------------------------------------------
    # Chain
    # ------------------------------------------------------------------
    def build_oracle(self, graph: Graph, *, shared_store=None) -> DependencyOracle:
        """Return a :class:`DependencyOracle` configured like this sampler's private one.

        The single place the sampler's oracle knob (``cache_size``) turns
        into an oracle —
        :meth:`run_chain`, :meth:`extend_chain` and the multi-chain worker
        payload all construct through here, so a new oracle parameter can
        never silently diverge between the inline and pooled paths.
        *shared_store* attaches the multi-chain driver's cross-process
        dependency arena (:mod:`repro.execution.shared_cache`); ``None`` —
        the default for every direct use of this sampler — keeps the oracle
        fully private.
        """
        return DependencyOracle(
            graph,
            cache_size=self.cache_size,
            shared_store=shared_store,
        )

    def run_chain(
        self,
        graph: Graph,
        r: Vertex,
        num_iterations: int,
        *,
        seed: RandomState = None,
        oracle: Optional[DependencyOracle] = None,
        initial_state: Optional[Vertex] = None,
    ) -> ChainResult:
        """Run the Markov chain for ``T = num_iterations`` iterations and return its record.

        Parameters
        ----------
        graph, r:
            The graph and the target vertex.
        num_iterations:
            The chain length ``T``; the result holds ``T + 1`` states.
        seed:
            Randomness specification (``None``, an int, or a
            :class:`random.Random`).
        oracle:
            Optional shared :class:`DependencyOracle`; by default a private
            one is created honouring ``cache_size``.
        initial_state:
            Fix the initial state instead of drawing it uniformly — the
            theorems hold for any initial state, and the E3 benchmark uses a
            deliberately bad one to verify that.
        """
        graph.validate_vertex(r)
        if num_iterations < 1:
            raise ConfigurationError("num_iterations must be at least 1")
        if self.burn_in >= num_iterations + 1:
            raise ConfigurationError("burn_in must be smaller than the chain length")
        rng = ensure_rng(seed)
        if oracle is None:
            oracle = self.build_oracle(graph)
        vertices = graph.vertices()
        if len(vertices) < 2:
            raise SamplingError("the graph must contain at least two vertices")
        # Independence proposals don't depend on the chain state, so the
        # whole candidate sequence is drawn upfront from a child stream (the
        # main stream keeps the initial draw and the acceptance draws) and
        # read from the oracle in one bulk call.
        proposals = self._draw_proposals(graph, vertices, rng, num_iterations)

        evaluations_before, screened_before = oracle.evaluations, oracle.screened
        if initial_state is None:
            current = vertices[rng.randrange(len(vertices))]
        else:
            graph.validate_vertex(initial_state)
            current = initial_state
        current_delta, vertex, dependency, accepted, proposed = self._advance(
            graph, r, oracle, rng, vertices, current, None, num_iterations, proposals
        )
        vertex = [current] + vertex
        if not self.record_states:
            # Memory-lean mode: drop the vertex identities (they are
            # replaced by the target); the estimate needs only the scores.
            vertex = [r] * len(vertex)
        # Bill this run's own Brandes passes, not the oracle's lifetime
        # total: a warm oracle reused across requests (the session API, the
        # E8 ablation) would otherwise charge every past request's work to
        # the newest chain.  For a fresh oracle the delta equals the total.
        return ChainResult(
            target=r,
            vertex=vertex,
            dependency=np.concatenate(([current_delta], dependency)),
            accepted=np.concatenate(([True], accepted)),
            proposal_dependency=np.concatenate(([current_delta], proposed)),
            num_vertices=graph.number_of_vertices(),
            burn_in=self.burn_in,
            evaluations=oracle.evaluations - evaluations_before,
            screened=oracle.screened - screened_before,
        )

    def _advance(
        self,
        graph: Graph,
        r: Vertex,
        oracle: DependencyOracle,
        rng,
        vertices: Sequence[Vertex],
        current: Vertex,
        current_delta: Optional[float],
        num_iterations: int,
        proposals,
    ):
        """Advance the chain *num_iterations* steps from ``(current, current_delta)``.

        The shared engine of :meth:`run_chain` and :meth:`extend_chain`;
        returns ``current_delta`` and the segment's ``(vertex, dependency,
        accepted, proposal_dependency)`` columns, start state excluded.  A
        ``None`` *current_delta* (a fresh chain) is read from the oracle
        first — for the independence proposals as the lead row of the one
        bulk read, so the start state joins the candidates' prefetch.  The rng
        draws per step are exactly those of a fresh run (one acceptance
        draw per proposal), so a chain's trajectory is a pure function of
        its rng stream and its last state — never of which process or
        segment schedule produced it.

        The independence proposals run array-native: one bulk oracle read
        of every candidate's score by CSR index, the acceptance uniforms in
        one block (:func:`~repro._rng.random_block`: the same main-stream
        draws, in the same order, as one per step), the accept scan of
        :func:`_accept_scan`, and the state columns filled forward from
        the accepted steps.

        Exactly one uniform is consumed per proposal, *unconditionally*
        (drawing and ignoring when the ratio exceeds 1 is statistically
        identical to not drawing).  An earlier revision drew only when
        ``ratio < 1``, which broke the identical-rng-stream promise between
        two dependency evaluators (the CSR kernels and the dict-kernel
        reference): symmetric dependency scores put the true ratio at
        exactly 1, last-ulp accumulation drift landed one side at
        ``1 + ε`` and the other at ``1 - ε``, only one of them consumed a
        draw, and the chains diverged structurally from there.
        """
        if proposals is None:
            if current_delta is None:
                current_delta = oracle.dependency(current, r)
            return (current_delta,) + self._random_walk(
                graph, r, oracle, rng, current, current_delta, num_iterations
            )
        indices, weights = proposals
        pool = np.concatenate(([graph.csr().index_of(current)], indices))
        lead = current_delta is None
        sources = oracle.source_indices(graph, pool if lead else indices)
        proposed = oracle.dependency_rows(sources, [r], prefetch=True, skip_self_lookups=True)[:, 0]
        if lead:
            current_delta = float(proposed[0])
            proposed = proposed[1:]
        uniforms = random_block(rng, num_iterations).tolist()
        correction = ()
        if weights is not None:
            correction = (max(graph.degree(current), 1), [weights[i] for i in indices.tolist()])
        accepted, holder = _accept_scan(current_delta, proposed.tolist(), uniforms, *correction)
        holder = holder[1:]
        vertex = list(map(vertices.__getitem__, pool[holder].tolist()))
        dependency = np.concatenate(([current_delta], proposed))[holder]
        return current_delta, vertex, dependency, accepted[1:], proposed

    def _random_walk(self, graph, r, oracle, rng, current, current_delta, num_iterations):
        """The per-step loop of the state-dependent random-walk proposal.

        Each candidate is a neighbour of the current state, drawn from the
        main stream right before that step's acceptance uniform, so the
        steps cannot be block-drawn; the loop writes the same columns as
        the array-native path.
        """
        vertex: List[Vertex] = []
        dependency: List[float] = []
        accepted: List[bool] = []
        proposed: List[float] = []
        for _ in range(num_iterations):
            candidate, correction = self._propose_neighbor(graph, current, rng)
            candidate_delta = oracle.dependency(candidate, r)
            u = rng.random()
            if current_delta <= 0.0:
                ok = True
            else:
                ratio = (candidate_delta / current_delta) * correction
                ok = ratio >= 1.0 or u < ratio
            if ok:
                current, current_delta = candidate, candidate_delta
            vertex.append(current)
            dependency.append(current_delta)
            accepted.append(ok)
            proposed.append(candidate_delta)
        return (
            vertex,
            np.array(dependency, dtype=float),
            np.array(accepted, dtype=bool),
            np.array(proposed, dtype=float),
        )

    def extend_chain(
        self,
        graph: Graph,
        r: Vertex,
        chain: ChainResult,
        num_iterations: int,
        *,
        rng: RandomState = None,
        oracle: Optional[DependencyOracle] = None,
    ) -> ChainResult:
        """Continue *chain* for *num_iterations* more iterations and return the longer record.

        The segment entry point of the multi-chain driver's adaptive mode
        (:mod:`repro.mcmc.multichain`): a chain is run in checkpointed
        segments, and between segments only ``(rng, last state)`` matter —
        the dependency scores the oracle returns are deterministic, so the
        continuation is bit-identical whether the oracle is the original
        instance, a rebuilt one in another process, or freshly empty.  An
        independence-proposal continuation spawns a new proposal child
        stream from *rng* per segment (mirroring :meth:`run_chain`), so a
        segmented chain is a valid Metropolis-Hastings chain but *not* the
        same trajectory a single unsegmented run walks.

        Requires ``record_states=True`` (the memory-lean mode discards the
        vertex identities the continuation needs).  The input *chain* is not
        mutated.
        """
        graph.validate_vertex(r)
        if num_iterations < 1:
            raise ConfigurationError("num_iterations must be at least 1")
        if not chain.vertex:
            raise ConfigurationError("cannot extend an empty chain")
        if not self.record_states:
            raise ConfigurationError(
                "extend_chain requires record_states=True; the lean mode drops "
                "the vertex identities that seed the continuation"
            )
        rng = ensure_rng(rng)
        if oracle is None:
            oracle = self.build_oracle(graph)
        vertices = graph.vertices()
        proposals = self._draw_proposals(graph, vertices, rng, num_iterations)
        evaluations_before, screened_before = oracle.evaluations, oracle.screened
        _, vertex, dependency, accepted, proposed = self._advance(
            graph,
            r,
            oracle,
            rng,
            vertices,
            chain.vertex[-1],
            float(chain.dependency[-1]),
            num_iterations,
            proposals,
        )
        # The chain's running total plus this segment's passes only — a
        # shared oracle's counter includes other chains' work, which must
        # not be billed to this record.
        return ChainResult(
            target=chain.target,
            vertex=chain.vertex + vertex,
            dependency=np.concatenate((chain.dependency, dependency)),
            accepted=np.concatenate((chain.accepted, accepted)),
            proposal_dependency=np.concatenate((chain.proposal_dependency, proposed)),
            num_vertices=chain.num_vertices,
            burn_in=chain.burn_in,
            evaluations=chain.evaluations + (oracle.evaluations - evaluations_before),
            screened=chain.screened + (oracle.screened - screened_before),
        )

    # ------------------------------------------------------------------
    # Estimator interface
    # ------------------------------------------------------------------
    def estimate(
        self,
        graph: Graph,
        r: Vertex,
        num_samples: int,
        *,
        seed: RandomState = None,
        oracle: Optional[DependencyOracle] = None,
        initial_state: Optional[Vertex] = None,
    ) -> SingleEstimate:
        """Return the Equation 7 estimate of ``BC(r)`` from a chain of length *num_samples*."""
        with timed() as clock:
            chain = self.run_chain(
                graph,
                r,
                num_samples,
                seed=seed,
                oracle=oracle,
                initial_state=initial_state,
            )
            value = chain.estimate(self.estimator)
        diagnostics = {
            "acceptance_rate": chain.acceptance_rate(),
            "evaluations": chain.evaluations,
            "screened": chain.screened,
            "proposal": self.proposal,
            "estimator": self.estimator,
            "burn_in": self.burn_in,
            "chain": chain,
        }
        diagnostics["n_jobs"] = self._plan().n_jobs
        return SingleEstimate(
            vertex=r,
            estimate=value,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )
