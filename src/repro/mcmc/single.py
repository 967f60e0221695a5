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
from typing import Dict, List, Optional, Sequence

from repro._rng import RandomState, ensure_rng, spawn_rng
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

    The single definition of the three read-outs (``"chain"`` /
    ``"proposal"`` / ``"accepted"``, see the module docstring), shared by
    :meth:`ChainResult.estimate`, the multi-chain pooled reduce and the edge
    samplers (whose states duck-type the same fields) so the read-outs can
    never drift apart.  Rejected proposals contribute exactly ``0.0`` to the
    ``"accepted"`` read-out, which leaves float totals bit-identical to a
    filtered sum.
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


@dataclass
class ChainResult:
    """Full record of one chain run.

    Attributes
    ----------
    target:
        The vertex *r* whose betweenness is being estimated.
    states:
        The ``T + 1`` chain states (initial state first).  A rejected
        proposal produces a state equal to its predecessor with
        ``accepted=False``.
    num_vertices:
        ``|V(G)|`` at run time, needed to scale Equation 7.
    burn_in:
        Number of leading states excluded from the estimate.
    evaluations:
        Number of Brandes passes actually performed (cache misses).
    """

    target: Vertex
    states: List[ChainState]
    num_vertices: int
    burn_in: int = 0
    evaluations: int = 0

    # ------------------------------------------------------------------
    def chain_length(self) -> int:
        """Return ``T`` (the number of iterations, excluding the initial state)."""
        return max(len(self.states) - 1, 0)

    def kept_states(self) -> List[ChainState]:
        """Return the states that participate in the estimate (after burn-in)."""
        return self.states[self.burn_in :]

    def acceptance_rate(self) -> float:
        """Return the fraction of proposals that were accepted."""
        proposals = self.states[1:]
        if not proposals:
            return 0.0
        return sum(1 for s in proposals if s.accepted) / len(proposals)

    def visited_vertices(self) -> List[Vertex]:
        """Return the sequence of vertices visited (after burn-in)."""
        return [s.vertex for s in self.kept_states()]

    def dependency_trace(self) -> List[float]:
        """Return the sequence of dependency scores (after burn-in)."""
        return [s.dependency for s in self.kept_states()]

    # ------------------------------------------------------------------
    def estimate(self, estimator: str = "chain") -> float:
        """Return the betweenness estimate over the kept states.

        ``estimator`` selects the read-out described in the module
        docstring: ``"chain"`` is Equation 7 of the paper, ``"proposal"``
        the corrected unbiased variant, ``"accepted"`` the accepted-only
        alternative reading.
        """
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
        kept = self.kept_states()
        if not kept:
            return 0.0
        scale = max(self.num_vertices - 1, 1)
        return sum(state_contribution(s, estimator) for s in kept) / (len(kept) * scale)

    def running_estimates(self, estimator: str = "chain") -> List[float]:
        """Return the estimate after each kept state (used by the convergence benchmark E7)."""
        if estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {estimator!r}; expected one of {ESTIMATORS}")
        kept = self.kept_states()
        scale = max(self.num_vertices - 1, 1)
        estimates: List[float] = []
        total = 0.0
        for i, state in enumerate(kept, start=1):
            total += state_contribution(state, estimator)
            estimates.append(total / (i * scale))
        return estimates

    def empirical_distribution(self) -> Dict[Vertex, float]:
        """Return the empirical visit frequencies of the kept states.

        In the long run these approach the stationary distribution of
        Equation 5; the diagnostics module compares the two.
        """
        kept = self.kept_states()
        counts: Dict[Vertex, float] = {}
        for state in kept:
            counts[state.vertex] = counts.get(state.vertex, 0.0) + 1.0
        total = float(len(kept))
        return {v: c / total for v, c in counts.items()}


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
        batch_size: Optional[int] = None,
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
        #: Execution-engine knobs (:mod:`repro.execution`).  A Markov chain
        #: is inherently sequential, so ``n_jobs`` is accepted for interface
        #: uniformity and unused.  The independence proposals
        #: (``"uniform"`` / ``"degree"``) run the **batch-prefetch**
        #: discipline: their candidate sequence does not depend on the chain
        #: state, so the whole sequence is drawn upfront from a child rng
        #: stream and the oracle batch-computes upcoming dependency vectors
        #: ``batch_size`` sources per traversal.  The per-vector values are
        #: bit-identical however they are batched, so for a fixed seed the
        #: chain (and estimate) is the same for any ``batch_size`` and
        #: ``n_jobs``.  The state-dependent ``"random-walk"`` proposal
        #: cannot know its candidates ahead of time and draws each one from
        #: the main stream.
        self.batch_size = batch_size
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

    @staticmethod
    def _degree_weighted_choice(graph: Graph, vertices: Sequence[Vertex], rng):
        degrees = [max(graph.degree(v), 1) for v in vertices]
        total = sum(degrees)
        pick = rng.random() * total
        cumulative = 0.0
        for vertex, degree in zip(vertices, degrees):
            cumulative += degree
            if pick <= cumulative:
                return vertex
        return vertices[-1]

    def _draw_proposals(
        self, graph: Graph, vertices: Sequence[Vertex], rng, count: int
    ) -> Optional[List[Vertex]]:
        """Pre-draw *count* independence-proposal candidates from a child stream.

        Spawning the child advances *rng* by exactly one spawn regardless of
        *count*, so the main stream (initial draw, acceptance draws) is
        unaffected by how many proposals are drawn upfront.  Returns
        ``None`` for the state-dependent random-walk proposal, which draws
        each candidate from the main stream as the chain moves.
        """
        if self.proposal == "random-walk":
            return None
        proposal_rng = spawn_rng(rng, 0)
        if self.proposal == "uniform":
            return [
                vertices[proposal_rng.randrange(len(vertices))] for _ in range(count)
            ]
        return [
            self._degree_weighted_choice(graph, vertices, proposal_rng)
            for _ in range(count)
        ]

    # ------------------------------------------------------------------
    # Chain
    # ------------------------------------------------------------------
    def build_oracle(self, graph: Graph, *, shared_store=None) -> DependencyOracle:
        """Return a :class:`DependencyOracle` configured like this sampler's private one.

        The single place the sampler's oracle knobs (``cache_size``, the
        plan's ``batch_size``) turn into an oracle —
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
            batch_size=self._plan().batch_size,
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
        # handed to the oracle in blocks.
        proposals = self._draw_proposals(graph, vertices, rng, num_iterations)

        evaluations_before = oracle.evaluations
        if initial_state is None:
            current = vertices[rng.randrange(len(vertices))]
        else:
            graph.validate_vertex(initial_state)
            current = initial_state
        current_delta = oracle.dependency(current, r)

        states: List[ChainState] = [
            ChainState(
                iteration=0,
                vertex=current,
                dependency=current_delta,
                accepted=True,
                proposal_dependency=current_delta,
            )
        ]
        self._iterate(graph, r, oracle, rng, states, num_iterations, proposals)
        if not self.record_states:
            # Memory-lean mode: keep only the fields the estimate needs by
            # dropping vertex identities (they are replaced by the target).
            states = [
                ChainState(s.iteration, r, s.dependency, s.accepted, s.proposal_dependency)
                for s in states
            ]
        # Bill this run's own Brandes passes, not the oracle's lifetime
        # total: a warm oracle reused across requests (the session API, the
        # E8 ablation) would otherwise charge every past request's work to
        # the newest chain.  For a fresh oracle the delta equals the total.
        return ChainResult(
            target=r,
            states=states,
            num_vertices=graph.number_of_vertices(),
            burn_in=self.burn_in,
            evaluations=oracle.evaluations - evaluations_before,
        )

    def _iterate(
        self,
        graph: Graph,
        r: Vertex,
        oracle: DependencyOracle,
        rng,
        states: List[ChainState],
        num_iterations: int,
        proposals: Optional[List[Vertex]],
    ) -> None:
        """Advance the chain *num_iterations* steps, appending to *states* in place.

        The shared engine of :meth:`run_chain` and :meth:`extend_chain`:
        continuation starts from ``states[-1]`` and the rng draws per step are
        exactly those of a fresh run (one acceptance draw per proposal), so a
        chain's trajectory is a pure function of its rng stream and its last
        state — never of which process or segment schedule produced it.
        """
        current = states[-1].vertex
        current_delta = states[-1].dependency
        base_iteration = states[-1].iteration
        prefetch_block = self._plan().batch_size
        for step in range(1, num_iterations + 1):
            if proposals is not None:
                candidate = proposals[step - 1]
                if (step - 1) % prefetch_block == 0:
                    oracle.prefetch(proposals[step - 1 : step - 1 + prefetch_block])
                if self.proposal == "uniform":
                    proposal_correction = 1.0
                else:
                    proposal_correction = max(graph.degree(current), 1) / max(
                        graph.degree(candidate), 1
                    )
            else:
                candidate, proposal_correction = self._propose_neighbor(graph, current, rng)
            candidate_delta = oracle.dependency(candidate, r)
            accepted = self._accept(current_delta, candidate_delta, proposal_correction, rng)
            if accepted:
                current = candidate
                current_delta = candidate_delta
            states.append(
                ChainState(
                    iteration=base_iteration + step,
                    vertex=current,
                    dependency=current_delta,
                    accepted=accepted,
                    proposal_dependency=candidate_delta,
                )
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
        if not chain.states:
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
        states = list(chain.states)
        evaluations_before = oracle.evaluations
        self._iterate(graph, r, oracle, rng, states, num_iterations, proposals)
        # The chain's running total plus this segment's passes only — a
        # shared oracle's counter includes other chains' work, which must
        # not be billed to this record.
        return ChainResult(
            target=chain.target,
            states=states,
            num_vertices=chain.num_vertices,
            burn_in=chain.burn_in,
            evaluations=chain.evaluations + (oracle.evaluations - evaluations_before),
        )

    @staticmethod
    def _accept(
        current_delta: float, candidate_delta: float, proposal_correction: float, rng
    ) -> bool:
        """Apply the Metropolis-Hastings acceptance rule of Equation 6.

        A current state with zero dependency has zero stationary probability;
        any candidate with positive dependency is then accepted outright
        (the ratio is +inf), and a zero-dependency candidate is accepted too
        so the chain keeps moving until it reaches the support.

        Exactly one uniform draw is consumed per proposal, *unconditionally*
        (drawing and ignoring when the ratio exceeds 1 is statistically
        identical to not drawing).  An earlier revision drew only when
        ``ratio < 1``, which broke the identical-rng-stream promise between
        two dependency evaluators (the CSR kernels and the dict-kernel
        reference): symmetric dependency scores put the true ratio at
        exactly 1, last-ulp accumulation drift landed one side at
        ``1 + ε`` and the other at ``1 - ε``, only one of them consumed a
        draw, and the chains diverged structurally from there.
        """
        u = rng.random()
        if current_delta <= 0.0:
            return True
        ratio = (candidate_delta / current_delta) * proposal_correction
        return ratio >= 1.0 or u < ratio

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
            "proposal": self.proposal,
            "estimator": self.estimator,
            "burn_in": self.burn_in,
            "chain": chain,
        }
        plan = self._plan()
        diagnostics.update(n_jobs=plan.n_jobs, batch_size=plan.batch_size)
        return SingleEstimate(
            vertex=r,
            estimate=value,
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            method=self.name,
            diagnostics=diagnostics,
        )
