"""The joint-space Metropolis-Hastings sampler (Section 4.3 of the paper).

Given a graph *G* and a set ``R ⊂ V(G)``, the sampler runs a Markov chain on
the joint space ``R × V(G)``.  Each state is a pair ``⟨r, v⟩``; at every
iteration a candidate pair is drawn uniformly (``r'`` from R, ``v'`` from
V(G)) and accepted with probability
``min{1, delta_{v'.}(r') / delta_{v.}(r)}`` (Equation 17).  The unique
stationary distribution is Equation 18, and restricting the chain to the
samples whose first component equals a fixed ``r_j`` yields an Independence
Metropolis-Hastings chain with the Equation 5 stationary distribution for
``r_j`` — the observation behind Theorem 4.

From the collected samples the class estimates

* the **relative betweenness score** ``BC_{r_j}(r_i)`` of Equation 23, as the
  sample average of ``min{1, delta_{v.}(r_i) / delta_{v.}(r_j)}`` over the
  multiset ``M(j)`` (Equation 22's numerator), and
* the **betweenness ratio** ``BC(r_i)/BC(r_j)`` as the ratio of the two
  relative scores (Equation 22, justified by Theorem 3).

The same technique is used in statistical physics to estimate free-energy
differences (Bennett 1976), which the paper cites as its inspiration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro._rng import RandomState, ensure_rng, spawn_rng
from repro.errors import ConfigurationError, SamplingError
from repro.graphs.core import Graph, Vertex
from repro.mcmc.estimates import DependencyOracle
from repro.samplers.base import ExecutionPlanMixin, timed

__all__ = [
    "JointChainState",
    "JointChainResult",
    "RelativeBetweennessEstimate",
    "JointSpaceMHSampler",
]


@dataclass
class JointChainState:
    """One state ⟨r, v⟩ of the joint chain.

    ``dependencies`` holds the dependency score of the source *v* on every
    vertex of the reference set R (one Brandes pass yields them all), so the
    relative-betweenness estimators never need to re-evaluate anything.
    """

    iteration: int
    r: Vertex
    v: Vertex
    dependencies: Dict[Vertex, float]
    accepted: bool

    @property
    def dependency(self) -> float:
        """Return δ_{v·}(r) for this state's own reference vertex."""
        return self.dependencies.get(self.r, 0.0)


@dataclass
class JointChainResult:
    """Full record of one joint-space chain run."""

    reference_set: List[Vertex]
    states: List[JointChainState]
    num_vertices: int
    burn_in: int = 0
    evaluations: int = 0

    # ------------------------------------------------------------------
    def chain_length(self) -> int:
        """Return the number of iterations ``T`` (excluding the initial state)."""
        return max(len(self.states) - 1, 0)

    def kept_states(self) -> List[JointChainState]:
        """Return the states used for estimation (after burn-in)."""
        return self.states[self.burn_in :]

    def acceptance_rate(self) -> float:
        """Return the fraction of accepted proposals."""
        proposals = self.states[1:]
        if not proposals:
            return 0.0
        return sum(1 for s in proposals if s.accepted) / len(proposals)

    def samples_for(self, r: Vertex) -> List[JointChainState]:
        """Return the multiset ``M(i)`` of kept states whose r-component equals *r*."""
        return [s for s in self.kept_states() if s.r == r]

    def sample_counts(self) -> Dict[Vertex, int]:
        """Return ``{r: |M(r)|}`` for every reference vertex."""
        counts = {r: 0 for r in self.reference_set}
        for state in self.kept_states():
            counts[state.r] += 1
        return counts

    # ------------------------------------------------------------------
    def relative_betweenness(self, ri: Vertex, rj: Vertex) -> float:
        """Return the estimate of ``BC_{rj}(ri)`` (Equation 23) from the multiset ``M(j)``.

        Raises
        ------
        SamplingError
            If the chain never visited a state with r-component ``rj``.
        """
        self._validate_pair(ri, rj)
        samples = self.samples_for(rj)
        if not samples:
            raise SamplingError(
                f"the chain produced no samples with reference vertex {rj!r}; "
                "run a longer chain"
            )
        total = 0.0
        for state in samples:
            di = state.dependencies.get(ri, 0.0)
            dj = state.dependencies.get(rj, 0.0)
            if dj > 0.0:
                total += min(1.0, di / dj)
            elif di > 0.0:
                total += 1.0
        return total / len(samples)

    def ratio_estimate(self, ri: Vertex, rj: Vertex) -> float:
        """Return the Equation 22 estimate of ``BC(ri) / BC(rj)``."""
        numerator = self.relative_betweenness(ri, rj)
        denominator = self.relative_betweenness(rj, ri)
        if denominator <= 0.0:
            raise SamplingError(
                f"the estimated relative betweenness of {rj!r} w.r.t. {ri!r} is zero; "
                "the ratio estimate of Equation 22 is undefined"
            )
        return numerator / denominator

    def relative_matrix(self) -> Dict[Vertex, Dict[Vertex, float]]:
        """Return ``{ri: {rj: BC_rj(ri)}}`` for every ordered pair of reference vertices."""
        matrix: Dict[Vertex, Dict[Vertex, float]] = {}
        for ri in self.reference_set:
            matrix[ri] = {}
            for rj in self.reference_set:
                if ri == rj:
                    matrix[ri][rj] = 1.0
                    continue
                try:
                    matrix[ri][rj] = self.relative_betweenness(ri, rj)
                except SamplingError:
                    matrix[ri][rj] = float("nan")
        return matrix

    def ranking(self) -> List[Vertex]:
        """Return the reference vertices ranked by estimated betweenness (descending).

        The score used for ranking is the average relative betweenness of
        each vertex against every other reference vertex, which Theorem 3
        makes consistent with ranking by true betweenness as the chain grows.
        """
        matrix = self.relative_matrix()
        scores: Dict[Vertex, float] = {}
        for ri in self.reference_set:
            values = [
                matrix[ri][rj]
                for rj in self.reference_set
                if rj != ri and matrix[ri][rj] == matrix[ri][rj]  # filter NaN
            ]
            scores[ri] = sum(values) / len(values) if values else 0.0
        return sorted(self.reference_set, key=lambda r: scores[r], reverse=True)

    # ------------------------------------------------------------------
    def _validate_pair(self, ri: Vertex, rj: Vertex) -> None:
        if ri not in self.reference_set or rj not in self.reference_set:
            raise ConfigurationError(
                f"both vertices must belong to the reference set; got {ri!r}, {rj!r}"
            )


@dataclass
class RelativeBetweennessEstimate:
    """High-level result bundle returned by :meth:`JointSpaceMHSampler.estimate_relative`."""

    reference_set: List[Vertex]
    relative: Dict[Vertex, Dict[Vertex, float]]
    ratios: Dict[Tuple[Vertex, Vertex], float]
    sample_counts: Dict[Vertex, int]
    acceptance_rate: float
    samples: int
    elapsed_seconds: float
    chain: JointChainResult
    #: Execution stamp mirroring ``SingleEstimate.diagnostics``
    #: (``n_jobs`` / ``batch_size``).
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def ranking(self) -> List[Vertex]:
        """Return the reference vertices ranked by estimated betweenness (descending)."""
        return self.chain.ranking()


class JointSpaceMHSampler(ExecutionPlanMixin):
    """Metropolis-Hastings estimator of relative betweenness scores over a set R."""

    name = "mh-joint"

    def __init__(
        self,
        *,
        burn_in: int = 0,
        cache_size: Optional[int] = None,
        batch_size: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> None:
        if burn_in < 0:
            raise ConfigurationError("burn_in must be non-negative")
        self.burn_in = int(burn_in)
        self.cache_size = cache_size
        #: Execution-engine knobs, with the same semantics as
        #: :class:`~repro.mcmc.single.SingleSpaceMHSampler`: the joint
        #: proposal ``⟨r', v'⟩`` is an independence proposal, so the whole
        #: candidate sequence is drawn upfront from a child rng stream and
        #: the oracle batch-prefetches the upcoming ``v'`` dependency
        #: vectors ``batch_size`` at a time; ``n_jobs`` is accepted and
        #: unused (the chain is sequential).
        self.batch_size = batch_size
        self.n_jobs = n_jobs

    # ------------------------------------------------------------------
    def build_oracle(self, graph: Graph, *, shared_store=None) -> DependencyOracle:
        """Return a :class:`DependencyOracle` configured like this sampler's private one.

        Shared by :meth:`run_chain` and the multi-chain worker payload (see
        :meth:`repro.mcmc.single.SingleSpaceMHSampler.build_oracle`, which
        also documents the *shared_store* hook).
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
        reference_set: Iterable[Vertex],
        num_iterations: int,
        *,
        seed: RandomState = None,
        oracle: Optional[DependencyOracle] = None,
        initial_state: Optional[Tuple[Vertex, Vertex]] = None,
    ) -> JointChainResult:
        """Run the joint chain for ``T = num_iterations`` iterations.

        Parameters
        ----------
        reference_set:
            The set R of vertices whose relative scores are wanted; at least
            two distinct vertices.
        initial_state:
            Optional fixed initial pair ``(r0, v0)``; by default both
            components are drawn uniformly at random, as in the paper.
        """
        members = list(dict.fromkeys(reference_set))
        if len(members) < 2:
            raise ConfigurationError("the reference set must contain at least two vertices")
        for r in members:
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
        # The joint proposal is an independence proposal: pre-draw the
        # ⟨r', v'⟩ sequence from a child stream so the oracle can
        # batch-prefetch the upcoming v' dependency vectors.
        proposal_rng = spawn_rng(rng, 0)
        pair_proposals = [
            (
                members[proposal_rng.randrange(len(members))],
                vertices[proposal_rng.randrange(len(vertices))],
            )
            for _ in range(num_iterations)
        ]

        if initial_state is None:
            current_r = members[rng.randrange(len(members))]
            current_v = vertices[rng.randrange(len(vertices))]
        else:
            current_r, current_v = initial_state
            if current_r not in members:
                raise ConfigurationError("the initial r-component must belong to the reference set")
            graph.validate_vertex(current_v)

        evaluations_before = oracle.evaluations
        current_deps = self._restricted_dependencies(oracle, current_v, members)
        states: List[JointChainState] = [
            JointChainState(
                iteration=0,
                r=current_r,
                v=current_v,
                dependencies=current_deps,
                accepted=True,
            )
        ]
        prefetch_block = self._plan().batch_size
        for t in range(1, num_iterations + 1):
            candidate_r, candidate_v = pair_proposals[t - 1]
            if (t - 1) % prefetch_block == 0:
                oracle.prefetch(
                    [v for _, v in pair_proposals[t - 1 : t - 1 + prefetch_block]]
                )
            candidate_deps = self._restricted_dependencies(oracle, candidate_v, members)
            accepted = self._accept(
                states[-1].dependency, candidate_deps.get(candidate_r, 0.0), rng
            )
            if accepted:
                current_r, current_v, current_deps = candidate_r, candidate_v, candidate_deps
            states.append(
                JointChainState(
                    iteration=t,
                    r=current_r,
                    v=current_v,
                    dependencies=current_deps,
                    accepted=accepted,
                )
            )
        # This run's own pass delta (not the oracle's lifetime total), so a
        # warm session oracle never inflates a fresh chain's bill; equal to
        # the total for a fresh oracle.
        return JointChainResult(
            reference_set=members,
            states=states,
            num_vertices=graph.number_of_vertices(),
            burn_in=self.burn_in,
            evaluations=oracle.evaluations - evaluations_before,
        )

    @staticmethod
    def _restricted_dependencies(
        oracle: DependencyOracle, source: Vertex, members: Sequence[Vertex]
    ) -> Dict[Vertex, float]:
        """Return δ_{source·}(r) for every r in the reference set (one Brandes pass).

        :meth:`DependencyOracle.dependencies_for` serves the whole reference
        set from one pass (or cache hit); each member is a single array read
        and no full vertex-keyed dict is materialised.
        """
        return oracle.dependencies_for(source, members)

    @staticmethod
    def _accept(current_delta: float, candidate_delta: float, rng) -> bool:
        """Equation 17 acceptance; zero-probability current states always move.

        One uniform draw per proposal, unconditionally — see
        :meth:`repro.mcmc.single.SingleSpaceMHSampler._accept` for why a
        conditional draw breaks rng-stream identity with the reference.
        """
        u = rng.random()
        if current_delta <= 0.0:
            return True
        ratio = candidate_delta / current_delta
        return ratio >= 1.0 or u < ratio

    # ------------------------------------------------------------------
    def estimate_relative(
        self,
        graph: Graph,
        reference_set: Iterable[Vertex],
        num_samples: int,
        *,
        seed: RandomState = None,
        oracle: Optional[DependencyOracle] = None,
    ) -> RelativeBetweennessEstimate:
        """Run the chain and return all pairwise relative scores and ratio estimates."""
        with timed() as clock:
            chain = self.run_chain(
                graph, reference_set, num_samples, seed=seed, oracle=oracle
            )
            relative = chain.relative_matrix()
            ratios: Dict[Tuple[Vertex, Vertex], float] = {}
            for ri in chain.reference_set:
                for rj in chain.reference_set:
                    if ri == rj:
                        continue
                    try:
                        ratios[(ri, rj)] = chain.ratio_estimate(ri, rj)
                    except SamplingError:
                        ratios[(ri, rj)] = float("nan")
        plan = self._plan()
        diagnostics: Dict[str, object] = {
            "n_jobs": plan.n_jobs,
            "batch_size": plan.batch_size,
        }
        return RelativeBetweennessEstimate(
            reference_set=chain.reference_set,
            relative=relative,
            ratios=ratios,
            sample_counts=chain.sample_counts(),
            acceptance_rate=chain.acceptance_rate(),
            samples=num_samples,
            elapsed_seconds=clock.elapsed,
            chain=chain,
            diagnostics=diagnostics,
        )
