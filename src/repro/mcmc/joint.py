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
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._rng import RandomState, ensure_rng, random_block, randrange_block, spawn_rng
from repro.errors import ConfigurationError, SamplingError
from repro.graphs.core import Graph, Vertex
from repro.mcmc.estimates import DependencyOracle
from repro.mcmc.single import _accept_scan
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


@dataclass(eq=False)
class JointChainResult:
    """Full record of one joint-space chain run, stored as columns.

    Entry ``t`` of every column describes state ``t`` (initial state first);
    :attr:`states` builds the per-state :class:`JointChainState` objects on
    demand.

    Attributes
    ----------
    reference_set:
        The set R, in order.
    iteration:
        ``int`` array: the state's iteration in the chain that produced it
        (``0..T``; a pooled record keeps each chain's own numbering).
    r_index:
        ``int`` array: the state's r-component as a position in R.
    v:
        The state's v-component.
    row:
        ``int`` array: the row of :attr:`dependencies` holding the state's
        scores (a rejected proposal repeats its predecessor's row).
    accepted:
        ``bool`` array: whether this iteration's proposal was accepted
        (``True`` for the initial state).
    dependencies:
        ``float64`` matrix, one row per evaluated source (the initial state
        and every candidate), one column per member of R: δ_{v·}(r).
    """

    reference_set: List[Vertex]
    iteration: np.ndarray
    r_index: np.ndarray
    v: List[Vertex]
    row: np.ndarray
    accepted: np.ndarray
    dependencies: np.ndarray
    num_vertices: int
    burn_in: int = 0
    evaluations: int = 0
    screened: int = 0
    _pairwise_memo: Optional[Tuple[int, np.ndarray, List[int]]] = field(
        default=None, init=False, repr=False
    )

    # ------------------------------------------------------------------
    @property
    def states(self) -> List[JointChainState]:
        """The chain states (initial state first), built on demand."""
        return self._materialise(range(len(self.v)))

    def chain_length(self) -> int:
        """Return the number of iterations ``T`` (excluding the initial state)."""
        return max(len(self.v) - 1, 0)

    def kept_states(self) -> List[JointChainState]:
        """Return the states used for estimation (after burn-in)."""
        return self._materialise(range(self.burn_in, len(self.v)))

    def _materialise(self, positions) -> List[JointChainState]:
        members = self.reference_set
        iteration = self.iteration.tolist()
        r_index = self.r_index.tolist()
        row = self.row.tolist()
        accepted = self.accepted.tolist()
        return [
            JointChainState(
                iteration=iteration[t],
                r=members[r_index[t]],
                v=self.v[t],
                dependencies=dict(zip(members, self.dependencies[row[t]].tolist())),
                accepted=accepted[t],
            )
            for t in positions
        ]

    def acceptance_rate(self) -> float:
        """Return the fraction of accepted proposals."""
        proposals = len(self.accepted) - 1
        if proposals <= 0:
            return 0.0
        return int(np.count_nonzero(self.accepted[1:])) / proposals

    def samples_for(self, r: Vertex) -> List[JointChainState]:
        """Return the multiset ``M(i)`` of kept states whose r-component equals *r*."""
        if r not in self.reference_set:
            return []
        j = self.reference_set.index(r)
        start = self.burn_in
        hits = np.flatnonzero(self.r_index[start:] == j) + start
        return self._materialise(hits.tolist())

    def sample_counts(self) -> Dict[Vertex, int]:
        """Return ``{r: |M(r)|}`` for every reference vertex."""
        return dict(zip(self.reference_set, self._pairwise()[1]))

    def dependency_trace(self) -> List[float]:
        """Return each kept state's δ_{v·}(r) for its own r (after burn-in)."""
        start = self.burn_in
        return self.dependencies[self.row[start:], self.r_index[start:]].tolist()

    # ------------------------------------------------------------------
    def _pairwise(self) -> Tuple[np.ndarray, List[int]]:
        """Return ``(values, counts)``: ``values[i, j]`` estimates ``BC_{rj}(ri)``.

        One pass over the kept states serves every ordered pair.  For each
        ``j`` the rows of ``M(j)`` (in state order) give the terms
        ``min(1, d_i / d_j)`` — 1 when ``d_j = 0 < d_i``, 0 when both are
        0 — for every ``i`` at once.  Each column is totalled strictly in
        state order (``np.add.accumulate`` from 0.0, the same additions as a
        ``total += term`` loop) and divided by ``|M(j)|``; a column whose
        ``M(j)`` is empty is NaN.  Memoized per burn-in.
        """
        memo = self._pairwise_memo
        if memo is not None and memo[0] == self.burn_in:
            return memo[1], memo[2]
        start = self.burn_in
        size = len(self.reference_set)
        rows = self.dependencies[self.row[start:]]
        owners = self.r_index[start:]
        counts = np.bincount(owners, minlength=size).tolist()
        values = np.full((size, size), np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(size):
                if not counts[j]:
                    continue
                sample = rows[owners == j]
                dj = sample[:, j : j + 1]
                terms = np.where(
                    dj > 0.0, np.minimum(1.0, sample / dj), np.where(sample > 0.0, 1.0, 0.0)
                )
                totals = np.add.accumulate(
                    np.concatenate((np.zeros((1, size)), terms)), axis=0
                )[-1]
                values[:, j] = totals / counts[j]
        self._pairwise_memo = (start, values, counts)
        return values, counts

    def relative_betweenness(self, ri: Vertex, rj: Vertex) -> float:
        """Return the estimate of ``BC_{rj}(ri)`` (Equation 23) from the multiset ``M(j)``.

        Raises
        ------
        SamplingError
            If the chain never visited a state with r-component ``rj``.
        """
        self._validate_pair(ri, rj)
        values, counts = self._pairwise()
        i, j = self.reference_set.index(ri), self.reference_set.index(rj)
        if not counts[j]:
            raise SamplingError(
                f"the chain produced no samples with reference vertex {rj!r}; "
                "run a longer chain"
            )
        return float(values[i, j])

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
        """Return ``{ri: {rj: BC_rj(ri)}}`` for every ordered pair of reference vertices.

        The diagonal is 1.0; a pair whose ``M(j)`` is empty reads NaN.
        """
        values = self._pairwise()[0].tolist()
        members = self.reference_set
        return {
            ri: {rj: 1.0 if i == j else values[i][j] for j, rj in enumerate(members)}
            for i, ri in enumerate(members)
        }

    def ratios(self) -> Dict[Tuple[Vertex, Vertex], float]:
        """Return the Equation 22 ratio of every ordered pair ``ri != rj``.

        NaN where :meth:`ratio_estimate` raises: ``M(i)`` or ``M(j)`` is
        empty, or the denominator ``BC_{ri}(rj)`` is zero.
        """
        values = self._pairwise()[0].tolist()
        members = self.reference_set
        result: Dict[Tuple[Vertex, Vertex], float] = {}
        for i, ri in enumerate(members):
            for j, rj in enumerate(members):
                if i == j:
                    continue
                numerator, denominator = values[i][j], values[j][i]
                if numerator != numerator or not denominator > 0.0:
                    result[(ri, rj)] = float("nan")
                else:
                    result[(ri, rj)] = numerator / denominator
        return result

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
    #: (``n_jobs``).
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
        n_jobs: Optional[int] = None,
    ) -> None:
        if burn_in < 0:
            raise ConfigurationError("burn_in must be non-negative")
        self.burn_in = int(burn_in)
        self.cache_size = cache_size
        #: Accepted and unused, as for
        #: :class:`~repro.mcmc.single.SingleSpaceMHSampler`: the joint
        #: proposal ``⟨r', v'⟩`` is an independence proposal, drawn up front.
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
        # ⟨r', v'⟩ sequence from a child stream (one r' then one v' per
        # step) so the whole chain reads its scores in one bulk call.
        proposal_rng = spawn_rng(rng, 0)
        candidate_r, candidate_v = randrange_block(
            proposal_rng, (len(members), len(vertices)), num_iterations
        )

        if initial_state is None:
            current_r = members[rng.randrange(len(members))]
            current_v = vertices[rng.randrange(len(vertices))]
        else:
            current_r, current_v = initial_state
            if current_r not in members:
                raise ConfigurationError("the initial r-component must belong to the reference set")
            graph.validate_vertex(current_v)

        evaluations_before, screened_before = oracle.evaluations, oracle.screened
        # The start state is the lead row of the one bulk read, so it joins
        # the candidates' prefetch.
        pool = np.array([graph.csr().index_of(current_v)] + candidate_v, dtype=np.intp)
        sources = oracle.source_indices(graph, pool)
        dependencies = oracle.dependency_rows(sources, members, prefetch=True)
        uniforms = random_block(rng, num_iterations).tolist()
        start_r = members.index(current_r)
        # Equation 17 acceptance, one uniform per proposal unconditionally
        # (see SingleSpaceMHSampler._advance for why a conditional draw
        # breaks rng-stream identity with the reference); a current state
        # with zero dependency always moves.
        candidate_r = np.array(candidate_r, dtype=np.intp)
        proposed = dependencies[np.arange(1, num_iterations + 1), candidate_r].tolist()
        accepted, holder = _accept_scan(float(dependencies[0, start_r]), proposed, uniforms)
        # This run's own pass delta (not the oracle's lifetime total), so a
        # warm session oracle never inflates a fresh chain's bill; equal to
        # the total for a fresh oracle.
        return JointChainResult(
            reference_set=members,
            iteration=np.arange(num_iterations + 1),
            r_index=np.concatenate(([start_r], candidate_r))[holder],
            v=list(map(vertices.__getitem__, pool[holder].tolist())),
            row=holder,
            accepted=accepted,
            dependencies=dependencies,
            num_vertices=graph.number_of_vertices(),
            burn_in=self.burn_in,
            evaluations=oracle.evaluations - evaluations_before,
            screened=oracle.screened - screened_before,
        )

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
            ratios = chain.ratios()
        diagnostics: Dict[str, object] = {
            "n_jobs": self._plan().n_jobs,
            "screened": chain.screened,
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
