"""Trajectory identity: the array-native MH chains walk the per-step loops.

The library chains draw their inputs in blocks, read the oracle in bulk,
store columns and total the read-outs over arrays.  Each test here runs the
library chain and the per-step reference loop of :mod:`reference` on twin
:class:`DependencyOracle` instances and requires every column, read-out,
relative score and ratio to be equal to the last bit (``float.hex``), over
random connected graphs and every knob that changes the chain's oracle
traffic or rng use.  The reference loops prefetch 16 proposals at a time,
the oracle traffic of a fixed prefetch block; the library chains prefetch
their whole miss set (start state included) and let the kernels choose the
block widths, so they look up exactly as often and never pay more passes.
"""

from __future__ import annotations

import math
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    reference_degree_choice,
    reference_joint_chain,
    reference_mh_chain,
    reference_mh_extend,
    reference_mh_readout,
    reference_ratio,
    reference_relative,
    reference_running_estimates,
)
import numpy as np
import pytest

from repro._rng import randrange_block, spawn_rng
from repro.graphs import Graph
from repro.mcmc import DependencyOracle, JointSpaceMHSampler, SingleSpaceMHSampler
from repro.mcmc.multichain import merge_joint_chains
from repro.mcmc.single import ESTIMATORS
from repro.shortest_paths import batch as batch_module

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _connected_graph(seed: int, weighted=None) -> Graph:
    """A random spanning tree plus extra edges, shuffled labels, maybe weighted."""
    rng = random.Random(seed)
    n = rng.randint(3, 22)
    labels = rng.sample(range(1000), n)
    draw = rng.random() < 0.25
    weighted = draw if weighted is None else weighted
    graph = Graph()
    for i in range(1, n):
        u, v = labels[i], labels[rng.randrange(i)]
        graph.add_edge(u, v, weight=float(rng.randint(1, 3)) if weighted else 1.0)
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(labels, 2)
        if not graph.has_edge(u, v):
            graph.add_edge(u, v, weight=float(rng.randint(1, 3)) if weighted else 1.0)
    return graph


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _state_rows(states):
    return [
        (s.iteration, s.vertex, _hex(s.dependency), s.accepted, _hex(s.proposal_dependency))
        for s in states
    ]


def _assert_no_more_traffic(oracle: DependencyOracle, twin: DependencyOracle, cache_size):
    """The library's oracle traffic against the per-16 reference loop's.

    Lookups are the same reads in the same order.  Passes never exceed the
    fixed-block prefetch's; without a cache neither side prefetches, so
    they are equal.
    """
    assert oracle.lookups == twin.lookups
    assert oracle.evaluations <= twin.evaluations
    if cache_size == 0:
        assert oracle.evaluations == twin.evaluations


@SETTINGS
@given(
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    proposal=st.sampled_from(["uniform", "degree", "random-walk"]),
    cache_size=st.sampled_from([None, 0, 3]),
    length=st.integers(1, 60),
    burn_in=st.integers(0, 6),
    fixed_start=st.booleans(),
    segments=st.lists(st.integers(1, 25), max_size=2),
)
def test_single_space_chain_is_bit_identical_to_the_per_step_loop(
    graph_seed, seed, proposal, cache_size, length, burn_in, fixed_start, segments
):
    graph = _connected_graph(graph_seed)
    vertices = graph.vertices()
    r = vertices[seed % len(vertices)]
    burn_in = min(burn_in, length)
    start = vertices[(seed // 7) % len(vertices)] if fixed_start else None

    sampler = SingleSpaceMHSampler(proposal=proposal, burn_in=burn_in, cache_size=cache_size)
    oracle = sampler.build_oracle(graph)
    twin = DependencyOracle(graph, cache_size=cache_size)
    knobs = dict(proposal=proposal)

    chain = sampler.run_chain(graph, r, length, seed=seed, oracle=oracle, initial_state=start)
    states = reference_mh_chain(
        graph, r, length, oracle=twin, seed=seed, initial_state=start, **knobs
    )
    for i, extra in enumerate(segments):
        chain = sampler.extend_chain(
            graph, r, chain, extra, rng=random.Random(seed + i + 1), oracle=oracle
        )
        states = reference_mh_extend(
            graph, r, states, extra, oracle=twin, rng=random.Random(seed + i + 1), **knobs
        )

    assert _state_rows(chain.states) == _state_rows(states)
    assert _state_rows(chain.kept_states()) == _state_rows(states[burn_in:])
    assert chain.dependency_trace() == [s.dependency for s in states[burn_in:]]
    n = graph.number_of_vertices()
    for estimator in ESTIMATORS:
        assert _hex(chain.estimate(estimator)) == _hex(
            reference_mh_readout(states, burn_in, n, estimator)
        )
        assert [_hex(x) for x in chain.running_estimates(estimator)] == [
            _hex(x) for x in reference_running_estimates(states, burn_in, n, estimator)
        ]
    proposals = states[1:]
    assert _hex(chain.acceptance_rate()) == _hex(
        sum(1 for s in proposals if s.accepted) / len(proposals)
    )
    _assert_no_more_traffic(oracle, twin, cache_size)
    assert chain.evaluations == oracle.evaluations


@SETTINGS
@given(
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    size=st.integers(2, 5),
    cache_size=st.sampled_from([None, 0, 3]),
    length=st.integers(1, 80),
    burn_in=st.integers(0, 6),
    fixed_start=st.booleans(),
)
def test_joint_space_chain_is_bit_identical_to_the_per_step_loop(
    graph_seed, seed, size, cache_size, length, burn_in, fixed_start
):
    graph = _connected_graph(graph_seed)
    vertices = graph.vertices()
    members = random.Random(seed).sample(vertices, min(size, len(vertices)))
    burn_in = min(burn_in, length)
    start = (members[-1], vertices[seed % len(vertices)]) if fixed_start else None

    sampler = JointSpaceMHSampler(burn_in=burn_in, cache_size=cache_size)
    oracle = sampler.build_oracle(graph)
    twin = DependencyOracle(graph, cache_size=cache_size)
    chain = sampler.run_chain(
        graph, members, length, seed=seed, oracle=oracle, initial_state=start
    )
    states = reference_joint_chain(
        graph, members, length, oracle=twin, seed=seed, initial_state=start
    )

    def rows(joint_states):
        return [
            (s.iteration, s.r, s.v, [_hex(x) for x in s.dependencies.values()], s.accepted)
            for s in joint_states
        ]

    assert rows(chain.states) == rows(states)
    assert list(chain.states[0].dependencies) == members
    assert chain.dependency_trace() == [s.dependency for s in states[burn_in:]]
    assert chain.sample_counts() == {
        r: sum(1 for s in states[burn_in:] if s.r == r) for r in members
    }
    for r in members:
        assert rows(chain.samples_for(r)) == rows([s for s in states[burn_in:] if s.r == r])
    proposals = states[1:]
    assert _hex(chain.acceptance_rate()) == _hex(
        sum(1 for s in proposals if s.accepted) / len(proposals)
    )
    _assert_read_outs_match(chain, states, burn_in, members)
    _assert_no_more_traffic(oracle, twin, cache_size)
    assert chain.evaluations == oracle.evaluations

    # Pooling concatenates the kept columns: the merged read-outs are the
    # per-state loop over the concatenated kept states.
    other = JointSpaceMHSampler(burn_in=burn_in).run_chain(graph, members, length, seed=seed + 1)
    merged = merge_joint_chains([chain, other])
    other_states = reference_joint_chain(
        graph, members, length, oracle=DependencyOracle(graph), seed=seed + 1
    )
    pooled = states[burn_in:] + other_states[burn_in:]
    assert rows(merged.states) == rows(pooled)
    _assert_read_outs_match(merged, pooled, 0, members)


def _assert_read_outs_match(chain, states, burn_in, members):
    relative = chain.relative_matrix()
    ratios = chain.ratios()
    for ri in members:
        for rj in members:
            expected = reference_relative(states, burn_in, ri, rj)
            if ri == rj:
                assert relative[ri][rj] == 1.0
            elif expected is None:
                assert math.isnan(relative[ri][rj])
            else:
                assert _hex(relative[ri][rj]) == _hex(expected)
            if expected is not None:
                assert _hex(chain.relative_betweenness(ri, rj)) == _hex(expected)
            if ri == rj:
                continue
            expected_ratio = reference_ratio(states, burn_in, ri, rj)
            if expected_ratio is None:
                assert math.isnan(ratios[(ri, rj)])
            else:
                assert _hex(ratios[(ri, rj)]) == _hex(expected_ratio)
                assert _hex(chain.ratio_estimate(ri, rj)) == _hex(expected_ratio)


@SETTINGS
@given(graph_seed=st.integers(0, 10_000), seed=st.integers(0, 10_000))
def test_degree_proposals_match_the_per_draw_choice(graph_seed, seed):
    """The prefix-sum bisection draws the candidates the per-draw scan drew."""
    graph = _connected_graph(graph_seed)
    vertices = graph.vertices()
    indices, weights = SingleSpaceMHSampler(proposal="degree")._draw_proposals(
        graph, vertices, random.Random(seed), 200
    )
    reference_rng = spawn_rng(random.Random(seed), 0)
    assert [vertices[i] for i in indices] == [
        reference_degree_choice(graph, vertices, reference_rng) for _ in range(200)
    ]
    assert weights == [max(graph.degree(v), 1) for v in vertices]


#: Bounds at the 32-bit word edges: the block path takes one word per try
#: up to 2**32 - 1 bits' worth; 2**32 and above take the scalar loop.
WORD_EDGE_BOUNDS = (
    [1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1]
    + [2**k for k in (3, 11, 16, 30)]
    + [2**k + 1 for k in (3, 11, 16, 30)]
)


@given(
    seed=st.integers(0, 10_000),
    bounds=st.lists(
        st.one_of(st.integers(1, 5000), st.sampled_from(WORD_EDGE_BOUNDS)),
        min_size=1,
        max_size=3,
    ),
    count=st.integers(0, 300),
)
@settings(max_examples=120, deadline=None)
def test_randrange_block_draws_the_randrange_sequence(seed, bounds, count):
    """Same integers, and the generator is left in the same state, for one
    bound (the block path) or several (the interleaved loop)."""
    block_rng, loop_rng = random.Random(seed), random.Random(seed)
    columns = randrange_block(block_rng, bounds, count)
    rounds = [[loop_rng.randrange(b) for b in bounds] for _ in range(count)]
    assert columns == [[draws[k] for draws in rounds] for k in range(len(bounds))]
    assert block_rng.getstate() == loop_rng.getstate()


#: Block widths the kernels are patched to run (``None``: their own choice).
WIDTHS = (1, 16, None)


def _with_width(width, run):
    with pytest.MonkeyPatch.context() as patch:
        if width is not None:
            patch.setattr(batch_module, "_block_width", lambda csr: width)
        return run()


@SETTINGS
@given(
    graph_seed=st.integers(0, 10_000),
    seed=st.integers(0, 10_000),
    joint=st.booleans(),
    weighted=st.booleans(),
    cache_size=st.sampled_from([None, 2, 5]),
    length=st.integers(1, 70),
)
def test_kernel_block_width_changes_no_chain_and_no_pass_count(
    graph_seed, seed, joint, weighted, cache_size, length
):
    """Whole-chain prefetch at block widths 1, 16 and the kernels' own:
    every chain column, oracle row and estimate is ``array_equal``, and the
    oracle never looks up or computes more than the per-16 prefetch of the
    reference loop on a twin oracle."""
    graph = _connected_graph(graph_seed, weighted=weighted)
    vertices = graph.vertices()
    members = random.Random(seed).sample(vertices, min(3, len(vertices)))
    r = members[0]

    def run():
        if joint:
            sampler = JointSpaceMHSampler(cache_size=cache_size)
            oracle = sampler.build_oracle(graph)
            chain = sampler.run_chain(graph, members, length, seed=seed, oracle=oracle)
            columns = [chain.dependencies, chain.row, chain.accepted, chain.r_index]
            estimates = np.array([[chain.relative_matrix()[a][b] for b in members] for a in members])
        else:
            sampler = SingleSpaceMHSampler(cache_size=cache_size)
            oracle = sampler.build_oracle(graph)
            chain = sampler.run_chain(graph, r, length, seed=seed, oracle=oracle)
            columns = [chain.dependency, chain.accepted, chain.proposal_dependency]
            columns.append(np.array([vertices.index(v) for v in chain.vertex]))
            estimates = np.array([chain.estimate(e) for e in ESTIMATORS])
        traffic = (oracle.evaluations, oracle.lookups)
        rows = oracle.dependency_rows(np.arange(len(vertices)), vertices)
        return columns, estimates, rows, traffic

    runs = [_with_width(width, run) for width in WIDTHS]
    columns, estimates, rows, traffic = runs[0]
    for other_columns, other_estimates, other_rows, other_traffic in runs[1:]:
        for a, b in zip(columns, other_columns):
            assert np.array_equal(a, b)
        assert np.array_equal(estimates, other_estimates, equal_nan=True)
        assert np.array_equal(rows, other_rows)
        assert other_traffic == traffic

    twin = DependencyOracle(graph, cache_size=cache_size)
    if joint:
        reference_joint_chain(graph, members, length, oracle=twin, seed=seed)
    else:
        reference_mh_chain(graph, r, length, oracle=twin, seed=seed)
    assert traffic[0] <= twin.evaluations
    assert traffic[1] <= twin.lookups
