"""Tests for the RNG plumbing."""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._rng import ensure_rng, randbelow_block, random_block, randrange_block, spawn_rng
from repro.graphs import barabasi_albert_graph
from repro.mcmc import JointSpaceMHSampler, SingleSpaceMHSampler
from repro.mcmc import single as single_module


class TestEnsureRng:
    def test_none_gives_random_instance(self):
        rng = ensure_rng(None)
        assert isinstance(rng, random.Random)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(123)
        b = ensure_rng(123)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = ensure_rng(1)
        b = ensure_rng(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_existing_rng_passed_through(self):
        rng = random.Random(0)
        assert ensure_rng(rng) is rng

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(True)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng(1.5)

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")


class TestSpawnRng:
    def test_children_are_deterministic(self):
        a = spawn_rng(ensure_rng(5), 0)
        b = spawn_rng(ensure_rng(5), 0)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_streams_differ(self):
        parent = ensure_rng(5)
        a = spawn_rng(parent, 0)
        b = spawn_rng(parent, 1)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_requires_random_instance(self):
        with pytest.raises(TypeError):
            spawn_rng(42, 0)  # type: ignore[arg-type]

    def test_negative_stream_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(ensure_rng(1), -1)


class TestBlockDraws:
    """The block draws are the scalar loops: same values, same end state."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(0, 400))
    def test_random_block_draws_the_random_sequence(self, seed, count):
        block_rng, loop_rng = random.Random(seed), random.Random(seed)
        block = random_block(block_rng, count)
        assert block.tolist() == [loop_rng.random() for _ in range(count)]
        assert block_rng.getstate() == loop_rng.getstate()

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.one_of(
            st.integers(1, 2**33),
            st.sampled_from([1, 2, 5, 2**31, 2**31 + 1, 2**32 - 1, 2**32, 2**32 + 1]),
        ),
        count=st.integers(0, 300),
    )
    def test_randbelow_block_draws_the_randrange_sequence(self, seed, n, count):
        block_rng, loop_rng = random.Random(seed), random.Random(seed)
        block = randbelow_block(block_rng, n, count)
        assert block.tolist() == [loop_rng.randrange(n) for _ in range(count)]
        assert block_rng.getstate() == loop_rng.getstate()

    def test_block_draws_call_the_methods_of_a_random_subclass(self):
        """A subclass may draw its own way, so the block draws run its scalar loops."""

        class Halved(random.Random):
            # Overriding ``random`` alone also moves ``randrange`` onto it.
            def random(self):
                return super().random() / 2

        block_rng, loop_rng = Halved(1), Halved(1)
        assert random_block(block_rng, 5).tolist() == [loop_rng.random() for _ in range(5)]
        assert randbelow_block(block_rng, 7, 5).tolist() == [
            loop_rng.randrange(7) for _ in range(5)
        ]
        rounds = [[loop_rng.randrange(b) for b in (3, 9)] for _ in range(4)]
        assert randrange_block(block_rng, (3, 9), 4) == [list(c) for c in zip(*rounds)]
        assert block_rng.getstate() == loop_rng.getstate()
        system = random.SystemRandom()
        assert all(0 <= x < 1 for x in random_block(system, 8))
        assert all(0 <= x < 7 for x in randbelow_block(system, 7, 8))

    def test_samplers_accept_any_random_instance(self):
        """A plain subclass draws like ``random.Random``; ``SystemRandom`` just runs."""

        class Plain(random.Random):
            pass

        graph = barabasi_albert_graph(30, 2, seed=3)
        single, joint = SingleSpaceMHSampler(), JointSpaceMHSampler()
        members = [0, 4, 7]
        for proposal in ("uniform", "degree"):
            sampler = SingleSpaceMHSampler(proposal=proposal)
            a = sampler.run_chain(graph, 4, 200, seed=Plain(5))
            b = sampler.run_chain(graph, 4, 200, seed=random.Random(5))
            assert np.array_equal(a.dependency, b.dependency)
            assert np.array_equal(a.accepted, b.accepted)
        a = joint.run_chain(graph, members, 200, seed=Plain(5))
        b = joint.run_chain(graph, members, 200, seed=random.Random(5))
        assert np.array_equal(a.dependencies, b.dependencies)
        assert np.array_equal(a.row, b.row)
        single.run_chain(graph, 4, 50, seed=random.SystemRandom())
        joint.run_chain(graph, members, 50, seed=random.SystemRandom())

    @settings(max_examples=40, deadline=None)
    @given(
        graph_seed=st.integers(0, 1000),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 300),
    )
    def test_searchsorted_degree_draw_is_the_bisect_loop(self, graph_seed, seed, count):
        """The degree proposal's block draw against the per-draw bisection
        over the integer prefix sums it replaced."""
        graph = barabasi_albert_graph(30, 2, seed=graph_seed)
        vertices = graph.vertices()
        block_child, loop_child = random.Random(seed), random.Random(seed)
        with pytest.MonkeyPatch.context() as patch:
            # Hand the sampler a child stream this test can inspect.
            patch.setattr(single_module, "spawn_rng", lambda rng, stream: block_child)
            indices, weights = SingleSpaceMHSampler(proposal="degree")._draw_proposals(
                graph, vertices, random.Random(0), count
            )
        cumulative = [float(c) for c in accumulate(weights)]
        total = sum(weights)
        expected = [
            min(bisect_left(cumulative, loop_child.random() * total), len(vertices) - 1)
            for _ in range(count)
        ]
        assert indices.tolist() == expected
        assert block_child.getstate() == loop_child.getstate()
