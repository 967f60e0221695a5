"""Random-number-generator plumbing shared by every stochastic component.

Every sampler, generator and benchmark in the library accepts either a seed,
an existing :class:`random.Random` instance, or ``None``.  Funnelling the
conversion through :func:`ensure_rng` keeps runs reproducible and avoids the
global :mod:`random` state entirely.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Union

__all__ = ["RandomState", "ensure_rng", "spawn_rng", "randrange_block"]

#: Accepted ways to specify randomness across the public API.
RandomState = Union[None, int, random.Random]


def ensure_rng(seed: RandomState = None) -> random.Random:
    """Return a :class:`random.Random` for *seed*.

    Parameters
    ----------
    seed:
        ``None`` creates a fresh, OS-seeded generator; an ``int`` creates a
        deterministically seeded generator; an existing
        :class:`random.Random` is returned unchanged (so callers can share a
        single stream across several components).
    """
    if seed is None:
        return random.Random()
    if isinstance(seed, random.Random):
        return seed
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(
            f"seed must be None, an int, or a random.Random instance, got {type(seed).__name__}"
        )
    return random.Random(seed)


def spawn_rng(rng: random.Random, stream: int) -> random.Random:
    """Derive an independent child generator from *rng*.

    Used when a driver needs several statistically independent streams (for
    example one per repetition of an experiment) while remaining reproducible
    from a single seed.
    """
    if not isinstance(rng, random.Random):
        raise TypeError("rng must be a random.Random instance")
    if not isinstance(stream, int) or isinstance(stream, bool) or stream < 0:
        raise ValueError("stream must be a non-negative integer")
    # ``getrandbits`` advances the parent stream deterministically, so the
    # same (seed, stream) pair always yields the same child generator.
    child_seed = rng.getrandbits(64) ^ (0x9E3779B97F4A7C15 * (stream + 1) & 0xFFFFFFFFFFFFFFFF)
    return random.Random(child_seed)


def randrange_block(rng: random.Random, bounds: Sequence[int], count: int) -> List[List[int]]:
    """Draw *count* rounds of ``rng.randrange(b)`` for each ``b`` in *bounds*, in one call.

    Returns one list per bound.  Within a round the draws are taken in
    *bounds* order, so the integers — and the state *rng* is left in — equal
    those of the per-round loop
    ``[[rng.randrange(b) for b in bounds] for _ in range(count)]``.
    ``randrange(b)`` draws ``getrandbits(b.bit_length())`` until the value
    falls below ``b``; inlining that rejection loop skips ``randrange``'s
    argument checks, which cost most of its time.  *rng* must be a plain
    :class:`random.Random` (a subclass overriding ``random`` draws its
    integers differently).
    """
    if type(rng) is not random.Random:
        raise TypeError("randrange_block needs a plain random.Random instance")
    getrandbits = rng.getrandbits
    draws = []
    append = draws.append
    for n, k in [(n, n.bit_length()) for n in bounds] * count:
        x = getrandbits(k)
        while x >= n:
            x = getrandbits(k)
        append(x)
    width = len(bounds)
    return [draws[i::width] for i in range(width)]
