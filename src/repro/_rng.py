"""Random-number-generator plumbing shared by every stochastic component.

Every sampler, generator and benchmark in the library accepts either a seed,
an existing :class:`random.Random` instance, or ``None``.  Funnelling the
conversion through :func:`ensure_rng` keeps runs reproducible and avoids the
global :mod:`random` state entirely.

The block draws (:func:`randrange_block`, :func:`randbelow_block`,
:func:`random_block`) return what the scalar loops over
``randrange`` / ``random`` would, and leave the generator in the same state.
They rest on how CPython's Mersenne Twister serves those calls: each
consumes 32-bit words, ``getrandbits(k)`` for ``k <= 32`` is one word
shifted right by ``32 - k``, ``random()`` is the word pair ``(a, b)`` read as
``((a >> 5) * 2**26 + (b >> 6)) / 2**53``, and ``getrandbits(32 * m)`` returns
``m`` words, the first one least significant.  So one wide ``getrandbits``
call yields a whole block of words for numpy to shift, reject and combine.
A generator that is not a plain :class:`random.Random` (a subclass may
draw differently, :class:`random.SystemRandom` has no state) takes the
scalar loops themselves.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Union

import numpy as np

__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn_rng",
    "randrange_block",
    "randbelow_block",
    "random_block",
]

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


def _words(rng: random.Random, count: int) -> np.ndarray:
    """The next *count* 32-bit Mersenne Twister words of *rng*, in draw order."""
    if not count:
        return np.zeros(0, dtype=np.uint32)
    bits = rng.getrandbits(32 * count)
    return np.frombuffer(bits.to_bytes(4 * count, "little"), dtype="<u4")


def _plain(rng: random.Random) -> bool:
    # A subclass may override ``random`` or ``getrandbits``: draw its way.
    return type(rng) is random.Random


def random_block(rng: random.Random, count: int) -> np.ndarray:
    """Return ``[rng.random() for _ in range(count)]`` as a ``float64`` array.

    One ``getrandbits(64 * count)`` call supplies the ``2 * count`` words,
    so the values and the state *rng* is left in equal the scalar loop's.
    """
    if not _plain(rng):
        return np.array([rng.random() for _ in range(count)], dtype=np.float64)
    words = _words(rng, 2 * count)
    high = (words[0::2] >> np.uint32(5)).astype(np.float64)
    return (high * 67108864.0 + (words[1::2] >> np.uint32(6))) * (1.0 / 9007199254740992.0)


def randbelow_block(rng: random.Random, n: int, count: int) -> np.ndarray:
    """Return ``[rng.randrange(n) for _ in range(count)]`` as an ``intp`` array.

    ``randrange(n)`` draws ``getrandbits(n.bit_length())`` until the value
    falls below *n*.  Up to 32 bits that is one word per try, so the tries
    come from wide ``getrandbits`` calls and the rejection is one mask.  The
    generator then returns to its saved state and skips exactly the words
    the accepted draws used, one ``getrandbits(32 * used)`` call.  Wider
    bounds take the scalar loop.
    """
    if n < 1:
        raise ValueError(f"empty range for randbelow_block: {n}")
    k = n.bit_length()
    if k > 32 or not _plain(rng):
        return np.array(randrange_block(rng, (n,), count)[0], dtype=np.intp)
    state = rng.getstate()
    shift = np.uint32(32 - k)
    chunks = []
    used = 0
    need = count
    while need:
        # Enough tries for the missing draws at the acceptance rate n / 2**k.
        tries = (need << k) // n + 16
        values = _words(rng, tries) >> shift
        hits = np.flatnonzero(values < n)
        if len(hits) >= need:
            hits = hits[:need]
            tries = int(hits[-1]) + 1
        chunks.append(values[hits])
        used += tries
        need -= len(hits)
    rng.setstate(state)
    if used:
        rng.getrandbits(32 * used)
    return np.concatenate(chunks).astype(np.intp) if chunks else np.zeros(0, dtype=np.intp)


def randrange_block(rng: random.Random, bounds: Sequence[int], count: int) -> List[List[int]]:
    """Draw *count* rounds of ``rng.randrange(b)`` for each ``b`` in *bounds*, in one call.

    Returns one list per bound.  Within a round the draws are taken in
    *bounds* order, so the integers — and the state *rng* is left in — equal
    those of the per-round loop
    ``[[rng.randrange(b) for b in bounds] for _ in range(count)]``.
    A single bound of at most 32 bits takes :func:`randbelow_block`.
    Otherwise the rounds interleave, so the rejection loop runs inline,
    which skips ``randrange``'s argument checks, most of its time.
    """
    if not _plain(rng):
        draws = [rng.randrange(n) for n in list(bounds) * count]
    elif len(bounds) == 1 and bounds[0].bit_length() <= 32:
        return [randbelow_block(rng, bounds[0], count).tolist()]
    else:
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
