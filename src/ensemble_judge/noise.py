"""The stub agents' Gaussian noise, many seeds at a time.

``np.random.default_rng(seed)`` spends most of its cost on ``SeedSequence``
mixing the seed into PCG64's starting words. That mixing is a fixed
sequence of 32-bit hash steps, so here it runs on arrays, one lane per
seed; PCG64 then seeds itself from the mixed words exactly as
``default_rng`` would have it do, and each draw is bit for bit
``default_rng(seed).normal(0.0, scale)``.

Only stub runs import this module: importing it loads ``numpy.random``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence with its default pool of 4 words. Every hash step
# xors its value with one constant and multiplies it by the next of a fixed
# sequence, so the steps are computed once, as plain ints: numpy warns
# when uint32 scalars overflow.
_MASK32 = 0xFFFF_FFFF
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715


def _hash_steps(constant: int, multiplier: int, n: int) -> list[tuple[int, int]]:
    steps = []
    for _ in range(n):
        after = constant * multiplier & _MASK32
        steps.append((constant, after))
        constant = after
    return steps


_ENTROPY_STEPS = _hash_steps(0x43B0_D7E5, 0x931E_8875, 16)  # 4 words in, 12 mixes
_STATE_STEPS = _hash_steps(0x8B51_F9DD, 0x58F3_8DED, 8)  # 4 uint64 words out


def _hash(words: np.ndarray, step: tuple[int, int]) -> np.ndarray:
    xor, multiplier = step
    words = (words ^ xor) * multiplier
    return words ^ words >> 16


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` of each uint64 seed
    ``s``, one row per seed.

    A seed below 2**32 is one entropy word and numpy fills the pool's other
    words as if they were zero, so reading every seed as its two 32-bit
    halves gives the same words.
    """
    steps = iter(_ENTROPY_STEPS)
    low = (seeds & _MASK32).astype(np.uint32)
    high = (seeds >> 32).astype(np.uint32)
    zero = np.zeros_like(low)
    pool = [_hash(word, next(steps)) for word in (low, high, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * _hash(pool[src], next(steps))
                pool[dst] = mixed ^ mixed >> 16
    state = np.stack([_hash(pool[i % 4], step) for i, step in enumerate(_STATE_STEPS)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _MixedSeed(ISeedSequence):
    """One seed's SeedSequence words, already computed: PCG64 seeds itself
    from them as it would from ``SeedSequence(seed)``."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words: int, dtype: type) -> np.ndarray:
        return self._words


def normal_draws(seeds: Sequence[int], scales: Sequence[float]) -> list[float]:
    """``default_rng(seed).normal(0.0, scale)`` of each (seed, scale) pair;
    the seeds are nonnegative and below 2**64."""
    words = seed_words(np.array(seeds, dtype=np.uint64))
    # The mixing copies numpy's; a numpy that mixes otherwise must fail
    # here, not change the draws.
    if len(words) and not np.array_equal(
        words[0], SeedSequence(seeds[0]).generate_state(4, np.uint64)
    ):
        raise RuntimeError("numpy's SeedSequence mixing differs from the copy in noise.py")
    return [
        float(Generator(PCG64(_MixedSeed(row))).normal(0.0, scale))
        for row, scale in zip(words, scales, strict=True)
    ]
