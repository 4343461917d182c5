"""The stub agents' Gaussian noise, many seeds at a time.

Each draw is bit for bit ``np.random.default_rng(seed).normal(0.0, scale)``,
computed on arrays, one lane per seed. ``SeedSequence`` mixes the seed into
PCG64's four starting words by a fixed sequence of 32-bit hash steps, and
PCG64 seeds itself from them and steps its 128-bit state by a fixed
multiply and add (O'Neill, 2014): both run here on uint64 arrays, the
128-bit products built from 32-bit limbs, up to each lane's first output.
numpy's ziggurat (Marsaglia & Tsang, 2000) turns that output into a normal
at once when its layer index and magnitude bits fall inside the layer's
box; for those lanes the draw is taken here from numpy's own layer widths
and thresholds, probed once per process from its ``Generator``. Every other
lane (about 2 %) is drawn by a ``Generator`` seeded with its mixed words.

Only stub runs import this module: importing it loads ``numpy.random``.
"""

from __future__ import annotations

from functools import cache
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


# PCG64's 128-bit multiplier. Every PCG64 value is 128 bits, held here as
# its high and low 64-bit halves.
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645
_MASK64 = (1 << 64) - 1
_MASK52 = (1 << 52) - 1


def _mul64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The high and low halves of each full product ``a * b``, from 32-bit limbs."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    low, cross, across = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> 32) + (cross & _MASK32) + (across & _MASK32)
    return a1 * b1 + (cross >> 32) + (across >> 32) + (mid >> 32), mid << 32 | low & _MASK32


def _add(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``a + b`` modulo 2**128, each a (high, low) pair."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def first_outputs(words: np.ndarray) -> np.ndarray:
    """The first ``random_raw()`` of a PCG64 seeded with each row of
    :func:`seed_words`: the state's two steps from the seed and the
    increment, then the XSL-RR output of the state the first draw steps to."""
    mult_high, mult_low = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)

    def step(state: tuple) -> tuple[np.ndarray, np.ndarray]:  # state * multiplier + inc
        carry, low = _mul64(state[1], mult_low)
        return _add((carry + state[1] * mult_high + state[0] * mult_low, low), inc)

    w0, w1, w2, w3 = words.T
    inc = (w2 << 1 | w3 >> 63, w3 << 1 | 1)  # the increment is made odd
    high, low = step(step(_add(inc, (w0, w1))))
    xored, rotation = high ^ low, high >> 58
    return xored >> rotation | xored << ((64 - rotation) & 63)


@cache
def _ziggurat() -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat layer widths, and each layer's bound below which an
    output's magnitude bits are surely in the layer's box (0 where no bound
    is kept: the tail layer 0, and any layer whose probe fails).

    numpy does not export its tables, so they are probed from its own
    ``standard_normal``, set to draw a chosen output: an output of magnitude
    1 in layer ``i`` draws layer ``i``'s width, and a candidate bound is kept
    only if an output of that magnitude draws in one step what the box gives.
    """
    bits = PCG64(0)
    normal = Generator(bits).standard_normal
    inverse = pow(_PCG_MULT, -1, 1 << 128)

    def draw(output: int) -> tuple[float, bool]:
        """The draw whose first output is ``output``, and whether it took only that one.
        With an increment of 1, the step lands on a state whose high half is
        0, which outputs its low half."""
        state = (output - 1) * inverse % (1 << 128)
        bits.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": 1},
            "has_uint32": 0, "uinteger": 0,
        }
        value = normal()
        return value, bits.state["state"]["state"] == output

    widths = np.array([draw(1 << 9 | layer)[0] for layer in range(256)])
    bounds = np.zeros(256, np.uint64)
    for layer in range(1, 256):
        bound = int(2**52 * widths[layer - 1] / widths[layer] * (1 - 1e-9))
        if 0 < bound <= _MASK52:
            value, one_step = draw(bound << 9 | layer)
            if one_step and value == bound * widths[layer]:
                bounds[layer] = bound
    return widths, bounds


def normal_draws(
    seeds: Sequence[int] | np.ndarray, scales: Sequence[float] | np.ndarray
) -> list[float]:
    """``default_rng(seed).normal(0.0, scale)`` of each (seed, scale) pair;
    the seeds are nonnegative and below 2**64."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    scales = np.asarray(scales, dtype=np.float64)
    words = seed_words(seeds)
    outputs = first_outputs(words)
    # The mixing and the PCG64 steps copy numpy's; a numpy that works
    # otherwise must fail here, not change the draws.
    if len(words):
        if not np.array_equal(words[0], SeedSequence(int(seeds[0])).generate_state(4, np.uint64)):
            raise RuntimeError("numpy's SeedSequence mixing differs from the copy in noise.py")
        if outputs[0] != PCG64(_MixedSeed(words[0])).random_raw():
            raise RuntimeError("numpy's PCG64 output differs from the copy in noise.py")
    widths, bounds = _ziggurat()
    layers = (outputs & 0xFF).astype(np.intp)
    magnitudes = outputs >> 9 & _MASK52
    standard = magnitudes.astype(np.float64) * widths[layers]
    np.negative(standard, out=standard, where=(outputs >> 8 & 1).astype(bool))
    draws = 0.0 + scales * standard
    # The tail, the wedges and any layer without a bound: numpy's own draw.
    for lane in np.flatnonzero(magnitudes >= bounds[layers]).tolist():
        draws[lane] = Generator(PCG64(_MixedSeed(words[lane]))).normal(0.0, scales[lane])
    return draws.tolist()
