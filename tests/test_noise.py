"""The vectorized seed mixing and draws equal numpy's own, seed for seed."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import noise
from ensemble_judge.noise import normal_draws, seed_words

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1]
seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _numpy_words(seed: int) -> np.ndarray:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64)


def test_words_of_the_edge_seeds_equal_numpys():
    words = seed_words(np.array(EDGE_SEEDS, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(EDGE_SEEDS), 4)
    for seed, row in zip(EDGE_SEEDS, words):
        assert row.tolist() == _numpy_words(seed).tolist(), seed


@settings(max_examples=150, deadline=None)
@given(st.lists(seeds, min_size=1, max_size=20))
def test_words_equal_numpys_for_any_seeds(batch):
    words = seed_words(np.array(batch, dtype=np.uint64))
    assert [row.tolist() for row in words] == [_numpy_words(s).tolist() for s in batch]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(seeds, st.sampled_from([0.0, 0.12, 0.15, 0.7, 2.5])), max_size=8))
def test_draws_equal_default_rng(pairs):
    draws = normal_draws([s for s, _ in pairs], [scale for _, scale in pairs])
    assert draws == [float(np.random.default_rng(s).normal(0.0, scale)) for s, scale in pairs]
    assert all(type(draw) is float for draw in draws)


def test_draws_of_the_edge_seeds_equal_default_rng():
    draws = normal_draws(EDGE_SEEDS, [0.7] * len(EDGE_SEEDS))
    assert draws == [float(np.random.default_rng(s).normal(0.0, 0.7)) for s in EDGE_SEEDS]


def test_mixing_that_differs_from_numpys_fails_loudly(monkeypatch):
    monkeypatch.setattr(noise, "_MIX_MULT_L", noise._MIX_MULT_L ^ 1)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        normal_draws([12345], [0.7])
