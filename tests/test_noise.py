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


STUB_SCALES = [0.15, 0.12, 0.7]


def test_a_large_batch_equals_default_rng_at_each_stub_scale():
    batch = np.concatenate(
        [np.array(EDGE_SEEDS, dtype=np.uint64),
         np.random.default_rng(5).integers(0, 2**64, 50_000, dtype=np.uint64)]
    )
    for scale in STUB_SCALES:
        draws = normal_draws(batch, np.full(len(batch), scale))
        expected = [float(np.random.default_rng(s).normal(0.0, scale)) for s in batch.tolist()]
        assert draws == expected


def _outputs_taken(seed: int) -> int:
    """How many PCG64 outputs numpy's ``standard_normal`` takes for ``seed``'s draw."""
    bits = np.random.PCG64(seed)
    np.random.Generator(bits).standard_normal()
    taken = np.random.PCG64(seed)
    for n in range(1, 10):
        taken.advance(1)
        if taken.state == bits.state:
            return n
    raise AssertionError(seed)


@pytest.mark.parametrize(
    "seed, layer, outputs",
    [(121, 0, None), (15, 1, None), (257, 12, 3)],
    ids=["tail-layer", "layer-1", "wedge-rejection"],
)
def test_each_of_numpys_slow_paths_is_numpys_draw(seed, layer, outputs):
    """Seeds whose first output falls in the tail layer, in layer 1 (whose box
    numpy's table leaves empty), and in layer 12 outside its box, where the
    wedge test rejects it and numpy draws again."""
    assert int(np.random.PCG64(seed).random_raw()) & 0xFF == layer
    if outputs is not None:
        assert _outputs_taken(seed) == outputs
    batch = [seed, 1, seed, 2**64 - 1]
    for scale in STUB_SCALES:
        assert normal_draws(batch, [scale] * 4) == [
            float(np.random.default_rng(s).normal(0.0, scale)) for s in batch
        ]


def test_a_pcg64_step_that_differs_from_numpys_fails_loudly(monkeypatch):
    monkeypatch.setattr(noise, "_PCG_MULT", noise._PCG_MULT ^ 2)
    with pytest.raises(RuntimeError, match="PCG64 output differs from the copy in noise.py"):
        normal_draws([12345], [0.7])
