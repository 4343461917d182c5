import itertools
import random

import pytest

from ensemble_judge.domain import ConfidenceSource, SentimentLabel
from tests.conftest import make_output, make_triple
from tests.oracles import (
    confidence_vote_predict,
    confidence_vote_score,
    majority_vote_predict,
    single_agent_predict,
)

L = SentimentLabel
CODES = (-1, 0, 1)


class TestSingleAgent:
    def test_positive(self):
        assert single_agent_predict(make_output(label=L.POSITIVE)) == 1

    def test_neutral(self):
        assert single_agent_predict(make_output(label=L.NEUTRAL)) == 0

    def test_fallback_ignores_confidence(self):
        fallback = make_output(
            label=L.NEUTRAL, confidence=0.0, source=ConfidenceSource.FALLBACK, retry_count=1
        )
        assert single_agent_predict(fallback) == 0


class TestMajorityVote:
    def test_positive_majority(self):
        assert majority_vote_predict(make_triple([1, 1, -1], [0.5, 0.5, 0.5])) == 1

    def test_neutral_majority_binarizes_to_zero(self):
        assert majority_vote_predict(make_triple([0, 0, 1], [0.5, 0.5, 0.9])) == 0

    def test_all_distinct_falls_back_to_most_confident(self):
        assert majority_vote_predict(make_triple([1, 0, -1], [0.9, 0.1, 0.1])) == 1

    def test_exhaustive_enumeration_oracle_unit_confidences(self):
        # Independent oracle: count labels; a label seen twice or more wins,
        # otherwise the most confident agent (all tied -> the first one).
        for combo in itertools.product(CODES, repeat=3):
            got = majority_vote_predict(make_triple(list(combo), [1.0, 1.0, 1.0]))
            counts = {c: combo.count(c) for c in combo}
            winner = next((c for c in combo if counts[c] >= 2), combo[0])
            assert got == (1 if winner == 1 else 0), combo


class TestConfidenceVoteScore:
    def test_hand_evaluated_sum(self):
        score = confidence_vote_score(make_triple([1, -1, 0], [0.9, 0.2, 0.5]))
        assert score == pytest.approx(0.7, abs=1e-12)

    def test_all_neutral_annihilates(self):
        assert confidence_vote_score(make_triple([0, 0, 0], [1.0, 1.0, 1.0])) == 0.0

    def test_extreme_negative(self):
        assert confidence_vote_score(make_triple([-1, -1, -1], [1.0, 1.0, 1.0])) == -3.0

    def test_linear_in_each_confidence(self):
        rng = random.Random(7)
        for _ in range(50):
            labels = [rng.choice(CODES) for _ in range(3)]
            confs = [rng.random() for _ in range(3)]
            base = confidence_vote_score(make_triple(labels, confs))
            k = rng.randrange(3)
            delta = rng.random() * (1 - confs[k])
            bumped = list(confs)
            bumped[k] += delta
            moved = confidence_vote_score(make_triple(labels, bumped))
            assert moved - base == pytest.approx(delta * labels[k], abs=1e-12)


class TestConfidenceVotePredict:
    def test_positive_score(self):
        assert confidence_vote_predict(make_triple([1, -1, 0], [0.9, 0.2, 0.5])) == 1

    def test_zero_score_is_zero(self):
        assert confidence_vote_predict(make_triple([0, 0, 0], [0.4, 0.4, 0.4])) == 0
        # exact cancellation also lands on the "0 otherwise" branch
        assert confidence_vote_predict(make_triple([1, -1, 0], [0.5, 0.5, 0.9])) == 0

    def test_negative_score(self):
        assert confidence_vote_predict(make_triple([-1, 1, 0], [0.5, 0.4, 0.9])) == 0

    def test_positive_scaling_invariance(self):
        rng = random.Random(42)
        for _ in range(1000):
            labels = [rng.choice(CODES) for _ in range(3)]
            confs = [rng.random() for _ in range(3)]
            scale = rng.uniform(0.05, 1.0)
            scaled = [c * scale for c in confs]
            assert confidence_vote_predict(make_triple(labels, confs)) == confidence_vote_predict(
                make_triple(labels, scaled)
            )

    def test_agreement_with_majority_when_unanimous(self):
        rng = random.Random(3)
        for _ in range(200):
            code = rng.choice(CODES)
            confs = [rng.random() for _ in range(3)]
            if sum(confs) == 0:
                continue
            triple = make_triple([code] * 3, confs)
            assert majority_vote_predict(triple) == confidence_vote_predict(triple)
