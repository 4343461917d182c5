import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge.domain import (
    FEAT_AGREEMENT,
    FEAT_CONFS,
    FEAT_COUNTS,
    FEAT_GAP,
    FEAT_LABELS,
    FEAT_MAJORITY,
    FEAT_TOP_AGENT,
    FEATURE_DIM,
    Lens,
    SentimentLabel,
)
from ensemble_judge.features import (
    build_features,
    confidence_gaps,
    feature_matrix,
    majority_labels,
)
from tests.conftest import make_output, make_triple

L = SentimentLabel


# The array rules on one-row blocks, so each hand case checks production code.


def _confidences(confidences):
    return np.array([confidences], dtype=np.float64)


def majority_label(labels, confidences):
    codes = np.array([[int(label) for label in labels]], dtype=np.int64)
    return L(int(majority_labels(codes, _confidences(confidences))[0]))


def most_confident_agent(confidences):
    X = feature_matrix(np.zeros((1, 3), dtype=np.int64), _confidences(confidences))
    indicator = [X[0, i] for i in FEAT_TOP_AGENT]
    assert sorted(indicator) == [0.0, 0.0, 1.0]
    return indicator.index(1.0)


def confidence_gap(confidences):
    return float(confidence_gaps(_confidences(confidences))[0])


class TestMajorityLabel:
    def test_strict_majority(self):
        assert majority_label([L.POSITIVE, L.POSITIVE, L.NEGATIVE], [0.5, 0.5, 0.5]) is L.POSITIVE

    def test_all_distinct_falls_back_to_most_confident(self):
        got = majority_label([L.POSITIVE, L.NEUTRAL, L.NEGATIVE], [0.3, 0.9, 0.5])
        assert got is L.NEUTRAL

    def test_unanimity(self):
        assert majority_label([L.NEUTRAL] * 3, [0.1, 0.2, 0.3]) is L.NEUTRAL

    def test_distinct_with_confidence_tie_uses_agent_order(self):
        got = majority_label([L.POSITIVE, L.NEUTRAL, L.NEGATIVE], [0.5, 0.5, 0.1])
        assert got is L.POSITIVE


class TestMostConfidentAgent:
    def test_unique_argmax(self):
        assert most_confident_agent([0.2, 0.9, 0.4]) == 1

    def test_tie_goes_to_earlier_agent(self):
        assert most_confident_agent([0.5, 0.5, 0.1]) == 0

    def test_full_tie_first_agent(self):
        assert most_confident_agent([0.0, 0.0, 0.0]) == 0


class TestConfidenceGap:
    def test_hand_evaluated(self):
        assert confidence_gap([0.9, 0.6, 0.1]) == pytest.approx(0.3, abs=1e-12)

    def test_tied_top_pair(self):
        assert confidence_gap([0.7, 0.7, 0.2]) == 0.0

    def test_extreme(self):
        assert confidence_gap([1.0, 0.0, 0.0]) == 1.0


class TestBuildFeatures:
    def test_unanimous_positive_layout(self):
        fv = build_features(make_triple([1, 1, 1], [0.8, 0.7, 0.6]))
        v = list(fv.values)
        assert [v[i] for i in FEAT_LABELS] == [1.0, 1.0, 1.0]
        assert [v[i] for i in FEAT_CONFS] == [0.8, 0.7, 0.6]
        assert v[FEAT_MAJORITY] == 1.0
        assert [v[i] for i in FEAT_COUNTS] == [3.0, 0.0, 0.0]
        assert v[FEAT_AGREEMENT] == 3.0
        assert v[FEAT_GAP] == pytest.approx(0.1, abs=1e-12)
        assert [v[i] for i in FEAT_TOP_AGENT] == [1.0, 0.0, 0.0]

    def test_all_distinct_layout_with_fallback_majority(self):
        fv = build_features(make_triple([1, 0, -1], [0.3, 0.9, 0.5]))
        v = list(fv.values)
        assert [v[i] for i in FEAT_LABELS] == [1.0, 0.0, -1.0]
        assert v[FEAT_MAJORITY] == 0.0  # most confident agent is guidance
        assert [v[i] for i in FEAT_COUNTS] == [1.0, 1.0, 1.0]
        assert v[FEAT_AGREEMENT] == 1.0
        assert v[FEAT_GAP] == pytest.approx(0.4, abs=1e-12)
        assert [v[i] for i in FEAT_TOP_AGENT] == [0.0, 1.0, 0.0]

    def test_input_order_is_canonicalized_by_lens(self):
        triple = make_triple([1, 0, -1], [0.3, 0.9, 0.5])
        shuffled = [triple[2], triple[0], triple[1]]
        assert build_features(shuffled) == build_features(triple)

    def test_duplicate_lens_rejected(self):
        triple = make_triple([1, 1, 1], [0.5, 0.5, 0.5])
        bad = [triple[0], triple[0], triple[2]]
        with pytest.raises(ValueError, match="one output per lens"):
            build_features(bad)

    def test_wrong_count_rejected(self):
        triple = make_triple([1, 1, 1], [0.5, 0.5, 0.5])
        with pytest.raises(ValueError, match="three"):
            build_features(triple[:2])

    def test_cross_disclosure_rejected(self):
        triple = make_triple([1, 1, 1], [0.5, 0.5, 0.5])
        other = make_output(lens=Lens.RISK, disclosure_id="other")
        with pytest.raises(ValueError, match="disclosures"):
            build_features([triple[0], triple[1], other])

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_structural_invariants(self, labels, confs):
        v = list(build_features(make_triple(labels, confs)).values)
        assert len(v) == FEATURE_DIM
        counts = [v[i] for i in FEAT_COUNTS]
        assert sum(counts) == 3.0 and all(c == int(c) >= 0 for c in counts)
        assert v[FEAT_AGREEMENT] in (1.0, 2.0, 3.0)
        assert sorted(v[i] for i in FEAT_TOP_AGENT) == [0.0, 0.0, 1.0]
        assert v[FEAT_GAP] >= 0.0

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance_of_symmetric_features(self, labels, confs, perm):
        base = list(build_features(make_triple(labels, confs)).values)
        permuted_labels = [labels[i] for i in perm]
        permuted_confs = [confs[i] for i in perm]
        # permuting (label, confidence) pairs across agents leaves the
        # symmetric features unchanged
        other = list(build_features(make_triple(permuted_labels, permuted_confs)).values)
        for idx in (*FEAT_COUNTS, FEAT_GAP):
            assert other[idx] == pytest.approx(base[idx], abs=1e-12)


class TestExhaustiveLabelPatterns:
    def test_majority_label_matches_counter_oracle_under_unit_confidence(self):
        for combo in itertools.product([L.NEGATIVE, L.NEUTRAL, L.POSITIVE], repeat=3):
            got = majority_label(list(combo), [1.0, 1.0, 1.0])
            counts = {label: combo.count(label) for label in set(combo)}
            top_count = max(counts.values())
            if top_count >= 2:
                (expected,) = [lab for lab, c in counts.items() if c == top_count]
                assert got is expected
            else:
                assert got is combo[0]  # unit-confidence tie -> performance agent
