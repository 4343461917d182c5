import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge.config import EvalConfig
from ensemble_judge.domain import FEATURE_DIM, SentimentLabel, target_from_return
from ensemble_judge.evaluation import (
    METHOD_NAMES,
    REGIMES,
    ConfusionMatrix,
    Regime,
    evaluate_judgments,
    metrics,
    regimes,
    write_report,
)
from ensemble_judge.meta import MetaModel, OptimizerReport, Standardizer
from tests.oracles import confusion_from_pairs

L = SentimentLabel
EVAL = EvalConfig()


def F(num, den):
    return float(Fraction(num, den))


# Hand-computed oracle values for ten fixed confusion matrices.
# accuracy = (tp+tn)/N; recalls tp/(tp+fn), tn/(tn+fp); balanced = mean;
# F1_pos = 2tp/(2tp+fp+fn); F1_neg = 2tn/(2tn+fn+fp); macro = mean.
HAND_COMPUTED_MATRICES = [
    # (tp, fp, tn, fn), accuracy, macro_f1, balanced_accuracy
    ((2, 1, 3, 2), F(5, 8), F(13, 21), F(5, 8)),
    ((5, 0, 5, 0), 1.0, 1.0, 1.0),                      # perfect predictor
    ((0, 0, 0, 5), 0.0, 0.0, 0.0),                      # all positives missed, no negatives
    ((5, 5, 0, 0), 0.5, F(1, 3), 0.5),                  # constant-positive, balanced set
    ((3, 7, 0, 0), 0.3, F(3, 13), 0.5),                 # constant-positive, imbalanced
    ((0, 0, 4, 6), 0.4, F(2, 7), 0.5),                  # constant-negative
    ((1, 1, 1, 1), 0.5, 0.5, 0.5),
    ((10, 2, 30, 5), F(40, 47), 0.5 * (F(20, 27) + F(60, 67)), 0.5 * (F(10, 15) + F(30, 32))),
    ((0, 10, 0, 0), 0.0, 0.0, 0.0),                     # only negatives, all wrong
    ((7, 3, 0, 0), 0.7, F(7, 17), 0.5),                 # no true negatives possible
]


class TestMetrics:
    @pytest.mark.parametrize("cells,acc,macro,bal", HAND_COMPUTED_MATRICES)
    def test_hand_computed_matrices(self, cells, acc, macro, bal):
        cm = ConfusionMatrix(*cells)
        got = metrics(cm)
        assert got.accuracy == pytest.approx(acc, abs=1e-12)
        assert got.macro_f1 == pytest.approx(macro, abs=1e-12)
        assert got.balanced_accuracy == pytest.approx(bal, abs=1e-12)

    def test_constant_positive_balanced_accuracy_exactly_half(self):
        cm = ConfusionMatrix(tp=53, fp=47, tn=0, fn=0)
        assert metrics(cm).balanced_accuracy == 0.5

    def test_missing_class_is_flagged(self):
        got = metrics(ConfusionMatrix(tp=0, fp=3, tn=5, fn=0))
        assert any("no positive examples" in flag for flag in got.flags)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_from_pairs(self):
        cm = confusion_from_pairs([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (cm.tp, cm.fn, cm.tn, cm.fp) == (2, 1, 1, 1)

    @given(st.tuples(*[st.integers(min_value=0, max_value=40)] * 4))
    @settings(max_examples=200, deadline=None)
    def test_class_swap_symmetry(self, cells):
        tp, fp, tn, fn = cells
        if tp + fp + tn + fn == 0:
            return
        original = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        mirrored = metrics(ConfusionMatrix(tp=tn, fp=fn, tn=tp, fn=fp))
        assert original.macro_f1 == pytest.approx(mirrored.macro_f1, abs=1e-12)
        assert original.balanced_accuracy == pytest.approx(mirrored.balanced_accuracy, abs=1e-12)


def regime_of(labels, confidences, delta):
    """:func:`regimes` of one disclosure, as a :class:`Regime`."""
    codes = regimes(np.array([labels]), np.array([confidences], dtype=np.float64), delta)
    return REGIMES[codes[0]]


class TestRegimeOf:
    def test_unanimous(self):
        assert regime_of([1, 1, 1], [0.1, 0.2, 0.9], EVAL.delta) is Regime.UNANIMOUS

    def test_split_dominant_hand_case(self):
        got = regime_of([1, 1, -1], [0.9, 0.6, 0.3], EVAL.delta)
        assert got is Regime.SPLIT_DOMINANT

    def test_all_distinct_is_high_conflict(self):
        assert regime_of([1, 0, -1], [0.9, 0.1, 0.1], EVAL.delta) is Regime.HIGH_CONFLICT

    def test_split_with_confident_dissenter_is_high_conflict(self):
        got = regime_of([1, 1, -1], [0.4, 0.3, 0.9], EVAL.delta)
        assert got is Regime.HIGH_CONFLICT

    def test_split_below_gap_threshold_is_high_conflict(self):
        got = regime_of([1, 1, -1], [0.62, 0.6, 0.58], delta=0.1)
        assert got is Regime.HIGH_CONFLICT

    def test_gap_threshold_is_configurable(self):
        assert regime_of([1, 1, -1], [0.62, 0.6, 0.58], delta=0.01) is Regime.SPLIT_DOMINANT

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, labels, confs, perm):
        base = regime_of(labels, confs, EVAL.delta)
        permuted = regime_of([labels[i] for i in perm], [confs[i] for i in perm], EVAL.delta)
        assert base is permuted


def _identity_model():
    return MetaModel(
        weights=tuple(0.8 if i == 6 else 0.0 for i in range(FEATURE_DIM)),  # majority feature
        intercept=0.0,
        inverse_reg_strength=1.0,
        standardizer=Standardizer(means=(0.0,) * FEATURE_DIM, stds=(1.0,) * FEATURE_DIM),
        optimizer_report=OptimizerReport(iterations=1, final_gradient_norm=0.0, tolerance=1e-8),
        prompt_hash_digest="",
        n_outputs=0,
    )


class TestEvaluateSplit:
    """:func:`evaluate_judgments` on a four-disclosure split."""

    # id: (next-day return, agent label codes, agent confidences)
    WORLD = {
        "a": (0.02, [1, 1, 1], [0.9, 0.8, 0.7]),
        "b": (-0.01, [-1, -1, 1], [0.8, 0.6, 0.2]),
        "c": (0.005, [1, 0, -1], [0.5, 0.9, 0.4]),
        "d": (-0.02, [0, 0, -1], [0.2, 0.3, 0.8]),
    }

    def _report(self, sensitivity_deltas=EVAL.sensitivity_deltas):
        returns, labels, confidences = zip(*self.WORLD.values())
        return evaluate_judgments(
            list(self.WORLD),
            np.array([target_from_return(r) for r in returns]),
            np.array(labels),
            np.array(confidences, dtype=np.float64),
            _identity_model(),
            EVAL.delta,
            sensitivity_deltas,
        )

    def test_report_has_six_method_rows(self):
        report = self._report()
        assert tuple(report.method_metrics) == METHOD_NAMES
        assert len(report.method_metrics) == 6

    def test_regime_counts_partition_test_size(self):
        report = self._report()
        assert sum(report.regime_counts.values()) == report.test_size == 4

    def test_corrections_list_aggregator_over_vote(self):
        report = self._report()
        for rid in report.corrections:
            assert rid in self.WORLD

    def test_delta_sensitivity_block(self):
        report = self._report((0.05, 0.2))
        assert set(report.delta_sensitivity) == {"0.05", "0.2"}
        for block in report.delta_sensitivity.values():
            assert sum(entry["count"] for entry in block.values()) == 4

    def test_report_files_round_trip(self, tmp_path):
        report = self._report()
        jp, tp_ = tmp_path / "report.json", tmp_path / "report.txt"
        write_report(report, jp, tp_)
        loaded = json.loads(jp.read_text())
        assert loaded["test_size"] == 4
        assert set(loaded["methods"]) == set(METHOD_NAMES)
        text = tp_.read_text()
        assert "aggregator" in text and "Balanced accuracy by agreement regime" in text

    def test_empty_split_rejected(self):
        empty = np.empty((0, 3))
        with pytest.raises(ValueError):
            evaluate_judgments(
                [], np.empty(0), empty, empty, _identity_model(), EVAL.delta, EVAL.sensitivity_deltas
            )
