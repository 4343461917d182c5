import json
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge.domain import (
    FEATURE_DIM,
    DisclosureRecord,
    SentimentLabel,
    target_from_return,
)
from ensemble_judge.evaluation import (
    ConfusionMatrix,
    METHOD_NAMES,
    Regime,
    evaluate_split,
    metrics,
    regime_of,
    write_report,
)
from ensemble_judge.meta import MetaModel, OptimizerReport, Standardizer
from tests.conftest import make_triple
from tests.oracles import confusion_from_pairs

L = SentimentLabel


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


class TestRegimeOf:
    def test_unanimous(self):
        assert regime_of(make_triple([1, 1, 1], [0.1, 0.2, 0.9])) is Regime.UNANIMOUS

    def test_split_dominant_hand_case(self):
        got = regime_of(make_triple([1, 1, -1], [0.9, 0.6, 0.3]))
        assert got is Regime.SPLIT_DOMINANT

    def test_all_distinct_is_high_conflict(self):
        assert regime_of(make_triple([1, 0, -1], [0.9, 0.1, 0.1])) is Regime.HIGH_CONFLICT

    def test_split_with_confident_dissenter_is_high_conflict(self):
        got = regime_of(make_triple([1, 1, -1], [0.4, 0.3, 0.9]))
        assert got is Regime.HIGH_CONFLICT

    def test_split_below_gap_threshold_is_high_conflict(self):
        got = regime_of(make_triple([1, 1, -1], [0.62, 0.6, 0.58]), delta=0.1)
        assert got is Regime.HIGH_CONFLICT

    def test_gap_threshold_is_configurable(self):
        triple = make_triple([1, 1, -1], [0.62, 0.6, 0.58])
        assert regime_of(triple, delta=0.01) is Regime.SPLIT_DOMINANT

    @given(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=3, max_size=3),
        st.lists(st.floats(min_value=0, max_value=1), min_size=3, max_size=3),
        st.permutations([0, 1, 2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariant(self, labels, confs, perm):
        base = regime_of(make_triple(labels, confs))
        permuted = regime_of(make_triple([labels[i] for i in perm], [confs[i] for i in perm]))
        assert base is permuted


def _record(rid, ret, day):
    return DisclosureRecord(
        id=rid,
        timestamp=datetime(2022, 1, 1, tzinfo=timezone.utc) + timedelta(days=day),
        ticker="T",
        raw_text="x",
        clean_text="x",
        next_day_return=ret,
        binary_target=target_from_return(ret),
    )


def _identity_model():
    return MetaModel(
        weights=tuple(0.8 if i == 6 else 0.0 for i in range(FEATURE_DIM)),  # majority feature
        intercept=0.0,
        inverse_reg_strength=1.0,
        standardizer=Standardizer(
            means=(0.0,) * FEATURE_DIM, stds=(1.0,) * FEATURE_DIM, mask=(False,) * FEATURE_DIM
        ),
        optimizer_report=OptimizerReport(iterations=1, final_gradient_norm=0.0, tolerance=1e-8),
    )


class TestEvaluateSplit:
    def _world(self):
        records = [
            _record("a", 0.02, 0),
            _record("b", -0.01, 1),
            _record("c", 0.005, 2),
            _record("d", -0.02, 3),
        ]
        patterns = {
            "a": make_triple([1, 1, 1], [0.9, 0.8, 0.7], disclosure_id="a"),
            "b": make_triple([-1, -1, 1], [0.8, 0.6, 0.2], disclosure_id="b"),
            "c": make_triple([1, 0, -1], [0.5, 0.9, 0.4], disclosure_id="c"),
            "d": make_triple([0, 0, -1], [0.2, 0.3, 0.8], disclosure_id="d"),
        }
        outputs = {rid: {o.agent: o for o in triple} for rid, triple in patterns.items()}
        return records, outputs

    def test_report_has_six_method_rows(self):
        records, outputs = self._world()
        report = evaluate_split(records, outputs, _identity_model())
        assert tuple(report.method_metrics) == METHOD_NAMES
        assert len(report.method_metrics) == 6

    def test_regime_counts_partition_test_size(self):
        records, outputs = self._world()
        report = evaluate_split(records, outputs, _identity_model())
        assert sum(report.regime_counts.values()) == report.test_size == 4

    def test_missing_outputs_rejected(self):
        records, outputs = self._world()
        del outputs["c"]
        with pytest.raises(KeyError, match="'c'"):
            evaluate_split(records, outputs, _identity_model())

    def test_corrections_list_aggregator_over_vote(self):
        records, outputs = self._world()
        report = evaluate_split(records, outputs, _identity_model())
        for rid in report.corrections:
            assert rid in {r.id for r in records}

    def test_delta_sensitivity_block(self):
        records, outputs = self._world()
        report = evaluate_split(records, outputs, _identity_model(), sensitivity_deltas=(0.05, 0.2))
        assert set(report.delta_sensitivity) == {"0.05", "0.2"}
        for block in report.delta_sensitivity.values():
            assert sum(entry["count"] for entry in block.values()) == 4

    def test_report_files_round_trip(self, tmp_path):
        records, outputs = self._world()
        report = evaluate_split(records, outputs, _identity_model())
        jp, tp_ = tmp_path / "report.json", tmp_path / "report.txt"
        write_report(report, jp, tp_)
        loaded = json.loads(jp.read_text())
        assert loaded["test_size"] == 4
        assert set(loaded["methods"]) == set(METHOD_NAMES)
        text = tp_.read_text()
        assert "aggregator" in text and "Balanced accuracy by agreement regime" in text

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_split([], {}, _identity_model())
