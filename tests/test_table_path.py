"""The array path (feature matrix, votes, regimes, confusion counts) against
the per-disclosure reference rules in ``tests/oracles.py``."""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge.evaluation import (
    METHOD_NAMES,
    REGIMES,
    ConfusionMatrix,
    confidence_vote_predictions,
    evaluate_judgments,
    majority_vote_predictions,
    metrics,
    regimes,
)
from ensemble_judge.features import (
    feature_lines,
    feature_matrix,
    read_feature_file,
    write_feature_file,
)
from tests import test_evaluation
from tests.conftest import make_triple
from tests.oracles import (
    build_features,
    confidence_vote_predict,
    confusion_from_pairs,
    majority_vote_predict,
    regime_of,
    single_agent_predict,
)

# A small pool makes exact confidence ties common; fallbacks are (0, 0.0).
confidence = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.floats(min_value=0.0, max_value=1.0)
)
agent = st.one_of(
    st.tuples(st.sampled_from([-1, 0, 1]), confidence),
    st.just((0, 0.0)),
)
all_distinct = st.permutations([-1, 0, 1]).flatmap(
    lambda labels: st.tuples(*(st.tuples(st.just(l), confidence) for l in labels))
)
triples = st.lists(st.one_of(st.tuples(agent, agent, agent), all_distinct), min_size=1, max_size=40)
deltas = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.2, 0.25, 0.5]), st.floats(0.0, 1.0))


def _blocks(rows):
    labels = np.array([[code for code, _ in row] for row in rows], dtype=np.int8)
    confidences = np.array([[conf for _, conf in row] for row in rows], dtype=np.float64)
    return labels, confidences


def _outputs(rows):
    return [make_triple([c for c, _ in row], [p for _, p in row]) for row in rows]


@given(triples, st.lists(deltas, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_array_path_matches_scalar_oracles(rows, delta_list):
    labels, confidences = _blocks(rows)
    outputs = _outputs(rows)

    X = feature_matrix(labels, confidences)
    assert X.dtype == np.float64 and X.flags.c_contiguous
    assert X.tolist() == [list(build_features(triple).values) for triple in outputs]
    assert majority_vote_predictions(labels, confidences).tolist() == [
        majority_vote_predict(triple) for triple in outputs
    ]
    assert confidence_vote_predictions(labels, confidences).tolist() == [
        confidence_vote_predict(triple) for triple in outputs
    ]
    for delta in delta_list:
        assert [REGIMES[code] for code in regimes(labels, confidences, delta)] == [
            regime_of(triple, delta=delta) for triple in outputs
        ]


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=60))
def test_confusion_counts_match_from_pairs(pairs):
    y_true = [t for t, _ in pairs]
    y_pred = [p for _, p in pairs]
    y_true_a, y_pred_a = np.array(y_true, dtype=int), np.array(y_pred, dtype=int)
    assert ConfusionMatrix.from_arrays(y_true_a, y_pred_a) == confusion_from_pairs(y_true, y_pred)


@given(triples, st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_judgments_matches_scalar_oracles(rows, data):
    """Each method's metrics, the regime counts and the corrections, scored
    pair by pair from the reference rules."""
    labels, confidences = _blocks(rows)
    outputs = _outputs(rows)
    targets = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    ids = [f"d{i}" for i in range(len(rows))]
    model = test_evaluation._identity_model()
    report = evaluate_judgments(ids, np.array(targets), labels, confidences, model, 0.1, ())

    predictions = {
        name: [single_agent_predict(triple[i]) for triple in outputs]
        for i, name in enumerate(METHOD_NAMES[:3])
    }
    predictions["majority_vote"] = [majority_vote_predict(triple) for triple in outputs]
    predictions["confidence_vote"] = [confidence_vote_predict(triple) for triple in outputs]
    X = np.array([build_features(triple).values for triple in outputs])
    predictions["aggregator"] = model.predict_batch(X).tolist()
    assert report.method_metrics == {
        name: metrics(confusion_from_pairs(targets, predictions[name])) for name in METHOD_NAMES
    }
    found = Counter(regime_of(triple, delta=0.1).value for triple in outputs)
    assert report.regime_counts == {regime.value: found[regime.value] for regime in REGIMES}
    assert list(report.corrections) == [
        rid
        for rid, target, aggregator, vote in zip(
            ids, targets, predictions["aggregator"], predictions["majority_vote"]
        )
        if aggregator == target != vote
    ]


def test_feature_file_round_trip(tmp_path):
    labels, confidences = _blocks([((1, 0.9), (0, 0.5), (-1, 0.5)), ((0, 0.0), (0, 0.0), (1, 0.3))])
    X = feature_matrix(labels, confidences)
    path = tmp_path / "features.jsonl"
    write_feature_file(path, ["a", "b"], X, [1, 0])
    lines = [line.encode() for line in feature_lines(["a", "b"], X, [1, 0])]
    assert list(read_feature_file(path)) == lines
    assert path.read_bytes() == b"".join(lines)
