"""Per-disclosure reference rules the package's array path is checked against.

The pipeline scores whole splits at once (``evaluation.evaluate_judgments``
over ``(n, 3)`` label-code and confidence blocks). These are the same rules
written one disclosure at a time, in the plainest form, so tests can compare
the two; no production code calls them.
"""

from __future__ import annotations

from typing import Sequence

from ensemble_judge.domain import AgentOutput, SentimentLabel
from ensemble_judge.evaluation import ConfusionMatrix
from ensemble_judge.features import majority_label


def binarize_label(label: SentimentLabel) -> int:
    """Map a three-way label to the binary downstream task: positive -> 1, else 0."""
    return 1 if label is SentimentLabel.POSITIVE else 0


def single_agent_predict(output: AgentOutput) -> int:
    """One agent's label under the binary mapping; confidence is ignored."""
    return binarize_label(output.label)


def majority_vote_predict(outputs: Sequence[AgentOutput]) -> int:
    """Three-way majority first, then binarize.

    Two positives always yield 1; any non-positive majority yields 0. The
    all-distinct case falls back to the most confident agent's label before
    binarizing.
    """
    labels = [o.label for o in outputs]
    confidences = [o.confidence for o in outputs]
    return binarize_label(majority_label(labels, confidences))


def confidence_vote_score(outputs: Sequence[AgentOutput]) -> float:
    """Sum of confidence times numeric label over the three agents; in [-3, 3]."""
    return sum(o.confidence * int(o.label) for o in outputs)


def confidence_vote_predict(outputs: Sequence[AgentOutput]) -> int:
    """1 iff the confidence-weighted score is strictly positive."""
    return 1 if confidence_vote_score(outputs) > 0 else 0


def confusion_from_pairs(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Confusion cells counted pair by pair."""
    if len(y_true) != len(y_pred):
        raise ValueError("prediction and target lengths disagree")
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
