"""Untrained prediction rules: single agents, majority vote, confidence vote.

All rules share the one binary mapping used everywhere downstream: a method's
three-way judgment is positive -> 1, anything else -> 0. The ``*_predictions``
functions apply a rule to every row of ``(n, 3)`` label-code and confidence
blocks at once; the per-disclosure functions are their reference versions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import AgentOutput, binarize_label
from .features import majority_label, majority_labels


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


def majority_vote_predictions(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """:func:`majority_vote_predict` for each row."""
    return (majority_labels(labels, confidences) == 1).astype(int)


def confidence_vote_predictions(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """:func:`confidence_vote_predict` for each row, summed in the same agent order."""
    weighted = confidences * labels
    return (weighted[:, 0] + weighted[:, 1] + weighted[:, 2] > 0).astype(int)
