"""Build the 15-dimensional aggregation feature vector from three agent outputs.

Layout (see :mod:`ensemble_judge.domain` for the index constants): per-agent
labels and confidences in fixed lens order, the majority label, the label
counts, the modal-label agreement count, the top-two confidence gap, and a
one-hot indicator of the most confident agent.

The pipeline builds whole feature matrices at once with
:func:`feature_matrix` from ``(n, 3)`` label-code and confidence blocks; the
per-disclosure functions are the reference rules it must agree with.
"""

from __future__ import annotations

from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import ArtifactError, read_jsonl, write_jsonl
from .domain import (
    FEATURE_DIM,
    LENS_ORDER,
    AgentOutput,
    FeatureVector,
    SentimentLabel,
    check_feature_matrix,
)


def majority_label(
    labels: Sequence[SentimentLabel], confidences: Sequence[float]
) -> SentimentLabel:
    """Modal label of the three agents.

    When all three labels are distinct there is no mode; the label of the
    most confident agent is used instead (confidence ties fall back to the
    fixed agent order performance > guidance > risk).
    """
    if len(labels) != 3 or len(confidences) != 3:
        raise ValueError("expected exactly three labels and three confidences")
    for label in labels:
        if sum(1 for other in labels if other == label) >= 2:
            return label
    return labels[most_confident_agent(confidences)]


def most_confident_agent(confidences: Sequence[float]) -> int:
    """Index of the highest confidence; exact ties go to the earliest agent."""
    if len(confidences) != 3:
        raise ValueError("expected exactly three confidences")
    best = 0
    for i in (1, 2):
        if confidences[i] > confidences[best]:
            best = i
    return best


def confidence_gap(confidences: Sequence[float]) -> float:
    """Largest confidence minus the second largest."""
    if len(confidences) != 3:
        raise ValueError("expected exactly three confidences")
    top, second = sorted(confidences, reverse=True)[:2]
    return top - second


def build_features(outputs: Sequence[AgentOutput]) -> FeatureVector:
    """Assemble the aggregation features for one disclosure.

    ``outputs`` must hold exactly one output per lens for a single
    disclosure; any order is accepted and canonicalized to the fixed
    agent order. Fallback outputs (neutral, 0.0) enter unchanged.
    """
    if len(outputs) != 3:
        raise ValueError(f"expected exactly three agent outputs, got {len(outputs)}")
    by_lens = {o.agent: o for o in outputs}
    if len(by_lens) != 3:
        lenses = sorted(o.agent.value for o in outputs)
        raise ValueError(f"need one output per lens, got {lenses}")
    ids = {o.disclosure_id for o in outputs}
    if len(ids) != 1:
        raise ValueError(f"outputs span multiple disclosures: {sorted(ids)}")

    ordered = [by_lens[lens] for lens in LENS_ORDER]
    labels = [o.label for o in ordered]
    confidences = [o.confidence for o in ordered]

    majority = majority_label(labels, confidences)
    agreement = sum(1 for label in labels if label == majority)
    top_agent = most_confident_agent(confidences)

    values = [float(int(label)) for label in labels]
    values += [float(c) for c in confidences]
    values.append(float(int(majority)))
    values += [
        float(sum(1 for l in labels if l is SentimentLabel.POSITIVE)),
        float(sum(1 for l in labels if l is SentimentLabel.NEUTRAL)),
        float(sum(1 for l in labels if l is SentimentLabel.NEGATIVE)),
    ]
    values.append(float(agreement))
    values.append(confidence_gap(confidences))
    values += [1.0 if i == top_agent else 0.0 for i in range(3)]
    return FeatureVector(values=tuple(values))


def majority_labels(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """:func:`majority_label` for each row of ``(n, 3)`` label codes and confidences."""
    a, b, c = labels[:, 0], labels[:, 1], labels[:, 2]
    fallback = labels[np.arange(len(labels)), np.argmax(confidences, axis=1)]
    return np.where((a == b) | (a == c), a, np.where(b == c, b, fallback))


def confidence_gaps(confidences: np.ndarray) -> np.ndarray:
    """:func:`confidence_gap` for each row of an ``(n, 3)`` confidence block."""
    ordered = np.sort(confidences, axis=1)
    return ordered[:, 2] - ordered[:, 1]


def feature_matrix(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """:func:`build_features` for each row: an ``(n, 15)`` float64 matrix.

    ``labels`` holds label codes (-1/0/+1) and ``confidences`` the matching
    confidences, one row per disclosure and one column per lens in
    ``LENS_ORDER``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    majority = majority_labels(labels, confidences)
    top_agent = np.argmax(confidences, axis=1)
    return np.column_stack(
        [
            labels,
            confidences,
            majority,
            (labels == 1).sum(axis=1),
            (labels == 0).sum(axis=1),
            (labels == -1).sum(axis=1),
            (labels == majority[:, None]).sum(axis=1),
            confidence_gaps(confidences),
            top_agent[:, None] == np.arange(3),
        ]
    ).astype(np.float64, copy=False)


def write_feature_file(
    path: str | Path, ids: Sequence[str], X: np.ndarray, targets: Sequence[int]
) -> None:
    """Audit export: one JSON line {disclosure_id, features, target} per row.

    Row order is the caller's responsibility (the pipeline passes the sorted
    split order), so the file bytes are a pure function of the inputs.
    """
    write_jsonl(
        path,
        (
            {"disclosure_id": disclosure_id, "features": features, "target": int(target)}
            for disclosure_id, features, target in zip(ids, X.tolist(), targets)
        ),
    )


def read_feature_file(path: str | Path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Ids, ``(n, 15)`` feature matrix and targets of one feature file.

    A malformed line, or a row that breaks the feature-vector invariants,
    raises :class:`ArtifactError` naming the file.
    """
    rows = read_jsonl(path, itemgetter("disclosure_id", "features", "target"))
    try:
        X = np.array([r[1] for r in rows], dtype=np.float64) if rows else np.empty((0, FEATURE_DIM))
        check_feature_matrix(X)
        y = np.array([r[2] for r in rows], dtype=int)
    except (TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed feature rows: {exc}") from None
    return [r[0] for r in rows], X, y
