"""Build the 15-dimensional aggregation feature vector from three agent outputs.

Layout, by column: per-agent labels (0-2) and confidences (3-5) in fixed lens
order, the majority label (6), the label counts (7-9), the modal-label
agreement count (10), the top-two confidence gap (11), and a one-hot
indicator of the most confident agent (12-14).

The pipeline builds whole feature matrices at once with
:func:`feature_matrix` from ``(n, 3)`` label-code and confidence blocks; it is
the one implementation of the rules. The per-disclosure rules are test
oracles. A feature file's lines are rendered, and read back, as they
stream: neither side holds a whole file or the matrix as Python floats.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .artifacts import json_lines, write_text


def majority_labels(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """The modal label of each row of ``(n, 3)`` label codes and confidences.

    When all three labels are distinct there is no mode; the label of the
    most confident agent is used instead (confidence ties fall back to the
    fixed agent order performance > guidance > risk).
    """
    a, b, c = labels[:, 0], labels[:, 1], labels[:, 2]
    fallback = labels[np.arange(len(labels)), np.argmax(confidences, axis=1)]
    return np.where((a == b) | (a == c), a, np.where(b == c, b, fallback))


def confidence_gaps(confidences: np.ndarray) -> np.ndarray:
    """Largest confidence minus the second largest, for each row of an ``(n, 3)`` block."""
    ordered = np.sort(confidences, axis=1)
    return ordered[:, 2] - ordered[:, 1]


def feature_matrix(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """The aggregation features of each row: an ``(n, 15)`` float64 matrix.

    ``labels`` holds label codes (-1/0/+1) and ``confidences`` the matching
    confidences, one row per disclosure and one column per lens in
    ``LENS_ORDER``. The most-confident-agent indicator marks the highest
    confidence; exact ties go to the earliest agent.
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


# ``perfbench/traced_stage.py`` wraps this name for a span; no stage calls it.
build_features = feature_matrix


# Rows per block of the matrix turned into Python floats: a block (about
# 0.5 KB a row) stays small beside the matrix.
_ROWS_PER_BLOCK = 1024


def feature_lines(ids: Sequence[str], X: np.ndarray, targets: Sequence[int]) -> Iterator[str]:
    """One JSON line {disclosure_id, features, target} per row, each ending in a newline.

    Row order is the caller's responsibility (the pipeline passes the sorted
    split order), so the lines are a pure function of the inputs. The rows
    are rendered a block at a time, as the lines are iterated.
    """
    for start in range(0, len(X), _ROWS_PER_BLOCK):
        stop = start + _ROWS_PER_BLOCK
        yield from json_lines(
            {"disclosure_id": disclosure_id, "features": features, "target": int(target)}
            for disclosure_id, features, target in zip(
                ids[start:stop], X[start:stop].tolist(), targets[start:stop]
            )
        )


def write_feature_file(
    path: str | Path, ids: Sequence[str], X: np.ndarray, targets: Sequence[int]
) -> None:
    """Audit export: the :func:`feature_lines` of the rows."""
    write_text(path, feature_lines(ids, X, targets))


def read_feature_file(path: str | Path) -> Iterator[bytes]:
    """The lines of one feature file as bytes, each with its newline byte,
    read as they are iterated; a carriage return does not end a line."""
    with Path(path).open("rb") as fh:
        yield from fh
