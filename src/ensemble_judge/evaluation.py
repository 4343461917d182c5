"""Metrics, agreement-regime breakdown, and report emission.

Reports carry a per-method metric table (accuracy, macro F1, balanced
accuracy over the binary downstream classes), a balanced-accuracy breakdown
by agent agreement regime for the voting rule and the trained aggregator,
and the list of disclosures where the aggregator corrects the vote.

:func:`evaluate_judgments` scores a whole split from ``(n, 3)`` label-code
and confidence blocks with array expressions; it is the one production path.
:func:`regime_of` and :func:`evaluate_split` only adapt agent outputs to
:func:`regimes` and to it; the per-disclosure rules are test oracles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .artifacts import write_text
from .domain import LENS_ORDER, AgentOutput, DisclosureRecord, Lens
from .features import confidence_gaps, feature_matrix, majority_labels, output_blocks

if TYPE_CHECKING:
    from .meta import MetaModel

METHOD_NAMES: tuple[str, ...] = (
    "performance_agent",
    "guidance_agent",
    "risk_agent",
    "majority_vote",
    "confidence_vote",
    "aggregator",
)

@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion matrix cells must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_arrays(cls, y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionMatrix":
        """Cells of 0/1 target and prediction arrays, counted with one ``bincount``."""
        if len(y_true) != len(y_pred):
            raise ValueError("prediction and target lengths disagree")
        tn, fp, fn, tp = np.bincount(2 * np.asarray(y_true) + np.asarray(y_pred), minlength=4)
        return cls(tp=int(tp), fp=int(fp), tn=int(tn), fn=int(fn))


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    macro_f1: float
    balanced_accuracy: float
    flags: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        d = {
            "accuracy": self.accuracy,
            "macro_f1": self.macro_f1,
            "balanced_accuracy": self.balanced_accuracy,
        }
        if self.flags:
            d["flags"] = list(self.flags)
        return d


def metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, macro F1, and balanced accuracy from a confusion matrix.

    Per-class F1 with an empty denominator is defined as 0; a recall whose
    denominator is zero (a class absent from the targets) is defined as 0
    and flagged.
    """
    n = cm.total
    if n == 0:
        raise ValueError("cannot compute metrics over zero examples")
    flags: list[str] = []

    if cm.tp + cm.fn > 0:
        recall_pos = cm.tp / (cm.tp + cm.fn)
    else:
        recall_pos = 0.0
        flags.append("no positive examples: positive recall defined as 0")
    if cm.tn + cm.fp > 0:
        recall_neg = cm.tn / (cm.tn + cm.fp)
    else:
        recall_neg = 0.0
        flags.append("no negative examples: negative recall defined as 0")

    f1_pos_den = 2 * cm.tp + cm.fp + cm.fn
    f1_neg_den = 2 * cm.tn + cm.fn + cm.fp
    f1_pos = 2 * cm.tp / f1_pos_den if f1_pos_den > 0 else 0.0
    f1_neg = 2 * cm.tn / f1_neg_den if f1_neg_den > 0 else 0.0

    return Metrics(
        accuracy=(cm.tp + cm.tn) / n,
        macro_f1=0.5 * (f1_pos + f1_neg),
        balanced_accuracy=0.5 * (recall_pos + recall_neg),
        flags=tuple(flags),
    )


class Regime(str, Enum):
    UNANIMOUS = "unanimous"
    SPLIT_DOMINANT = "split_dominant"
    HIGH_CONFLICT = "high_conflict"


# Regime order of the codes :func:`regimes` returns.
REGIMES: tuple[Regime, ...] = tuple(Regime)


def regimes(labels: np.ndarray, confidences: np.ndarray, delta: float) -> np.ndarray:
    """The agreement regime of each row, as indices into :data:`REGIMES`.

    Unanimous: all three labels equal. Split-dominant: a 2-1 split where the
    top confidence sits on the majority side and the top-two confidence gap
    is at least ``delta``. Everything else (all-distinct labels, or a 2-1
    split without a dominant majority voice) is high conflict. The rule only
    compares confidence maxima across sides, so it is invariant under
    permutation of the agents.
    """
    a, b, c = labels[:, 0], labels[:, 1], labels[:, 2]
    unanimous = (a == b) & (b == c)
    two_one = ~unanimous & ((a == b) | (a == c) | (b == c))
    on_majority = labels == majority_labels(labels, confidences)[:, None]
    majority_conf = np.where(on_majority, confidences, -np.inf).max(axis=1)
    minority_conf = np.where(on_majority, -np.inf, confidences).max(axis=1)
    dominant = two_one & (majority_conf >= minority_conf) & (confidence_gaps(confidences) >= delta)
    codes = np.full(len(labels), REGIMES.index(Regime.HIGH_CONFLICT))
    codes[dominant] = REGIMES.index(Regime.SPLIT_DOMINANT)
    codes[unanimous] = REGIMES.index(Regime.UNANIMOUS)
    return codes


# Kept in the package only because ``perfbench/traced_stage.py`` wraps it by name.
def regime_of(outputs: Sequence[AgentOutput], delta: float) -> Regime:
    """:func:`regimes` of one disclosure's three outputs, given in any order."""
    return REGIMES[regimes(*output_blocks(outputs), delta)[0]]


@dataclass(frozen=True)
class EvalReport:
    test_size: int
    method_metrics: dict[str, Metrics]
    regime_counts: dict[str, int]
    regime_balanced_accuracy: dict[str, dict[str, float]]
    delta: float
    delta_sensitivity: dict[str, dict] = field(default_factory=dict)
    corrections: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "test_size": self.test_size,
            "methods": {name: m.to_dict() for name, m in self.method_metrics.items()},
            "regime_delta": self.delta,
            "regimes": {
                regime: {
                    "count": self.regime_counts[regime],
                    **self.regime_balanced_accuracy[regime],
                }
                for regime in self.regime_counts
            },
            "delta_sensitivity": self.delta_sensitivity,
            "aggregator_corrects_majority": list(self.corrections),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"Out-of-sample classification, test split (n={self.test_size})", ""]
        header = f"{'method':<20}{'accuracy':>10}{'macro_f1':>10}{'bal_acc':>10}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in METHOD_NAMES:
            m = self.method_metrics[name]
            lines.append(
                f"{name:<20}{m.accuracy:>10.4f}{m.macro_f1:>10.4f}{m.balanced_accuracy:>10.4f}"
            )
        flagged = [
            f"  [{name}] {flag}"
            for name in METHOD_NAMES
            for flag in self.method_metrics[name].flags
        ]
        if flagged:
            lines.append("")
            lines.extend(flagged)
        lines.append("")
        lines.append(f"Balanced accuracy by agreement regime (delta={self.delta:g})")
        lines.append("")
        header = f"{'regime':<16}{'n':>8}{'majority_vote':>16}{'aggregator':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for regime in (Regime.UNANIMOUS, Regime.SPLIT_DOMINANT, Regime.HIGH_CONFLICT):
            count = self.regime_counts[regime.value]
            accs = self.regime_balanced_accuracy[regime.value]
            maj = f"{accs['majority_vote']:.4f}" if count else "-"
            agg = f"{accs['aggregator']:.4f}" if count else "-"
            lines.append(f"{regime.value:<16}{count:>8}{maj:>16}{agg:>12}")
        lines.append("")
        k = len(self.corrections)
        lines.append(f"Aggregator corrects the majority vote on {k} test disclosures.")
        if k:
            shown = ", ".join(self.corrections[:20])
            more = f" (+{k - 20} more)" if k > 20 else ""
            lines.append(f"  {shown}{more}")
        return "\n".join(lines) + "\n"


def majority_vote_predictions(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """Majority vote of each row: the modal label binarized (positive -> 1, else 0)."""
    return (majority_labels(labels, confidences) == 1).astype(int)


def confidence_vote_predictions(labels: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """1 where the sum of confidence times label code is strictly positive, else 0.

    The sum runs in agent order, so each row's float result is fixed.
    """
    weighted = confidences * labels
    return (weighted[:, 0] + weighted[:, 1] + weighted[:, 2] > 0).astype(int)


def _regime_breakdown(
    codes: np.ndarray, targets: np.ndarray, predictions: Mapping[str, np.ndarray]
) -> tuple[dict[str, int], dict[str, dict[str, float]]]:
    counts: dict[str, int] = {}
    breakdown: dict[str, dict[str, float]] = {}
    for code, regime in enumerate(REGIMES):
        mask = codes == code
        counts[regime.value] = int(mask.sum())
        breakdown[regime.value] = {
            method: (
                metrics(ConfusionMatrix.from_arrays(targets[mask], predictions[method][mask]))
                .balanced_accuracy
                if mask.any()
                else 0.0
            )
            for method in ("majority_vote", "aggregator")
        }
    return counts, breakdown


def evaluate_judgments(
    ids: Sequence[str],
    targets: np.ndarray,
    labels: np.ndarray,
    confidences: np.ndarray,
    model: MetaModel,
    delta: float,
    sensitivity_deltas: Sequence[float],
) -> EvalReport:
    """Score all six methods on one split and build the report.

    Row ``i`` of the ``(n, 3)`` ``labels`` (codes -1/0/+1) and
    ``confidences`` blocks holds disclosure ``ids[i]``'s agents in
    ``LENS_ORDER``; ``targets`` holds its binary target.
    """
    if not len(ids):
        raise ValueError("cannot evaluate an empty split")
    targets = np.asarray(targets, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    confidences = np.asarray(confidences, dtype=np.float64)
    predictions: dict[str, np.ndarray] = {
        method: (labels[:, i] == 1).astype(int) for i, method in enumerate(METHOD_NAMES[:3])
    }
    predictions["majority_vote"] = majority_vote_predictions(labels, confidences)
    predictions["confidence_vote"] = confidence_vote_predictions(labels, confidences)
    predictions["aggregator"] = model.predict_batch(feature_matrix(labels, confidences))

    method_metrics = {
        name: metrics(ConfusionMatrix.from_arrays(targets, predictions[name]))
        for name in METHOD_NAMES
    }
    regime_counts, regime_accs = _regime_breakdown(
        regimes(labels, confidences, delta), targets, predictions
    )
    sensitivity: dict[str, dict] = {}
    for d in sensitivity_deltas:
        counts_d, accs_d = _regime_breakdown(regimes(labels, confidences, d), targets, predictions)
        sensitivity[f"{d:g}"] = {
            regime: {"count": counts_d[regime], **accs_d[regime]} for regime in counts_d
        }

    corrected = (predictions["aggregator"] == targets) & (predictions["majority_vote"] != targets)
    return EvalReport(
        test_size=len(ids),
        method_metrics=method_metrics,
        regime_counts=regime_counts,
        regime_balanced_accuracy=regime_accs,
        delta=delta,
        delta_sensitivity=sensitivity,
        corrections=tuple(ids[i] for i in np.flatnonzero(corrected)),
    )


# Kept in the package only because ``perfbench/traced_stage.py`` wraps it by name.
def evaluate_split(
    records: Sequence[DisclosureRecord],
    outputs_by_id: Mapping[str, Mapping[Lens, AgentOutput]],
    model: MetaModel,
    delta: float,
    sensitivity_deltas: Sequence[float],
) -> EvalReport:
    """:func:`evaluate_judgments` over agent outputs looked up per record.

    ``records`` fixes the evaluation order; every record must have its three
    agent outputs present in ``outputs_by_id``.
    """
    triples = []
    for record in records:
        per_lens = outputs_by_id.get(record.id)
        if per_lens is None or set(per_lens) != set(LENS_ORDER):
            raise KeyError(f"missing agent outputs for disclosure {record.id!r}")
        triples.append([per_lens[lens] for lens in LENS_ORDER])
    return evaluate_judgments(
        [record.id for record in records],
        np.array([record.binary_target for record in records]),
        np.array([[int(o.label) for o in triple] for triple in triples]),
        np.array([[o.confidence for o in triple] for triple in triples], dtype=np.float64),
        model,
        delta,
        sensitivity_deltas,
    )


def write_report(report: EvalReport, json_path: str | Path, text_path: str | Path) -> None:
    write_text(json_path, [report.to_json()])
    write_text(text_path, [report.render_text()])
