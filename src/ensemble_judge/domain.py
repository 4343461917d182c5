"""Core data types shared across the pipeline.

Defines the three-way sentiment label, the per-disclosure record, per-agent
outputs, the 15-dimensional aggregation feature vector, and the train/dev/test
split assignment. All types are immutable values and safe to share between
concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum, IntEnum

import numpy as np


class SentimentLabel(IntEnum):
    """Three-way sentiment judgment with numeric codes -1 / 0 / +1."""

    NEGATIVE = -1
    NEUTRAL = 0
    POSITIVE = 1

    @classmethod
    def from_string(cls, s: str) -> "SentimentLabel":
        try:
            return _LABEL_FROM_STRING[s.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown sentiment label: {s!r}") from None

    def as_string(self) -> str:
        return self.name.lower()


_LABEL_FROM_STRING = {
    "negative": SentimentLabel.NEGATIVE,
    "neutral": SentimentLabel.NEUTRAL,
    "positive": SentimentLabel.POSITIVE,
}


class Lens(str, Enum):
    """The financial perspective an agent's prompt fixes."""

    PERFORMANCE = "performance"
    GUIDANCE = "guidance"
    RISK = "risk"


# Fixed agent order used for feature layout and all tie-breaking.
LENS_ORDER: tuple[Lens, Lens, Lens] = (Lens.PERFORMANCE, Lens.GUIDANCE, Lens.RISK)


class ConfidenceSource(str, Enum):
    """How an agent's confidence score was obtained."""

    TOKEN_LOGPROB = "token_logprob"
    SELF_REPORTED = "self_reported"
    FALLBACK = "fallback"


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


def target_from_return(r: float) -> int:
    """Binary target from a next-day simple return: 1 iff r > 0 (strict)."""
    if not math.isfinite(r):
        raise ValueError(f"next-day return must be finite, got {r!r}")
    return 1 if r > 0 else 0


@dataclass(frozen=True)
class DisclosureRecord:
    """One disclosure document with its downstream return target.

    ``clean_text`` is empty until preprocessing has been applied.
    """

    id: str
    timestamp: datetime
    ticker: str
    raw_text: str
    clean_text: str
    next_day_return: float
    binary_target: int

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("disclosure id must be non-empty")
        if not math.isfinite(self.next_day_return):
            raise ValueError(f"next_day_return must be finite (id={self.id})")
        expected = target_from_return(self.next_day_return)
        if self.binary_target != expected:
            raise ValueError(
                f"binary_target {self.binary_target} inconsistent with "
                f"next_day_return {self.next_day_return} (id={self.id})"
            )


@dataclass(frozen=True)
class AgentOutput:
    """One agent's judgment of one disclosure, plus provenance."""

    disclosure_id: str
    agent: Lens
    label: SentimentLabel
    confidence: float
    rationale: str
    confidence_source: ConfidenceSource
    model_name: str
    prompt_hash: str
    seed: int
    raw_json: str
    retry_count: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")
        if self.retry_count not in (0, 1):
            raise ValueError(f"retry_count must be 0 or 1, got {self.retry_count}")
        if self.confidence_source is ConfidenceSource.FALLBACK:
            if self.label is not SentimentLabel.NEUTRAL or self.confidence != 0.0:
                raise ValueError("fallback outputs must be (neutral, 0.0)")

    def to_dict(self) -> dict:
        return {
            "disclosure_id": self.disclosure_id,
            "agent": self.agent.value,
            "label": self.label.as_string(),
            "confidence": self.confidence,
            "rationale": self.rationale,
            "confidence_source": self.confidence_source.value,
            "model_name": self.model_name,
            "prompt_hash": self.prompt_hash,
            "seed": self.seed,
            "raw_json": self.raw_json,
            "retry_count": self.retry_count,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AgentOutput":
        return cls(
            disclosure_id=d["disclosure_id"],
            agent=Lens(d["agent"]),
            label=SentimentLabel.from_string(d["label"]),
            confidence=float(d["confidence"]),
            rationale=d["rationale"],
            confidence_source=ConfidenceSource(d["confidence_source"]),
            model_name=d["model_name"],
            prompt_hash=d["prompt_hash"],
            seed=int(d["seed"]),
            raw_json=d["raw_json"],
            retry_count=int(d["retry_count"]),
        )


# Feature vector layout (dimension 15).
FEATURE_DIM = 15
FEAT_LABELS = (0, 1, 2)          # agent labels as -1/0/+1 in LENS_ORDER
FEAT_CONFS = (3, 4, 5)           # agent confidences in LENS_ORDER
FEAT_MAJORITY = 6                # majority label as -1/0/+1
FEAT_COUNTS = (7, 8, 9)          # counts of positive, neutral, negative labels
FEAT_AGREEMENT = 10              # number of agents sharing the modal label
FEAT_GAP = 11                    # top-1 minus top-2 confidence
FEAT_TOP_AGENT = (12, 13, 14)    # one-hot: which agent is most confident


def check_feature_matrix(X: np.ndarray) -> None:
    """The feature-vector invariants, checked on every row of ``X`` at once."""
    if X.ndim != 2 or X.shape[1] != FEATURE_DIM:
        raise ValueError(f"feature rows must have {FEATURE_DIM} entries, got shape {X.shape}")
    counts = X[:, list(FEAT_COUNTS)]
    if ((counts < 0) | (counts != np.floor(counts))).any() or (counts.sum(axis=1) != 3).any():
        raise ValueError("label counts must be nonnegative integers summing to 3")
    indicators = np.sort(X[:, list(FEAT_TOP_AGENT)], axis=1)
    if (indicators != [0.0, 0.0, 1.0]).any():
        raise ValueError("exactly one most-confident indicator must be set")
    if (X[:, FEAT_GAP] < 0).any():
        raise ValueError("confidence gap must be nonnegative")


@dataclass(frozen=True)
class FeatureVector:
    """The 15-dimensional joint-agent feature vector fed to the aggregator."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        check_feature_matrix(np.array([self.values], dtype=np.float64))


@dataclass(frozen=True)
class SplitAssignment:
    """Chronological train/dev/test partition of a corpus.

    ``partition`` maps every disclosure id to its split; insertion order
    follows the deterministic (timestamp, id) sort of the corpus.
    """

    partition: dict[str, Split]

    def ids_for(self, split: Split) -> list[str]:
        return [i for i, s in self.partition.items() if s is split]

    def counts(self) -> dict[Split, int]:
        c = {Split.TRAIN: 0, Split.DEV: 0, Split.TEST: 0}
        for s in self.partition.values():
            c[s] += 1
        return c
