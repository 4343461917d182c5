"""Core data types shared across the pipeline.

Defines the three-way sentiment label, the per-disclosure record, per-agent
outputs, the layout of the 15-dimensional aggregation feature vector, and the
train/dev/test split names. All types are immutable values and safe to share
between concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum, IntEnum

from .artifacts import InputError


class SentimentLabel(IntEnum):
    """Three-way sentiment judgment with numeric codes -1 / 0 / +1."""

    NEGATIVE = -1
    NEUTRAL = 0
    POSITIVE = 1

    @classmethod
    def from_string(cls, s: str) -> "SentimentLabel":
        label = _LABEL_FROM_STRING.get(s.strip().lower())
        if label is None:
            raise InputError(f"unknown sentiment label: {s!r}")
        return label

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

    ``clean_text`` is empty until preprocessing has been applied; the
    binary target is derived from the return.
    """

    id: str
    timestamp: datetime
    ticker: str
    raw_text: str
    clean_text: str
    next_day_return: float
    binary_target: int = field(init=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise InputError("disclosure id must be non-empty")
        object.__setattr__(self, "binary_target", target_from_return(self.next_day_return))


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


# Feature vector layout (dimension 15; features.py documents every column).
FEATURE_DIM = 15
FEAT_CONFS = (3, 4, 5)           # agent confidences in LENS_ORDER
FEAT_GAP = 11                    # top-1 minus top-2 confidence
