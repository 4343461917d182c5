"""Reference rules the package's fast paths are checked against.

The pipeline scores whole splits at once (``evaluation.evaluate_judgments``
over ``(n, 3)`` label-code and confidence blocks), draws the stub agents'
noise a chunk of pairs at a time and writes each cache line field by field.
These are the same rules written one item at a time, in the plainest form,
so tests can compare the two; no production code calls them.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

import numpy as np

from ensemble_judge.agents import prompt_hash, render_prompt
from ensemble_judge.domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)
from ensemble_judge.evaluation import ConfusionMatrix
from ensemble_judge.features import majority_label
from ensemble_judge.store import CacheKey, CacheRecord
from ensemble_judge.synth import (
    DEFAULT_STUB_NOISE,
    LABEL_DEAD_ZONE,
    STUB_MODEL_NAME,
    LatentDisclosure,
    _lens_observation,
)


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


# The cache-line oracle: a cache line is the JSON of these nested dicts,
# written by ``json.dumps(..., ensure_ascii=False)``.


def key_to_dict(key: CacheKey) -> dict:
    # Field order is fixed so serialized keys hash stably.
    return {**key._asdict(), "lens": key.lens.value}


def output_to_dict(output: AgentOutput) -> dict:
    return {
        "disclosure_id": output.disclosure_id,
        "agent": output.agent.value,
        "label": output.label.as_string(),
        "confidence": output.confidence,
        "rationale": output.rationale,
        "confidence_source": output.confidence_source.value,
        "model_name": output.model_name,
        "prompt_hash": output.prompt_hash,
        "seed": output.seed,
        "raw_json": output.raw_json,
        "retry_count": output.retry_count,
    }


def record_to_dict(record: CacheRecord) -> dict:
    return {
        "key": key_to_dict(record.key),
        "output": output_to_dict(record.output),
        "created_at": record.created_at.isoformat(),
    }


def cache_line(record: CacheRecord) -> bytes:
    return (json.dumps(record_to_dict(record), ensure_ascii=False) + "\n").encode("utf-8")


# The stub oracle: one default_rng per pair and json.dumps of the answer.


def stub_agent(
    lens: Lens,
    record: DisclosureRecord,
    latents: Mapping[str, LatentDisclosure],
    run_seed: int | None = None,
    prompt_digest: str | None = None,
) -> AgentOutput:
    """Deterministic agent over the hidden signals instead of an LLM.

    The agent sees its own lens signal plus Gaussian noise seeded by
    (lens, disclosure id, latent seed): labels threshold the noisy
    observation at the dead zone and confidence is its magnitude. Each lens
    has its own noise scale; the risk agent's large scale makes it
    confidently wrong more often than the other two, which single-rule
    baselines cannot discount.
    ``prompt_digest`` is the rendered prompt's hash when the caller already
    has it.
    """
    latent = latents.get(record.id)
    if latent is None:
        raise KeyError(f"no latent signals for disclosure {record.id!r}")
    if not record.clean_text:
        raise ValueError(f"record {record.id!r} has no clean_text; preprocess first")
    if prompt_digest is None:
        prompt_digest = prompt_hash(render_prompt(lens, record.clean_text))

    digest = hashlib.sha256(
        f"{lens.value}:{record.id}:{latent.noise_seed}".encode("utf-8")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    obs = _lens_observation(lens, latent) + float(rng.normal(0.0, DEFAULT_STUB_NOISE[lens]))

    if obs > LABEL_DEAD_ZONE:
        label = SentimentLabel.POSITIVE
    elif obs < -LABEL_DEAD_ZONE:
        label = SentimentLabel.NEGATIVE
    else:
        label = SentimentLabel.NEUTRAL
    confidence = min(abs(obs), 1.0)
    rationale = f"The {lens.value} signal reads {obs:+.3f} for next-day reaction."
    raw_json = json.dumps(
        {"label": label.as_string(), "rationale": rationale, "confidence": confidence}
    )
    return AgentOutput(
        disclosure_id=record.id,
        agent=lens,
        label=label,
        confidence=confidence,
        rationale=rationale,
        confidence_source=ConfidenceSource.SELF_REPORTED,
        model_name=STUB_MODEL_NAME,
        prompt_hash=prompt_digest,
        seed=run_seed if run_seed is not None else latent.noise_seed,
        raw_json=raw_json,
        retry_count=0,
    )
