"""Reference rules the package's fast paths are checked against.

The pipeline builds features, votes and regimes for whole splits at once
(``features.feature_matrix``, ``evaluation.regimes`` and
``evaluation.evaluate_judgments`` over ``(n, 3)`` label-code and confidence
blocks), draws the stub agents' noise a chunk of pairs at a time and writes
each cache line field by field.
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
    LENS_ORDER,
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    FeatureVector,
    Lens,
    SentimentLabel,
)
from ensemble_judge.evaluation import ConfusionMatrix, Regime
from ensemble_judge.store import CacheKey, CacheRecord
from ensemble_judge.synth import (
    DEFAULT_STUB_NOISE,
    LABEL_DEAD_ZONE,
    STUB_MODEL_NAME,
    LatentDisclosure,
    _lens_observation,
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


def regime_of(outputs: Sequence[AgentOutput], delta: float) -> Regime:
    """Classify one disclosure's agent pattern.

    Unanimous: all three labels equal. Split-dominant: a 2-1 split where the
    top confidence sits on the majority side and the top-two confidence gap
    is at least ``delta``. Everything else (all-distinct labels, or a 2-1
    split without a dominant majority voice) is high conflict. The rule only
    compares confidence maxima across sides, so it is invariant under
    permutation of the outputs.
    """
    if len(outputs) != 3:
        raise ValueError("expected exactly three agent outputs")
    labels = [o.label for o in outputs]
    confidences = [o.confidence for o in outputs]
    if labels[0] == labels[1] == labels[2]:
        return Regime.UNANIMOUS
    modal = None
    for label in labels:
        if labels.count(label) == 2:
            modal = label
            break
    if modal is None:
        return Regime.HIGH_CONFLICT
    majority_conf = max(c for c, l in zip(confidences, labels) if l == modal)
    minority_conf = max(c for c, l in zip(confidences, labels) if l != modal)
    if majority_conf >= minority_conf and confidence_gap(confidences) >= delta:
        return Regime.SPLIT_DOMINANT
    return Regime.HIGH_CONFLICT


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
