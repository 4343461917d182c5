"""Offline synthetic corpus and deterministic stub agents.

Each synthetic disclosure carries three hidden lens signals in [-1, 1]. The
next-day return is a fixed-weight combination (guidance weighted highest,
risk entering negatively) plus Gaussian noise, and each stub agent observes
only its own lens signal through seeded noise. This reproduces the
qualitative structure the pipeline is meant to exploit: three informative
but imperfect judges whose disagreement carries signal, with no model
endpoint anywhere.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .agents import prompt_digests
from .artifacts import ArtifactError, finite_number, read_jsonl, write_jsonl
from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)

STUB_MODEL_NAME = "stub-agent"
STUB_ENDPOINT = "stub://local"

# Return model: w_perf * perf + w_guid * guid - w_risk * risk + noise.
# Guidance carries the largest weight and risk the smallest, so the
# guidance stub is the strongest single agent and the risk stub the weakest.
RETURN_WEIGHTS: tuple[float, float, float] = (0.4, 0.5, 0.3)
RETURN_NOISE_SCALE = 0.5
# Observations inside the dead zone read as neutral.
LABEL_DEAD_ZONE = 0.15

# Latent mixture: with probability NEUTRAL_SIGNAL_MASS a lens has nothing to
# say (signal near zero), otherwise the signal magnitude is drawn from the
# lens's window with a random sign. Near-constant nonneutral magnitudes keep
# per-example confidence from being a sufficient statistic, so fixed voting
# rules leave information on the table for the trained aggregator: majority
# vote maps frequent neutral-majority patterns to 0, and confidence-weighted
# voting overweights the risk agent, whose heavy observation noise inflates
# its confidence without making it right.
NEUTRAL_SIGNAL_MASS = 0.45
NEUTRAL_SIGNAL_WINDOW = 0.1
SIGNAL_WINDOWS: dict[Lens, tuple[float, float]] = {
    Lens.PERFORMANCE: (0.5, 0.75),
    Lens.GUIDANCE: (0.6, 0.9),
    Lens.RISK: (0.75, 1.0),
}
DEFAULT_STUB_NOISE: dict[Lens, float] = {
    Lens.PERFORMANCE: 0.15,
    Lens.GUIDANCE: 0.12,
    Lens.RISK: 0.7,
}


@dataclass(frozen=True)
class LatentDisclosure:
    performance_signal: float
    guidance_signal: float
    risk_signal: float
    noise_seed: int

    def __post_init__(self) -> None:
        # The seed is hashed as text, so 1.5 or true would silently pick
        # another noise stream.
        if type(self.noise_seed) is not int:
            raise TypeError(f"noise_seed must be an integer, got {self.noise_seed!r}")
        for name in ("performance_signal", "guidance_signal", "risk_signal"):
            v = getattr(self, name)
            if not -1.0 <= finite_number(v) <= 1.0:
                raise ValueError(f"{name} {v} outside [-1, 1]")


def generate_corpus(
    n: int, seed: int
) -> tuple[list[DisclosureRecord], dict[str, LatentDisclosure]]:
    """Draw a deterministic synthetic corpus of ``n`` disclosures.

    Returns the records (raw text only; preprocessing is the pipeline's job)
    and the hidden latent signals keyed by disclosure id. Timestamps are
    strictly increasing, so the chronological split is well defined.
    """
    if n < 100:
        raise ValueError(f"synthetic corpus needs n >= 100, got {n}")
    rng = np.random.default_rng(seed)
    kind = rng.uniform(0.0, 1.0, size=(n, 3))
    magnitude_u = rng.uniform(0.0, 1.0, size=(n, 3))
    signs = np.where(rng.uniform(0.0, 1.0, size=(n, 3)) < 0.5, -1.0, 1.0)
    small = rng.uniform(-NEUTRAL_SIGNAL_WINDOW, NEUTRAL_SIGNAL_WINDOW, size=(n, 3))
    signals = np.empty((n, 3))
    for k, lens in enumerate((Lens.PERFORMANCE, Lens.GUIDANCE, Lens.RISK)):
        lo, hi = SIGNAL_WINDOWS[lens]
        magnitude = lo + (hi - lo) * magnitude_u[:, k]
        signals[:, k] = np.where(
            kind[:, k] < NEUTRAL_SIGNAL_MASS, small[:, k], signs[:, k] * magnitude
        )
    noise = rng.normal(0.0, RETURN_NOISE_SCALE, size=n)
    w_perf, w_guid, w_risk = RETURN_WEIGHTS

    start = datetime(2018, 1, 2, 9, 0, tzinfo=timezone.utc)
    records: list[DisclosureRecord] = []
    latents: dict[str, LatentDisclosure] = {}
    for i in range(n):
        rid = f"syn-{i:06d}"
        perf, guid, risk = (float(v) for v in signals[i])
        ret = w_perf * perf + w_guid * guid - w_risk * risk + float(noise[i])
        ticker = f"SYN{i % 499:03d}"
        timestamp = start + timedelta(minutes=i)
        text = (
            f"TICKER: {ticker}\n"
            f"RELEASE: {timestamp.date().isoformat()}\n"
            "\n"
            "Quarterly disclosure.\n"
            f"Operating performance index {perf:+.3f} against plan.\n"
            f"Forward guidance index {guid:+.3f} versus prior outlook.\n"
            f"Downside risk index {risk:+.3f} across pending matters.\n"
        )
        records.append(
            DisclosureRecord(
                id=rid,
                timestamp=timestamp,
                ticker=ticker,
                raw_text=text,
                clean_text="",
                next_day_return=ret,
            )
        )
        latents[rid] = LatentDisclosure(
            performance_signal=perf,
            guidance_signal=guid,
            risk_signal=risk,
            noise_seed=seed * 1_000_000 + i,
        )
    return records, latents


def _lens_observation(lens: Lens, latent: LatentDisclosure) -> float:
    if lens is Lens.PERFORMANCE:
        return latent.performance_signal
    if lens is Lens.GUIDANCE:
        return latent.guidance_signal
    # Elevated risk reads as negative sentiment for next-day reaction.
    return -latent.risk_signal


# Per-lens and per-label strings, read once: ``Enum.value`` is a
# Python-level property.
_LENS_NAMES = {lens: lens.value for lens in Lens}
_LABEL_NAMES = {label: label.as_string() for label in SentimentLabel}


def _noise_seed(lens: Lens, disclosure_id: str, latent: LatentDisclosure) -> int:
    """The seed of one (lens, disclosure) pair's noise draw."""
    digest = hashlib.sha256(
        f"{_LENS_NAMES[lens]}:{disclosure_id}:{latent.noise_seed}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


def _stub_output(
    lens: Lens, disclosure_id: str, obs: float, prompt_digest: str, seed: int
) -> AgentOutput:
    """The stub agent's answer for a noisy observation ``obs``."""
    if obs > LABEL_DEAD_ZONE:
        label = SentimentLabel.POSITIVE
    elif obs < -LABEL_DEAD_ZONE:
        label = SentimentLabel.NEGATIVE
    else:
        label = SentimentLabel.NEUTRAL
    confidence = min(abs(obs), 1.0)
    rationale = f"The {_LENS_NAMES[lens]} signal reads {obs:+.3f} for next-day reaction."
    # json.dumps's bytes: the label and rationale hold no character JSON escapes.
    raw_json = (
        f'{{"label": "{_LABEL_NAMES[label]}", "rationale": "{rationale}", '
        f'"confidence": {confidence!r}}}'
    )
    return AgentOutput(
        disclosure_id=disclosure_id,
        agent=lens,
        label=label,
        confidence=confidence,
        rationale=rationale,
        confidence_source=ConfidenceSource.SELF_REPORTED,
        model_name=STUB_MODEL_NAME,
        prompt_hash=prompt_digest,
        seed=seed,
        raw_json=raw_json,
        retry_count=0,
    )


def stub_agent(
    lens: Lens, record: DisclosureRecord, latents: Mapping[str, LatentDisclosure]
) -> AgentOutput:
    """Deterministic agent over the hidden signals instead of an LLM.

    The agent sees its own lens signal plus Gaussian noise seeded by
    (lens, disclosure id, latent seed): labels threshold the noisy
    observation at the dead zone and confidence is its magnitude. Each lens
    has its own noise scale; the risk agent's large scale makes it
    confidently wrong more often than the other two, which single-rule
    baselines cannot discount. The output's seed is the latent seed.
    """
    latent = latents.get(record.id)
    if latent is None:
        raise KeyError(f"no latent signals for disclosure {record.id!r}")
    if not record.clean_text:
        raise ValueError(f"record {record.id!r} has no clean_text; preprocess first")
    # One pair: default_rng costs less than a call into the chunked mixing.
    rng = np.random.default_rng(_noise_seed(lens, record.id, latent))
    obs = _lens_observation(lens, latent) + float(rng.normal(0.0, DEFAULT_STUB_NOISE[lens]))
    return _stub_output(
        lens,
        record.id,
        obs,
        prompt_digests(lens, [record.clean_text])[0].hex(),
        latent.noise_seed,
    )


# Pairs per batch of vectorized seed mixing: large enough to amortize the
# array calls, small enough that a batch's buffers (about 200 bytes a pair)
# do not raise the stage's peak memory and the outputs stay streamed.
NOISE_CHUNK = 1024


def stub_outputs(
    pairs: Iterable[tuple[str, Lens, str]],
    latents: Mapping[str, LatentDisclosure],
    seed: int,
) -> Iterator[AgentOutput]:
    """:func:`stub_agent`'s output for each ``(disclosure id, lens, prompt
    digest)``, with the given prompt digest and the run's ``seed``.

    The noise is the same ``default_rng(noise seed).normal`` draw, taken a
    chunk of pairs at a time. No disclosure text is read.
    """
    from .noise import normal_draws  # loads numpy.random, which only stub runs need

    pairs = iter(pairs)
    while chunk := list(islice(pairs, NOISE_CHUNK)):
        chunk_latents = [latents[rid] for rid, _, _ in chunk]
        noise = normal_draws(
            [
                _noise_seed(lens, rid, latent)
                for (rid, lens, _), latent in zip(chunk, chunk_latents)
            ],
            [DEFAULT_STUB_NOISE[lens] for _, lens, _ in chunk],
        )
        for (rid, lens, digest), latent, draw in zip(chunk, chunk_latents, noise):
            obs = _lens_observation(lens, latent) + draw
            yield _stub_output(lens, rid, obs, digest, seed)


def write_latents(latents: Mapping[str, LatentDisclosure], path: str | Path) -> None:
    write_jsonl(path, ({"id": rid, **vars(lat)} for rid, lat in latents.items()))


def _latent_row(obj: dict) -> tuple[str, LatentDisclosure]:
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {obj!r}")
    rid = obj.pop("id")
    if not isinstance(rid, str):
        raise ValueError(f"id must be a string, got {rid!r}")
    return rid, LatentDisclosure(**obj)


def load_latents(path: str | Path) -> dict[str, LatentDisclosure]:
    """The latents of each id in ``path``; an id may appear on one line only."""
    rows = read_jsonl(path, _latent_row)
    first: dict[str, int] = {}
    for lineno, (rid, _) in enumerate(rows, start=1):
        if first.setdefault(rid, lineno) != lineno:
            raise ArtifactError(f"{path}: duplicate id {rid!r} on lines {first[rid]} and {lineno}")
    return dict(rows)
