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
import json
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from .agents import prompt_hash, render_prompt
from .artifacts import read_jsonl, write_jsonl
from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
    target_from_return,
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
        for name in ("performance_signal", "guidance_signal", "risk_signal"):
            v = getattr(self, name)
            if not -1.0 <= v <= 1.0:
                raise ValueError(f"{name} {v} outside [-1, 1]")


def generate_corpus(
    n: int,
    seed: int,
    noise_scale: float = RETURN_NOISE_SCALE,
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
    noise = rng.normal(0.0, noise_scale, size=n) if noise_scale > 0 else np.zeros(n)
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
                binary_target=target_from_return(ret),
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


def stub_agent(
    lens: Lens,
    record: DisclosureRecord,
    latents: Mapping[str, LatentDisclosure],
    noise: float | None = None,
    run_seed: int | None = None,
) -> AgentOutput:
    """Deterministic agent over the hidden signals instead of an LLM.

    The agent sees its own lens signal plus Gaussian noise seeded by
    (lens, disclosure id, latent seed): labels threshold the noisy
    observation at the dead zone and confidence is its magnitude. With
    ``noise`` unset, each lens uses its tuned default scale; the risk
    agent's large scale makes it confidently wrong more often than the
    other two, which single-rule baselines cannot discount.
    """
    latent = latents.get(record.id)
    if latent is None:
        raise KeyError(f"no latent signals for disclosure {record.id!r}")
    if not record.clean_text:
        raise ValueError(f"record {record.id!r} has no clean_text; preprocess first")
    if noise is None:
        noise = DEFAULT_STUB_NOISE[lens]

    digest = hashlib.sha256(
        f"{lens.value}:{record.id}:{latent.noise_seed}".encode("utf-8")
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    obs = _lens_observation(lens, latent) + (float(rng.normal(0.0, noise)) if noise > 0 else 0.0)

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
        prompt_hash=prompt_hash(render_prompt(lens, record.clean_text)),
        seed=run_seed if run_seed is not None else latent.noise_seed,
        raw_json=raw_json,
        retry_count=0,
    )


def write_latents(latents: Mapping[str, LatentDisclosure], path: str | Path) -> None:
    write_jsonl(path, ({"id": rid, **vars(lat)} for rid, lat in latents.items()))


def _latent_row(obj: dict) -> tuple[str, LatentDisclosure]:
    return obj.pop("id"), LatentDisclosure(**obj)


def load_latents(path: str | Path) -> dict[str, LatentDisclosure]:
    return dict(read_jsonl(path, _latent_row))
