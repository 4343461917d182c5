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
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .agents import AgentSpec, prompt_digests
from .artifacts import ArtifactError, finite_number, read_jsonl, write_jsonl
from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)
from .ingest import PreparedKeys
from .store import SOURCE_CODES, CacheBlock

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


# The latent signal each lens observes, as its column in (performance,
# guidance, risk), and its sign: elevated risk reads as negative sentiment.
_OBSERVED = {Lens.PERFORMANCE: (0, 1.0), Lens.GUIDANCE: (1, 1.0), Lens.RISK: (2, -1.0)}
# Per-label strings, read once: ``Enum.value`` is a Python-level property.
_LABEL_NAMES = {int(label): label.as_string() for label in SentimentLabel}
_SELF_REPORTED = SOURCE_CODES[ConfidenceSource.SELF_REPORTED]


def _noise_seed(lens: str, disclosure_id: str, noise_seed: int) -> int:
    """The seed of one (lens name, disclosure) pair's noise draw."""
    digest = hashlib.sha256(f"{lens}:{disclosure_id}:{noise_seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _stub_answers(lenses: Sequence[str], obs: np.ndarray) -> tuple:
    """The stub agent's label codes (int8), confidences, rationales and raw
    answers for noisy observations ``obs`` by agents of the given lens names."""
    labels = np.where(obs > LABEL_DEAD_ZONE, 1, np.where(obs < -LABEL_DEAD_ZONE, -1, 0))
    confidences = np.minimum(np.abs(obs), 1.0)
    rationales = [
        f"The {lens} signal reads {o:+.3f} for next-day reaction."
        for lens, o in zip(lenses, obs.tolist())
    ]
    # json.dumps's bytes: the label and rationale hold no character JSON escapes.
    raw_jsons = [
        f'{{"label": "{_LABEL_NAMES[label]}", "rationale": "{rationale}", '
        f'"confidence": {confidence!r}}}'
        for label, rationale, confidence in zip(labels.tolist(), rationales, confidences.tolist())
    ]
    return labels.astype(np.int8), confidences, rationales, raw_jsons


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
    rng = np.random.default_rng(_noise_seed(lens.value, record.id, latent.noise_seed))
    column, sign = _OBSERVED[lens]
    signal = (latent.performance_signal, latent.guidance_signal, latent.risk_signal)[column]
    obs = sign * signal + float(rng.normal(0.0, DEFAULT_STUB_NOISE[lens]))
    (label,), (confidence,), (rationale,), (raw_json,) = _stub_answers(
        [lens.value], np.array([obs])
    )
    return AgentOutput(
        disclosure_id=record.id,
        agent=lens,
        label=SentimentLabel(int(label)),
        confidence=float(confidence),
        rationale=rationale,
        confidence_source=ConfidenceSource.SELF_REPORTED,
        model_name=STUB_MODEL_NAME,
        prompt_hash=prompt_digests(lens, [record.clean_text])[0].hex(),
        seed=latent.noise_seed,
        raw_json=raw_json,
        retry_count=0,
    )


# Pairs per block of vectorized seed mixing and cache appends: large enough
# to amortize the array calls and the write, small enough that a block's
# buffers (a few hundred bytes a pair) do not raise the stage's peak memory.
NOISE_CHUNK = 1024


def stub_blocks(
    keys: PreparedKeys, rows: np.ndarray, columns: np.ndarray, specs: Sequence[AgentSpec],
    signals: np.ndarray, noise_seeds: Sequence[int], seed: int,
) -> Iterator[CacheBlock]:
    """:func:`stub_agent`'s judgment of each pair (prepared row, spec column),
    with the key table's prompt digest and the run's ``seed``, as cache
    blocks of :data:`NOISE_CHUNK` pairs.

    ``signals`` (performance, guidance, risk) and ``noise_seeds`` are the
    latents of each prepared row. The noise is the same
    ``default_rng(noise seed).normal`` draw, taken a block at a time. No
    disclosure text is read.
    """
    from .noise import normal_draws  # loads numpy.random, which only stub runs need

    lens_names = [spec.lens.value for spec in specs]
    observed, signs = np.array([_OBSERVED[spec.lens] for spec in specs]).T
    scales = [DEFAULT_STUB_NOISE[spec.lens] for spec in specs]
    for start in range(0, len(rows), NOISE_CHUNK):
        r, c = rows[start : start + NOISE_CHUNK], columns[start : start + NOISE_CHUNK]
        at, ids = c.tolist(), keys.ids_at(r)
        lenses = [lens_names[column] for column in at]
        pair_seeds = [
            _noise_seed(lens, rid, noise_seeds[row])
            for lens, rid, row in zip(lenses, ids, r.tolist())
        ]
        draws = normal_draws(pair_seeds, [scales[column] for column in at])
        obs = signs[c] * signals[r, observed[c].astype(np.int64)] + draws
        labels, confidences, rationales, raw_jsons = _stub_answers(lenses, obs)
        prompts, n = keys.prompts[r, c].tobytes().hex(), len(at)
        yield CacheBlock(
            keys.keys[r, c], ids, lenses, labels, confidences, rationales,
            np.full(n, _SELF_REPORTED, dtype=np.int8), [specs[column].model_name for column in at],
            [prompts[i : i + 64] for i in range(0, 64 * n, 64)], [seed] * n, raw_jsons,
            np.zeros(n, dtype=np.int8),
        )


def write_latents(latents: Mapping[str, LatentDisclosure], path: str | Path) -> None:
    write_jsonl(path, ({"id": rid, **vars(lat)} for rid, lat in latents.items()))


_LATENT_FIELDS = ("id", "performance_signal", "guidance_signal", "risk_signal", "noise_seed")
_LATENT_KEYS = frozenset(_LATENT_FIELDS)
_latent_fields = itemgetter(*_LATENT_FIELDS)


def _latent_row(obj: object) -> tuple:
    """``(id, performance, guidance, risk, noise seed)`` of one latents line,
    its values unchecked."""
    if not isinstance(obj, dict) or obj.keys() != _LATENT_KEYS:
        raise ValueError(f"must be a JSON object with keys exactly {list(_LATENT_FIELDS)}")
    row = _latent_fields(obj)
    if not isinstance(row[0], str):
        raise ValueError(f"id must be a string, got {row[0]!r}")
    return row


def read_latents(path: str | Path) -> tuple[dict[str, int], np.ndarray, list[int]]:
    """The latents in ``path`` as arrays in file order: each id's line index,
    the ``(m, 3)`` performance, guidance and risk signals, and the noise
    seeds. An id may appear on one line only.

    The values are checked as columns; when one breaks a
    :class:`LatentDisclosure` rule, the first line that does is named with
    that rule's message.
    """
    rows = list(read_jsonl(path, _latent_row))
    values = [value for row in rows for value in row[1:4]]
    seeds = [row[4] for row in rows]
    try:
        signals = np.array(values, dtype=np.float64).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):  # not numbers, or beyond the float range
        signals = np.full((len(rows), 3), np.nan)
    if not (
        set(map(type, values)) <= {int, float}
        and set(map(type, seeds)) <= {int}
        and (np.abs(signals) <= 1.0).all()  # NaN fails too
    ):
        for lineno, (_, *latent) in enumerate(rows, start=1):
            try:
                LatentDisclosure(*latent)
            except (TypeError, ValueError) as exc:
                raise ArtifactError(f"{path}: line {lineno}: {exc}") from None
    position: dict[str, int] = {}
    for index, (rid, *_) in enumerate(rows):
        if position.setdefault(rid, index) != index:
            raise ArtifactError(
                f"{path}: duplicate id {rid!r} on lines {position[rid] + 1} and {index + 1}"
            )
    return position, signals, seeds


def load_latents(path: str | Path) -> dict[str, LatentDisclosure]:
    """The latents of each id in ``path``, from :func:`read_latents`."""
    position, signals, seeds = read_latents(path)
    return {rid: LatentDisclosure(*signals[i].tolist(), seeds[i]) for rid, i in position.items()}
