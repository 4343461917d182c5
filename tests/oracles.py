"""Reference rules the package's fast paths are checked against.

The pipeline builds features, votes and regimes for whole splits at once
(``features.feature_matrix``, ``evaluation.regimes`` and
``evaluation.evaluate_judgments`` over ``(n, 3)`` label-code and confidence
blocks), keys the cache by digests of pairs whose prompts it never renders,
draws the stub agents' noise and appends their cache lines a block of pairs
at a time, renders every JSON-lines artifact from a fixed line template,
ingests the corpus in one pass through a spool of prepared lines
(``ingest.prepare``), streams the latents sidecar and the model's prompt
digest a block at a time, and writes the synthetic corpus a block of lines
at a time from the arrays it draws.
These are the same rules written one item at a time, in the plainest form,
so tests can compare the two; no production code calls them.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ensemble_judge import ingest, store, synth
from ensemble_judge.agents import AgentSpec, render_prompt
from ensemble_judge.artifacts import (
    ArtifactError,
    InputError,
    read_jsonl,
    write_stamped,
    write_text,
)
from ensemble_judge.config import RunConfig
from ensemble_judge.domain import (
    LENS_ORDER,
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)
from ensemble_judge.evaluation import ConfusionMatrix, Regime
from ensemble_judge.features import FEAT_GAP, FEATURE_DIM
from ensemble_judge.synth import (
    DEFAULT_STUB_NOISE,
    LABEL_DEAD_ZONE,
    NEUTRAL_SIGNAL_MASS,
    NEUTRAL_SIGNAL_WINDOW,
    RETURN_NOISE_SCALE,
    RETURN_WEIGHTS,
    SIGNAL_WINDOWS,
    STUB_MODEL_NAME,
    LatentDisclosure,
)

# The feature columns no production code indexes by name; ``features`` holds
# the dimension and the columns the aggregator standardizes.
FEAT_LABELS = (0, 1, 2)          # agent labels as -1/0/+1 in LENS_ORDER
FEAT_MAJORITY = 6                # majority label as -1/0/+1
FEAT_COUNTS = (7, 8, 9)          # counts of positive, neutral, negative labels
FEAT_AGREEMENT = 10              # number of agents sharing the modal label
FEAT_TOP_AGENT = (12, 13, 14)    # one-hot: which agent is most confident


def prompt_hash(prompt: str) -> str:
    """The hex sha256 of a rendered prompt, as a cache key carries it."""
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


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
    """The 15-dimensional joint-agent feature vector of one disclosure."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        check_feature_matrix(np.array([self.values], dtype=np.float64))


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


# The cache-key oracle: a pair's key fields, from its rendered prompt.


class CacheKey(NamedTuple):
    """A cache line's key fields; the store indexes its row by :meth:`digest`."""

    disclosure_id: str
    lens: Lens
    model_name: str
    prompt_hash: str
    seed: int

    @classmethod
    def for_output(cls, output: AgentOutput) -> "CacheKey":
        return cls(
            output.disclosure_id, output.agent, output.model_name, output.prompt_hash, output.seed
        )

    def digest(self) -> bytes:
        # Looked up on the module at each call, so a test can patch it there.
        return store.key_digest(
            self.disclosure_id, self.lens.value, self.model_name, self.prompt_hash, self.seed
        )


def expected_cache_keys(
    records: Iterable[DisclosureRecord], specs: Sequence[AgentSpec], seed: int
) -> list[CacheKey]:
    """One key per (disclosure, agent) pair, record-major, from each rendered prompt."""
    return [
        CacheKey(
            record.id, spec.lens, spec.model_name,
            prompt_hash(render_prompt(spec.lens, record.clean_text)), seed,
        )
        for record in records
        for spec in specs
    ]


def payload(output: AgentOutput) -> tuple:
    """``output``'s fields in order, as ``store._parse_line`` reads them from
    its line: the lens as its name, the label and source as their codes."""
    return (
        output.disclosure_id, output.agent.value, int(output.label), output.confidence,
        output.rationale, store.SOURCE_CODES[output.confidence_source], output.model_name,
        output.prompt_hash, output.seed, output.raw_json, output.retry_count,
    )


def block(outputs: Sequence[AgentOutput]) -> store.CacheBlock:
    """The cache block of ``outputs``, each under the digest of its own key."""
    return store.CacheBlock.of([CacheKey.for_output(o).digest() for o in outputs], outputs)


def stored_payload(cache: store.CacheStore, key: CacheKey) -> tuple | None:
    """The payload of the line ``cache`` holds under ``key``, re-read from the
    file through ``store._parse_line``; None when no line has that key."""
    (row,) = cache.rows([key.digest()]).tolist()
    return None if row < 0 else cache._payload_at(int(cache._table["offset"][row]))


# The JSON-lines oracle: each line of the corpus, latents, prepared and feature
# files is json.dumps(..., ensure_ascii=False) of its row's dict form; the
# package renders the same bytes from one fixed template per format.

# One encoder for every line: json.dumps with a non-default option builds a
# new encoder per call.
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)


def json_line(row: dict) -> str:
    """``row`` as one JSON object, non-ASCII kept as is, ending in a newline."""
    return _JSON_LINE.encode(row) + "\n"


def json_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The :func:`json_line` of each row."""
    return map(json_line, rows)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write :func:`json_lines` of ``rows``, streamed row by row."""
    write_text(path, json_lines(rows))


def corpus_row(record: DisclosureRecord, **extra: str) -> dict:
    """A record's corpus line object; ``extra`` keys (a prepared line's
    ``clean_text``) go just before the return."""
    return {
        "id": record.id,
        "timestamp": record.timestamp.isoformat(),
        "ticker": record.ticker,
        "text": record.raw_text,
        **extra,
        "next_day_return": record.next_day_return,
    }


def feature_row(disclosure_id: str, features: Sequence[float], target: int) -> dict:
    """A feature file's line object."""
    return {"disclosure_id": disclosure_id, "features": list(features), "target": int(target)}


# The cache-line oracle: a cache line is the JSON of these nested dicts,
# written by ``json.dumps(..., ensure_ascii=False)``.


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


def line_to_dict(output: AgentOutput, created_at: datetime) -> dict:
    return {
        # Field order is fixed so serialized keys hash stably.
        "key": {
            "disclosure_id": output.disclosure_id,
            "lens": output.agent.value,
            "model_name": output.model_name,
            "prompt_hash": output.prompt_hash,
            "seed": output.seed,
        },
        "output": output_to_dict(output),
        "created_at": created_at.isoformat(),
    }


def cache_line(output: AgentOutput, created_at: datetime) -> bytes:
    return (json.dumps(line_to_dict(output, created_at), ensure_ascii=False) + "\n").encode("utf-8")


# The stub oracle: one default_rng per pair and json.dumps of the answer.


def _lens_observation(lens: Lens, latent: LatentDisclosure) -> float:
    if lens is Lens.PERFORMANCE:
        return latent.performance_signal
    if lens is Lens.GUIDANCE:
        return latent.guidance_signal
    # Elevated risk reads as negative sentiment for next-day reaction.
    return -latent.risk_signal


def _stub_answer(
    lens: Lens, disclosure_id: str, latent: LatentDisclosure, prompt_digest: str, seed: int
) -> AgentOutput:
    digest = hashlib.sha256(
        f"{lens.value}:{disclosure_id}:{latent.noise_seed}".encode("utf-8")
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
    seed = run_seed if run_seed is not None else latent.noise_seed
    return _stub_answer(lens, record.id, latent, prompt_digest, seed)


def stub_outputs(
    pairs: Iterable[tuple[str, Lens, str]],
    latents: Mapping[str, LatentDisclosure],
    seed: int,
) -> Iterator[AgentOutput]:
    """The stub agent's output for each ``(disclosure id, lens, prompt
    digest)``, with the given prompt digest and the run's ``seed``, one pair
    at a time; no disclosure text is read."""
    for disclosure_id, lens, prompt_digest in pairs:
        yield _stub_answer(lens, disclosure_id, latents[disclosure_id], prompt_digest, seed)


def extract_json_object(text: str) -> tuple[str, int] | None:
    """First balanced ``{...}`` object in the text and its start offset:
    each ``{`` in turn starts a quote-aware brace scan to the end of the
    text, and the first scan that balances wins."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for i in range(start, len(text)):
            ch = text[i]
            if in_string:
                if escaped:
                    escaped = False
                elif ch == "\\":
                    escaped = True
                elif ch == '"':
                    in_string = False
            elif ch == '"':
                in_string = True
            elif ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return text[start : i + 1], start
        start = text.find("{", start + 1)
    return None


def preprocess(raw_text: str, cfg: ingest.PreprocessConfig) -> str:
    """``ingest.preprocess`` with its whitespace rule as a regex: every run of
    ``\\s`` becomes one space, then the ends are stripped."""
    deduped: list[str] = []
    prev: str | None = None
    for line in raw_text.split("\n"):
        if prev is None or line.strip() != prev:
            deduped.append(line)
        prev = line.strip()
    blank_at = next((i for i, line in enumerate(deduped) if not line.strip()), None)
    for i in range(blank_at or 0):
        deduped[i] = ingest._lowercase_metadata_tickers(deduped[i])
    normalized = re.sub(r"\s+", " ", "\n".join(deduped)).strip()
    return ingest._truncate_at_whitespace(normalized, cfg.char_budget)


def write_prepared(
    records: Iterable[DisclosureRecord], path: Path, specs: Sequence[AgentSpec], seed: int
) -> None:
    """The prepared file of preprocessed ``records`` in (timestamp, id) order,
    then its key table from :meth:`ingest.PreparedKeys.of`, stamped with the
    bytes just written."""
    records = ingest.sort_records(records)
    write_jsonl(path, (corpus_row(r, clean_text=r.clean_text) for r in records))
    table = ingest.PreparedKeys.of(records, specs, seed)
    write_stamped(
        ingest._key_table_path(path),
        ingest._KEY_TABLE_MAGIC,
        {"rows": len(records), **ingest._key_table_stamp(path, specs, seed)},
        (
            table.targets.astype(np.int8).tobytes(),
            table.prompts.tobytes(),
            table.keys.tobytes(),
            json.dumps(table.ids).encode("ascii"),
        ),
    )


def stage_ingest(config: RunConfig) -> dict:
    """``pipeline.stage_ingest`` as a chain over whole lists of records: load
    the corpus, preprocess it, split it, then write the prepared file, its
    key table and the split file."""
    records = ingest.preprocess_corpus(ingest.load_corpus(config.corpus_path), config.preprocess)
    split = ingest.chronological_split(records, config.split_fractions)
    write_prepared(records, config.prepared_path, config.agent_specs(), config.seed)
    ingest.write_split(split, config.split_path)
    return {"records": len(records), **{s.value: len(ids) for s, ids in split.items()}}


def read_latents(path: str | Path, ids: Sequence[str]) -> tuple[np.ndarray, list[int], np.ndarray]:
    """``synth.read_latents`` as a whole-file read: every line kept as a tuple,
    the values checked as columns once all are read, then each id's line
    picked out (the signals, the seeds and the 1-based line; zeros for an id
    with no line)."""
    rows = list(read_jsonl(path, synth._latent_row))
    values = [value for row in rows for value in row[1:4]]
    seeds = [row[4] for row in rows]
    signals = np.full((len(rows), 3), np.nan)
    if set(map(type, values)) <= {int, float} and set(map(type, seeds)) <= {int}:
        try:
            signals = np.array(values, dtype=np.float64).reshape(-1, 3)
        except OverflowError:  # an integer beyond the float range
            pass
    if not (np.abs(signals) <= 1.0).all():  # NaN fails too
        for lineno, (_, *latent) in enumerate(rows, start=1):
            try:
                LatentDisclosure(*latent)
            except InputError as exc:
                raise ArtifactError(f"{path}: line {lineno}: {exc}") from None
    position: dict[str, int] = {}
    for index, (rid, *_) in enumerate(rows):
        if position.setdefault(rid, index) != index:
            raise ArtifactError(
                f"{path}: duplicate id {rid!r} on lines {position[rid] + 1} and {index + 1}"
            )
    line = np.fromiter((position.get(rid, -1) for rid in ids), np.int64, len(ids))
    found = line >= 0
    return (
        np.where(found[:, None], signals[line], 0.0),
        [seeds[i] if ok else 0 for i, ok in zip(line.tolist(), found.tolist())],
        line + 1,
    )


def prompt_digest(prompts: np.ndarray) -> str:
    """The model file's ``prompt_hash_digest`` as one string: the sha256 of
    the hex prompt digests of ``prompts`` (raw sha256 rows), sorted, one per line."""
    width = prompts.shape[-1]
    ordered = np.sort(prompts.reshape(-1, width).view(f"S{width}").ravel())
    return hashlib.sha256(ordered.tobytes().hex("\n", width).encode("ascii")).hexdigest()


# The synthetic corpus as whole lists: one record and one latent object a
# disclosure, both collections held until both files are written.


def generate_corpus(
    n: int, seed: int
) -> tuple[list[DisclosureRecord], dict[str, LatentDisclosure]]:
    """Draw a deterministic synthetic corpus of ``n`` disclosures.

    Returns the records (raw text only; preprocessing is the pipeline's job)
    and the hidden latent signals keyed by disclosure id. Timestamps are
    strictly increasing, so the chronological split is well defined.
    """
    if n < 100 or seed < 0:
        raise InputError(f"synthetic corpus needs n >= 100 and seed >= 0, got {n} and {seed}")
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


def write_corpus(records: Iterable[DisclosureRecord], path: str | Path) -> None:
    """Write disclosures in the corpus file format (used by the synthetic generator)."""
    write_jsonl(path, map(corpus_row, records))


def write_latents(latents: Mapping[str, LatentDisclosure], path: str | Path) -> None:
    write_jsonl(path, ({"id": rid, **vars(lat)} for rid, lat in latents.items()))


def stage_synth(config: RunConfig, n: int, seed: int) -> dict:
    """Write a synthetic corpus and its latent sidecar."""
    if config.latents_path is None:
        raise InputError("config needs latents_path to hold the synthetic signals")
    records, latents = generate_corpus(n, seed)
    write_corpus(records, config.corpus_path)
    write_latents(latents, config.latents_path)
    positives = sum(r.binary_target for r in records)
    return {"n": n, "seed": seed, "positive_rate": positives / n}
