"""Offline synthetic corpus and deterministic stub agents.

Each synthetic disclosure carries three hidden lens signals in [-1, 1]. The
next-day return is a fixed-weight combination (guidance weighted highest,
risk entering negatively) plus Gaussian noise, and each stub agent observes
only its own lens signal through seeded noise. This reproduces the
qualitative structure the pipeline is meant to exploit: three informative
but imperfect judges whose disagreement carries signal, with no model
endpoint anywhere.

``synth`` writes the corpus and its latents sidecar a line at a time from
the arrays it draws. A stub ``run-agents`` reads the sidecar as it streams,
a block of lines at a time (each line by the layout ``synth`` writes, where
it has it), straight into arrays in the key table's row order; no line is
kept once its block is checked.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import count, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .agents import AgentSpec, prompt_digests
from .artifacts import ArtifactError, InputError, finite_number, parse_lines, read_jsonl
from .domain import (
    LENS_ORDER,
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Lens,
    SentimentLabel,
)
from .ingest import PreparedKeys
from .store import SOURCE_CODES, CacheBlock, json_text, line_head

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
            raise InputError(f"noise_seed must be an integer, got {self.noise_seed!r}")
        for name in ("performance_signal", "guidance_signal", "risk_signal"):
            v = getattr(self, name)
            if not -1.0 <= finite_number(v) <= 1.0:
                raise InputError(f"{name} {v} outside [-1, 1]")


def draw_corpus(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 3)`` lens signals (performance, guidance, risk) and the ``n``
    next-day returns of a deterministic synthetic corpus of ``n`` disclosures."""
    if n < 100 or seed < 0:
        raise InputError(f"synthetic corpus needs n >= 100 and seed >= 0, got {n} and {seed}")
    rng = np.random.default_rng(seed)
    # Each draw is folded into the signals as it is drawn, in this order.
    neutral = rng.uniform(0.0, 1.0, size=(n, 3)) < NEUTRAL_SIGNAL_MASS
    signals = rng.uniform(0.0, 1.0, size=(n, 3))  # the magnitudes, scaled in place
    lo, hi = np.array([SIGNAL_WINDOWS[lens] for lens in LENS_ORDER]).T
    signals *= hi - lo
    signals += lo
    np.negative(signals, out=signals, where=rng.uniform(0.0, 1.0, size=(n, 3)) < 0.5)
    small = rng.uniform(-NEUTRAL_SIGNAL_WINDOW, NEUTRAL_SIGNAL_WINDOW, size=(n, 3))
    np.copyto(signals, small, where=neutral)
    del neutral, small
    noise = rng.normal(0.0, RETURN_NOISE_SCALE, size=n)
    w_perf, w_guid, w_risk = RETURN_WEIGHTS
    return signals, w_perf * signals[:, 0] + w_guid * signals[:, 1] - w_risk * signals[:, 2] + noise


def corpus_lines(signals: np.ndarray, returns: np.ndarray) -> Iterator[dict]:
    """The corpus file's line objects of :func:`draw_corpus`'s arrays, one
    row at a time (raw text only; preprocessing is the pipeline's job).
    Timestamps are strictly increasing, so the chronological split is well
    defined."""
    start = datetime(2018, 1, 2, 9, 0, tzinfo=timezone.utc)
    for i in range(len(returns)):
        perf, guid, risk = signals[i].tolist()
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
        yield {
            "id": f"syn-{i:06d}",
            "timestamp": timestamp.isoformat(),
            "ticker": ticker,
            "text": text,
            "next_day_return": float(returns[i]),
        }


def latents_lines(signals: np.ndarray, seed: int) -> Iterator[dict]:
    """The latents sidecar's line objects of :func:`draw_corpus`'s signals,
    one row at a time: each disclosure's hidden signals and noise seed."""
    for i in range(len(signals)):
        values = (f"syn-{i:06d}", *signals[i].tolist(), seed * 1_000_000 + i)
        yield dict(zip(_LATENT_FIELDS, values))


# The latent signal each lens observes, as its column in (performance,
# guidance, risk), and its sign: elevated risk reads as negative sentiment.
_OBSERVED = {Lens.PERFORMANCE: (0, 1.0), Lens.GUIDANCE: (1, 1.0), Lens.RISK: (2, -1.0)}
# Per-label strings, read once: ``Enum.value`` is a Python-level property.
_LABEL_NAMES = {int(label): label.as_string() for label in SentimentLabel}
_SELF_REPORTED = SOURCE_CODES[ConfidenceSource.SELF_REPORTED]


def _noise_seed(lens: str, disclosure_id: str, noise_seed: int) -> bytes:
    """The seed of one (lens name, disclosure) pair's noise draw, as 8 big-endian bytes."""
    return hashlib.sha256(f"{lens}:{disclosure_id}:{noise_seed}".encode("utf-8")).digest()[:8]


def _judgments(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stub agent's label codes (int8) and confidences for noisy observations ``obs``."""
    labels = np.where(obs > LABEL_DEAD_ZONE, 1, np.where(obs < -LABEL_DEAD_ZONE, -1, 0))
    return labels.astype(np.int8), np.minimum(np.abs(obs), 1.0)


def _answer(lens: str, label: str, obs: str, confidence: str) -> tuple[str, str]:
    """The stub agent's rationale and raw answer, given its lens and label
    names, its observation as ``+0.000`` and its confidence's ``repr``. The
    answer is json.dumps's bytes: no part holds a character JSON escapes."""
    rationale = f"The {lens} signal reads {obs} for next-day reaction."
    answer = f'{{"label": "{label}", "rationale": "{rationale}", "confidence": {confidence}}}'
    return rationale, answer


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
    rng = np.random.default_rng(
        int.from_bytes(_noise_seed(lens.value, record.id, latent.noise_seed), "big")
    )
    column, sign = _OBSERVED[lens]
    signal = (latent.performance_signal, latent.guidance_signal, latent.risk_signal)[column]
    obs = sign * signal + float(rng.normal(0.0, DEFAULT_STUB_NOISE[lens]))
    (label,), (confidence,) = (a.tolist() for a in _judgments(np.array([obs])))
    rationale, raw_json = _answer(lens.value, _LABEL_NAMES[label], f"{obs:+.3f}", repr(confidence))
    return AgentOutput(
        disclosure_id=record.id,
        agent=lens,
        label=SentimentLabel(label),
        confidence=confidence,
        rationale=rationale,
        confidence_source=ConfidenceSource.SELF_REPORTED,
        model_name=STUB_MODEL_NAME,
        prompt_hash=prompt_digests(lens, [record.clean_text])[0].hex(),
        seed=latent.noise_seed,
        raw_json=raw_json,
        retry_count=0,
    )


# Stand-ins for a pair's own values in the line head of an agent spec:
# private-use characters, which no JSON text escapes. A head holds them in the
# order id, prompt, id, label, confidence, observation, prompt, label,
# observation, confidence.
_ID, _PROMPT, _LABEL, _CONFIDENCE, _OBS = map(chr, range(0xE000, 0xE005))


def _head_pieces(spec: AgentSpec, seed: int) -> list[str]:
    """The 11 pieces of text around a stub pair's own values in the
    :func:`store.line_head` of a judgment by ``spec`` under the run ``seed``."""
    rationale, answer = _answer(spec.lens.value, _LABEL, _OBS, _CONFIDENCE)
    head = line_head(
        _ID, json_text(spec.lens.value), f'"{_LABEL}"', _CONFIDENCE,
        json_text(rationale), json_text(ConfidenceSource.SELF_REPORTED.value),
        json_text(spec.model_name), f'"{_PROMPT}"', repr(seed),
        json_text(answer), "0",
    )
    return re.split(f"[{_ID}-{_OBS}]", head)


# Pairs per block of vectorized seed mixing and cache appends, and lines per
# block of the latents read: large enough to amortize the array calls and
# the write, small enough that a block's buffers (a few hundred bytes a pair
# or a line) do not raise the stage's peak memory.
NOISE_CHUNK = 1024


def stub_blocks(
    keys: PreparedKeys, rows: np.ndarray, columns: np.ndarray, specs: Sequence[AgentSpec],
    signals: np.ndarray, noise_seeds: np.ndarray, seed: int,
) -> Iterator[CacheBlock]:
    """:func:`stub_agent`'s judgment of each pair (prepared row, spec column),
    with the key table's prompt digest and the run's ``seed``, as cache
    blocks of :data:`NOISE_CHUNK` pairs whose heads are rendered a row at a
    time from the spec's :func:`_head_pieces`.

    ``signals`` (performance, guidance, risk) and ``noise_seeds`` are the
    latents of each prepared row. The noise is the same
    ``default_rng(noise seed).normal`` draw, taken a block at a time. No
    disclosure text is read.
    """
    from .noise import normal_draws  # loads numpy.random, which only stub runs need

    lens_names = [spec.lens.value for spec in specs]
    pieces = [_head_pieces(spec, seed) for spec in specs]
    observed, signs = np.array([_OBSERVED[spec.lens] for spec in specs]).T
    scales = np.array([DEFAULT_STUB_NOISE[spec.lens] for spec in specs])
    for start in range(0, len(rows), NOISE_CHUNK):
        r, c = rows[start : start + NOISE_CHUNK], columns[start : start + NOISE_CHUNK]
        at, ids = c.tolist(), keys.ids_at(r)
        lenses = [lens_names[column] for column in at]
        pair_seeds = b"".join(map(_noise_seed, lenses, ids, noise_seeds[r].tolist()))
        draws = normal_draws(np.frombuffer(pair_seeds, ">u8"), scales[c])
        obs = signs[c] * signals[r, observed[c].astype(np.int64)] + draws
        labels, confidences = _judgments(obs)
        prompts = keys.prompts[r, c].tobytes().hex()
        # The heads are built in the yield, so no frame holds them past their put.
        yield CacheBlock(
            keys.keys[r, c], labels, np.full(len(at), _SELF_REPORTED, dtype=np.int8), confidences,
            [
                f"{p0}{rid}{p1}{prompt}{p2}{rid}{p3}{label}{p4}{confidence}{p5}{o}{p6}"
                f"{prompt}{p7}{label}{p8}{o}{p9}{confidence}{p10}"
                for (p0, p1, p2, p3, p4, p5, p6, p7, p8, p9, p10), rid, prompt, label,
                confidence, o in zip(
                    map(pieces.__getitem__, at), map(json_text, ids),
                    [prompts[i : i + 64] for i in range(0, 64 * len(at), 64)],
                    map(_LABEL_NAMES.__getitem__, labels.tolist()),
                    map(float.__repr__, confidences.tolist()),
                    map(format, obs.tolist(), repeat("+.3f")),
                )
            ],
        )


_LATENT_FIELDS = ("id", "performance_signal", "guidance_signal", "risk_signal", "noise_seed")
_LATENT_KEYS = frozenset(_LATENT_FIELDS)
_latent_fields = itemgetter(*_LATENT_FIELDS)


def _latent_row(obj: object) -> tuple:
    """``(id, performance, guidance, risk, noise seed)`` of one latents line,
    its values unchecked."""
    if not isinstance(obj, dict) or obj.keys() != _LATENT_KEYS:
        raise InputError(f"must be a JSON object with keys exactly {list(_LATENT_FIELDS)}")
    row = _latent_fields(obj)
    if not isinstance(row[0], str):
        raise InputError(f"id must be a string, got {row[0]!r}")
    return row


def _block_signals(block: Sequence[tuple], start: int) -> np.ndarray:
    """The ``(k, 3)`` signals of the :func:`_latent_row` rows of the lines
    from ``start`` on, checked as columns; when a value breaks a
    :class:`LatentDisclosure` rule, the first line that does is refused with
    that rule's message."""
    values = [value for row in block for value in row[1:4]]
    if not (
        {type(row[4]) for row in block} <= {int}
        and set(map(type, values)) <= {int, float}
        and all(-1.0 <= value <= 1.0 for value in values)  # NaN fails too
    ):
        for lineno, (_, *latent) in enumerate(block, start):
            try:
                LatentDisclosure(*latent)
            except InputError as exc:
                raise InputError(f"line {lineno}: {exc}") from None
    return np.array(values, dtype=np.float64).reshape(-1, 3)


# A latents line as ``write_jsonl`` writes ``latents_lines``' objects: an id
# with no character JSON escapes, three signals with a fraction or an
# exponent (JSON reads both as float()) and a seed of at most 20 digits.
_SIGNAL = rb"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+))"
_LATENT_LINE = re.compile(
    rb'\{"id": "([^"\\\x00-\x1f]*)", "performance_signal": ' + _SIGNAL
    + rb', "guidance_signal": ' + _SIGNAL + rb', "risk_signal": ' + _SIGNAL
    + rb', "noise_seed": (0|[1-9][0-9]{0,19})\}\n?'
)


def _latent_blocks(path: str | Path) -> Iterator[tuple[int, list[tuple], bool]]:
    """The :func:`_latent_row` rows of ``path``'s lines, :data:`NOISE_CHUNK`
    lines a block in file order: the block's first line number, its rows and
    whether each of its lines had the layout ``synth`` writes. A line is read
    by that layout where it has it and its id is UTF-8 and its seed below
    2**64, else as :func:`read_jsonl` reads it, refusals included; either
    way to the same row."""
    path = Path(path)
    with path.open("rb") as fh:
        numbered = enumerate(fh, 1)
        for start in count(1, NOISE_CHUNK):
            block, fixed = [], True
            for lineno, line in islice(numbered, NOISE_CHUNK):
                found, row = _LATENT_LINE.fullmatch(line), None
                if found is not None:
                    rid, performance, guidance, risk, seed = found.groups()
                    try:
                        row = (rid.decode("utf-8"), float(performance), float(guidance),
                               float(risk), int(seed))
                    except UnicodeDecodeError:
                        pass
                if row is None or row[4] >= 1 << 64:
                    fixed = False
                    (row,) = parse_lines(path, (line,), lineno, _latent_row, ArtifactError)
                block.append(row)
            if not block:
                return
            yield start, block, fixed


def _placed(
    block: list[tuple], start: int, row_of: Mapping[str, int],
    signals: np.ndarray, seeds: np.ndarray, lines: np.ndarray,
) -> bool:
    """Place a block of fixed-layout rows, the first of line ``start``, as
    arrays: True when every signal is in [-1, 1] and every id is one of
    ``row_of``'s, with no line before and once in the block; else False,
    with nothing placed."""
    rids, *values = zip(*block)
    at = list(map(row_of.get, rids))
    if None in at:
        return False
    block_signals, at = np.array(values[:3]).T, np.array(at)
    if not (
        (np.abs(block_signals) <= 1.0).all()  # NaN fails too
        and (lines[at] == 0).all()
        and len(np.unique(at)) == len(at)
    ):
        return False
    signals[at] = block_signals
    seeds[at] = values[3]
    lines[at] = np.arange(start, start + len(at))
    return True


def read_latents(
    path: str | Path, ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The latents in ``path`` of each of ``ids``, in the order of ``ids``:
    the ``(n, 3)`` performance, guidance and risk signals (float64), the
    noise seeds (uint64, or Python ints once one does not fit) and the
    1-based line that holds each id, 0 for an id with no line.

    The lines stream by :data:`NOISE_CHUNK` at a time, and only the arrays
    are kept. A block that :func:`_placed` places is checked as arrays;
    any other is checked a line at a time, its values as columns. Every
    line is checked, that of an id outside ``ids`` too, and refused in this
    order: a line that is not an object of the five keys with a string id;
    the first line that breaks a :class:`LatentDisclosure` rule, with that
    rule's message; the first id repeated, naming both its lines.
    """
    row_of = dict(zip(ids, range(len(ids))))
    signals = np.zeros((len(ids), 3))
    seeds = np.zeros(len(ids), np.uint64)
    lines = np.zeros(len(ids), np.int64)
    other: dict[str, int] = {}  # the line of each id outside ``ids``
    broken = repeated = None  # the first refusal of each kind, deferred
    for start, block, fixed in _latent_blocks(path):
        if broken is not None:
            continue  # a later line may still be malformed, which comes first
        if fixed and _placed(block, start, row_of, signals, seeds, lines):
            continue
        try:
            block_signals = _block_signals(block, start)
        except InputError as exc:
            broken = f"{path}: {exc}"
            continue
        mine, at = [], []  # the block's first lines of ``ids``, and their rows
        for lineno, (rid, *_) in enumerate(block, start):
            row = row_of.get(rid)
            first = other.setdefault(rid, lineno) if row is None else int(lines[row]) or lineno
            if first != lineno:
                repeated = repeated or f"{path}: duplicate id {rid!r} on lines {first} and {lineno}"
            elif row is not None:
                lines[row] = lineno
                mine.append(lineno - start)
                at.append(row)
        block_seeds = [block[offset][4] for offset in mine]
        if seeds.dtype == np.uint64 and not all(0 <= seed < 1 << 64 for seed in block_seeds):
            seeds = seeds.astype(object)  # Python ints hold any seed
        signals[at] = block_signals[mine]
        seeds[at] = block_seeds
    if broken or repeated:
        raise ArtifactError(broken or repeated)
    return signals, seeds, lines


def load_latents(path: str | Path) -> dict[str, LatentDisclosure]:
    """The latents of each id in ``path``, in file order, from :func:`read_latents`."""
    ids = [row[0] for row in read_jsonl(path, _latent_row)]
    signals, seeds, _ = read_latents(path, ids)
    return {
        rid: LatentDisclosure(*signal, seed)
        for rid, signal, seed in zip(ids, signals.tolist(), seeds.tolist())
    }
