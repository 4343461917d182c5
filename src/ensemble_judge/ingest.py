"""Corpus loading, text preprocessing, and the chronological split.

The corpus file is UTF-8 line-delimited JSON, one record per line with keys
exactly {id, timestamp, ticker, text, next_day_return}; the first four are
strings and timestamps are RFC 3339. Preprocessing collapses duplicated
consecutive lines, lowercases ticker symbols inside a leading metadata block,
normalizes whitespace, and truncates to a character budget derived from a
token budget.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .artifacts import write_jsonl, write_text
from .domain import DisclosureRecord, Split, target_from_return

CORPUS_KEYS = frozenset({"id", "timestamp", "ticker", "text", "next_day_return"})


class CorpusFormatError(ValueError):
    """Raised when a corpus file violates the line-delimited JSON contract."""


@dataclass(frozen=True)
class PreprocessConfig:
    """Deterministic preprocessing knobs.

    The token budget is approximated by a character budget of
    ``floor(max_tokens * chars_per_token)`` so the pipeline stays
    model-agnostic; the default of 4 chars per token is a common
    English-text approximation.
    """

    max_tokens: int = 2048
    chars_per_token: float = 4.0

    def __post_init__(self) -> None:
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if not self.chars_per_token > 0:
            raise ValueError("chars_per_token must be positive")
        if self.char_budget < 1:
            raise ValueError("character budget rounds down to zero")

    @property
    def char_budget(self) -> int:
        return math.floor(self.max_tokens * self.chars_per_token)


def parse_rfc3339(value: str) -> datetime:
    """Parse an RFC 3339 timestamp; naive values are taken as UTC."""
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"invalid RFC 3339 timestamp: {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _coerce_return(value: object) -> float:
    if isinstance(value, bool):
        raise ValueError("boolean is not a return value")
    r = float(value)  # accepts numbers and numeric strings
    if not math.isfinite(r):
        raise ValueError(f"non-finite return {value!r}")
    return r


def load_corpus(path: str | Path) -> list[DisclosureRecord]:
    """Load disclosures from a line-delimited JSON file.

    Records come back with ``clean_text`` empty; run :func:`preprocess_corpus`
    before anything downstream touches the text.
    """
    path = Path(path)
    records: list[DisclosureRecord] = []
    seen: dict[str, int] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}: malformed JSON on line {lineno}: {exc}") from None
            if not isinstance(obj, dict) or set(obj) != CORPUS_KEYS:
                raise CorpusFormatError(
                    f"{path}: line {lineno} must carry keys exactly {sorted(CORPUS_KEYS)}"
                )
            rid = obj["id"]
            if not isinstance(rid, str) or not rid:
                raise CorpusFormatError(f"{path}: line {lineno}: id must be a non-empty string")
            if rid in seen:
                raise CorpusFormatError(
                    f"{path}: duplicate id {rid!r} on lines {seen[rid]} and {lineno}"
                )
            seen[rid] = lineno
            for key in ("timestamp", "ticker", "text"):
                if not isinstance(obj[key], str):
                    raise CorpusFormatError(
                        f"{path}: line {lineno}: {key} must be a string, got {obj[key]!r}"
                    )
            try:
                timestamp = parse_rfc3339(obj["timestamp"])
                next_day_return = _coerce_return(obj["next_day_return"])
            except (ValueError, TypeError) as exc:
                raise CorpusFormatError(f"{path}: line {lineno}: {exc}") from None
            records.append(
                DisclosureRecord(
                    id=rid,
                    timestamp=timestamp,
                    ticker=obj["ticker"],
                    raw_text=obj["text"],
                    clean_text="",
                    next_day_return=next_day_return,
                    binary_target=target_from_return(next_day_return),
                )
            )
    return records


def corpus_row(record: DisclosureRecord, **extra: str) -> dict:
    """A record's JSON line object; ``extra`` keys go just before the return."""
    return {
        "id": record.id,
        "timestamp": record.timestamp.isoformat(),
        "ticker": record.ticker,
        "text": record.raw_text,
        **extra,
        "next_day_return": record.next_day_return,
    }


def write_corpus(records: Iterable[DisclosureRecord], path: str | Path) -> None:
    """Write disclosures in the corpus file format (used by the synthetic generator)."""
    write_jsonl(path, map(corpus_row, records))


# A metadata line is KEY: VALUE with an upper-case key.
_METADATA_LINE = re.compile(r"^([A-Z][A-Z0-9_ ]*):\s*(\S.*)$")
# Ticker-shaped token: 1-5 capitals, optional class suffix (BRK.B, RDS-A).
_TICKER_TOKEN = re.compile(r"\b[A-Z]{1,5}(?:[.\-][A-Z]{1,2})?\b")


def _lowercase_metadata_tickers(line: str) -> str:
    m = _METADATA_LINE.match(line)
    if m is None:
        return line
    key, value = m.group(1), m.group(2)
    return f"{key}: {_TICKER_TOKEN.sub(lambda t: t.group(0).lower(), value)}"


def _truncate_at_whitespace(text: str, limit: int) -> str:
    if len(text) <= limit:
        return text
    if limit < len(text) and text[limit].isspace():
        return text[:limit].rstrip()
    head = text[:limit]
    cut = max(head.rfind(ch) for ch in (" ", "\t", "\n"))
    if cut <= 0:
        # No word boundary inside the budget: hard cut rather than emit nothing.
        return head
    return head[:cut].rstrip()


def preprocess(raw_text: str, cfg: PreprocessConfig) -> str:
    """Apply the deterministic cleaning rules to one disclosure text.

    Steps, in order: collapse consecutive identical lines (duplicated
    headers), lowercase ticker symbols in the leading metadata block
    (KEY: VALUE lines before the first blank line), collapse every
    whitespace run to a single space, and truncate to the character
    budget at a word boundary. Idempotent: a second pass is a no-op.
    """
    lines = raw_text.split("\n")

    deduped: list[str] = []
    prev: str | None = None
    for line in lines:
        stripped = line.strip()
        if prev is not None and stripped == prev:
            continue
        deduped.append(line)
        prev = stripped

    # The metadata block only exists when terminated by a blank line; the
    # single-line output of a previous pass therefore never re-triggers
    # ticker lowercasing, which keeps preprocess idempotent.
    blank_at = next((i for i, ln in enumerate(deduped) if not ln.strip()), None)
    if blank_at is not None:
        for i in range(blank_at):
            deduped[i] = _lowercase_metadata_tickers(deduped[i])

    normalized = re.sub(r"\s+", " ", "\n".join(deduped)).strip()
    return _truncate_at_whitespace(normalized, cfg.char_budget)


def preprocess_corpus(
    records: Sequence[DisclosureRecord], cfg: PreprocessConfig
) -> list[DisclosureRecord]:
    """Return records with ``clean_text`` populated.

    A record whose text cleans to nothing (empty or blank) is refused: no
    agent can judge it.
    """
    out: list[DisclosureRecord] = []
    for r in records:
        clean = preprocess(r.raw_text, cfg)
        if not clean:
            raise ValueError(f"disclosure {r.id!r} has no text after preprocessing")
        out.append(replace(r, clean_text=clean))
    return out


def sort_records(records: Iterable[DisclosureRecord]) -> list[DisclosureRecord]:
    """The deterministic corpus order: by timestamp, ties broken by id."""
    return sorted(records, key=lambda r: (r.timestamp, r.id))


def chronological_split(
    records: Sequence[DisclosureRecord], fractions: tuple[float, float, float]
) -> dict[Split, list[str]]:
    """The ids of each split, train/dev/test by time order.

    Boundaries are cumulative floors of the fraction sums, which keeps every
    split within one record of its exact share for any corpus size. Ties in
    timestamp are broken by id, so the split is a pure function of the corpus.
    Fractions that leave a split without records at this corpus size are
    refused.
    """
    n = len(records)
    if n < 5:
        raise ValueError(f"need at least 5 records for a 60/20/20 split, got {n}")
    fracs = [Fraction(str(f)) for f in fractions]
    if len(fracs) != 3 or any(f <= 0 for f in fracs) or sum(fracs) != 1:
        raise ValueError(f"fractions must be three positive values summing to 1, got {fractions}")

    ids = [r.id for r in sort_records(records)]
    b1 = int(fracs[0] * n)
    b2 = int((fracs[0] + fracs[1]) * n)
    split = {Split.TRAIN: ids[:b1], Split.DEV: ids[b1:b2], Split.TEST: ids[b2:]}
    empty = [s.value for s, split_ids in split.items() if not split_ids]
    if empty:
        raise ValueError(
            f"split fractions {list(fractions)} leave the {' and '.join(empty)} "
            f"split empty at {n} records"
        )
    return split


def write_split(split: dict[Split, list[str]], path: str | Path) -> None:
    payload = {s.value: ids for s, ids in split.items()}
    write_text(path, [json.dumps(payload, indent=2) + "\n"])


def load_split(path: str | Path) -> dict[Split, list[str]]:
    """The ids of each split in ``path``, a JSON object whose ``train``,
    ``dev`` and ``test`` each hold an array of id strings; an id may appear
    once only."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    split: dict[Split, list[str]] = {}
    seen: set[str] = set()
    for s in Split:
        ids = obj[s.value]
        if not isinstance(ids, list) or not all(isinstance(rid, str) for rid in ids):
            raise ValueError(f"{s.value} is not an array of id strings")
        for rid in ids:
            if rid in seen:
                raise ValueError(f"id {rid!r} assigned to more than one split")
            seen.add(rid)
        split[s] = ids
    return split
