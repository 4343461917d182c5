"""Disclosure files, text preprocessing, the prepared key table and the
chronological split.

The corpus file is UTF-8 line-delimited JSON, one record per line with keys
exactly {id, timestamp, ticker, text, next_day_return}; the first four are
strings, timestamps are RFC 3339, the return is a finite JSON number and no
id repeats. The prepared file has the same lines with a non-empty
``clean_text`` string added; one line check parses both.
Next to the prepared file, ``ingest`` writes its key table
(``prepared.jsonl.keys``): the ids, targets, prompt digests and cache-key
digests the reader stages need, stamped with what they depend on, so those
stages skip the text. :meth:`PreparedKeys.of` derives the digests from
preprocessed records as they stream by, for ``ingest`` and for a reader
stage that finds no current table; :func:`write_key_table` and
:func:`read_key_table` hold the table's layout.
Preprocessing collapses duplicated consecutive lines, lowercases ticker
symbols inside a leading metadata block, normalizes whitespace, and
truncates to a character budget derived from a token budget.

``ingest`` (:func:`prepare`) reads the corpus once: each line is checked,
preprocessed and encoded as its prepared line, which waits in an unnamed
spool file, while memory keeps its keys and timestamp and no text. One sort
by (timestamp, id) then orders the prepared file, its key table and the
split. The list functions (:func:`load_corpus`, :func:`preprocess_corpus`,
:func:`chronological_split`, :func:`load_prepared`) apply the same rules; no
stage calls them, but the benchmark wraps or imports them and the tests
chain them as the one pass's oracle.
"""

from __future__ import annotations

import json
import math
import os
import re
from array import array
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .agents import AgentSpec, prompt_digester, templates_sha256
from .artifacts import (
    InputError,
    finite_number,
    json_line,
    loads,
    prefix_sha256,
    read_jsonl,
    read_stamped,
    spool,
    write_binary,
    write_jsonl,
    write_stamped,
    write_text,
)
from .domain import DisclosureRecord, Split
from .store import DIGEST, key_digest

CORPUS_KEYS = frozenset({"id", "timestamp", "ticker", "text", "next_day_return"})
PREPARED_KEYS = CORPUS_KEYS | {"clean_text"}
_TEXT_KEYS = ("id", "timestamp", "ticker", "text", "clean_text")
_CORPUS_TEXT = itemgetter("id", "timestamp", "ticker", "text")


class CorpusFormatError(InputError):
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
            raise InputError("max_tokens must be >= 1")
        if not self.chars_per_token > 0:
            raise InputError("chars_per_token must be positive")
        try:
            budget = self.char_budget
        except OverflowError:  # a huge max_tokens: the product leaves the float range
            raise InputError("max_tokens x chars_per_token is beyond the float range") from None
        if budget < 1:
            raise InputError("character budget rounds down to zero")

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
    except ValueError:  # how fromisoformat refuses a string
        raise InputError(f"invalid RFC 3339 timestamp: {value!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def _disclosure_check(clean: Callable[[str], str] | None) -> Callable[[object], DisclosureRecord]:
    """The check of each line, in file order, of a prepared file (``clean``
    None) or of a corpus file, whose text gives ``clean_text`` through ``clean``.

    Each line must carry exactly its file's keys, string text fields, a finite
    JSON number as the return and an id no earlier line has; otherwise :class:`InputError`.
    """
    prepared = clean is None
    keys = PREPARED_KEYS if prepared else CORPUS_KEYS
    seen: dict[str, int] = {}  # the line of each id

    def check(obj: object) -> DisclosureRecord:
        if not isinstance(obj, dict) or obj.keys() != keys:
            raise InputError(f"must carry keys exactly {sorted(keys)}")
        rid, timestamp, ticker, text = _CORPUS_TEXT(obj)
        clean_text = obj["clean_text"] if prepared else ""
        if not (
            isinstance(rid, str) and isinstance(timestamp, str) and isinstance(ticker, str)
            and isinstance(text, str) and isinstance(clean_text, str)
        ):
            key = next(k for k in _TEXT_KEYS if not isinstance(obj.get(k, ""), str))
            raise InputError(f"{key} must be a string, got {obj[key]!r}")
        if not prepared:
            clean_text = clean(text)
        elif not clean_text:
            raise InputError("clean_text is empty")
        lineno = len(seen) + 1  # each earlier line passed, adding its id
        if seen.setdefault(rid, lineno) != lineno:
            raise InputError(f"duplicate id {rid!r} on lines {seen[rid]} and {lineno}")
        return DisclosureRecord(
            id=rid,
            timestamp=parse_rfc3339(timestamp),
            ticker=ticker,
            raw_text=text,
            clean_text=clean_text,
            next_day_return=finite_number(obj["next_day_return"]),
        )

    return check


def load_corpus(path: str | Path) -> list[DisclosureRecord]:
    """Load disclosures from a corpus file (:class:`CorpusFormatError` on a bad line).

    Records come back with ``clean_text`` empty; run :func:`preprocess_corpus`
    before anything downstream touches the text.
    """
    return list(read_jsonl(path, _disclosure_check(lambda text: ""), CorpusFormatError))


def read_prepared(path: str | Path) -> Iterator[DisclosureRecord]:
    """The preprocessed disclosures, streaming (:class:`ArtifactError` on a bad line)."""
    return read_jsonl(path, _disclosure_check(None))


def load_prepared(path: str | Path) -> list[DisclosureRecord]:
    """Load preprocessed disclosures (:class:`ArtifactError` on a bad line)."""
    return list(read_prepared(path))


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


_KEY_TABLE_MAGIC = b"ensemble-judge prepared keys 1\n"
_PROMPT_BYTES = 32  # a raw sha256


@dataclass(frozen=True)
class PreparedKeys:
    """What the reader stages use of a prepared file, without its text.

    One row per disclosure in file order and one column per agent spec: the
    ids, the binary targets (int64), the raw sha256 of each pair's prompt
    (``(n, k, 32)`` uint8) and each pair's cache-key digest (``(n, k)``,
    :data:`store.DIGEST`).
    """

    ids: list[str]
    targets: np.ndarray
    prompts: np.ndarray
    keys: np.ndarray

    @classmethod
    def of(
        cls, records: Iterable[DisclosureRecord], specs: Sequence[AgentSpec], seed: int
    ) -> "PreparedKeys":
        """The keys of preprocessed ``records``, taken one at a time as they
        stream by: the only derivation of a pair's prompt and cache-key digests."""
        columns = [(prompt_digester(s.lens), s.lens.value, s.model_name) for s in specs]
        ids: list[str] = []
        targets, prompts, keys = bytearray(), bytearray(), bytearray()
        for record in records:
            ids.append(record.id)
            targets.append(record.binary_target)
            for digest_of, lens, model_name in columns:
                prompt = digest_of(record.clean_text)
                prompts += prompt
                keys += key_digest(record.id, lens, model_name, prompt.hex(), seed)
        return cls(
            ids,
            np.frombuffer(targets, np.int8).astype(np.int64),
            np.frombuffer(prompts, np.uint8).reshape(len(ids), len(specs), _PROMPT_BYTES),
            np.frombuffer(keys, DIGEST).reshape(len(ids), len(specs)),
        )

    def ids_at(self, rows: np.ndarray) -> list[str]:
        return [self.ids[row] for row in rows.tolist()]


def _key_table_path(prepared: Path) -> Path:
    return prepared.with_name(prepared.name + ".keys")


def _key_table_stamp(prepared: Path, specs: Sequence[AgentSpec], seed: int) -> dict:
    """What a key table's digests depend on: the prepared bytes, the prompt
    templates, the agents' lenses and models, and the seed."""
    return {
        "prepared_sha256": prefix_sha256(prepared, os.stat(prepared).st_size),
        "templates_sha256": templates_sha256(),
        "agents": [[spec.lens.value, spec.model_name] for spec in specs],
        "seed": seed,
    }


def read_key_table(
    path: str | Path, specs: Sequence[AgentSpec], seed: int
) -> PreparedKeys | None:
    """The key table of the prepared file at ``path``: what
    ``PreparedKeys.of(read_prepared(path), specs, seed)`` gives.

    None when the table is missing or unreadable, has another format version
    or a bad body digest, or its stamp does not match the prepared bytes,
    the prompt templates, the agents or the seed.
    """
    path = Path(path)
    found = read_stamped(_key_table_path(path), _KEY_TABLE_MAGIC)
    if found is None:
        return None
    header, body = found
    try:
        n, k = header["rows"], len(specs)
        stamp = _key_table_stamp(path, specs, seed)
        if type(n) is not int or n < 0 or header != {"rows": n, **stamp}:
            return None
        keys_at = n + n * k * _PROMPT_BYTES  # after the targets and the prompts
        ids_at = keys_at + n * k * DIGEST.itemsize
        ids = json.loads(body[ids_at:].tobytes().decode("utf-8"))
        if not (isinstance(ids, list) and len(ids) == n and all(isinstance(i, str) for i in ids)):
            return None
        return PreparedKeys(
            ids,
            np.frombuffer(body, np.int8, n).astype(np.int64),
            np.frombuffer(body, np.uint8, n * k * _PROMPT_BYTES, n).reshape(n, k, _PROMPT_BYTES),
            np.frombuffer(body, DIGEST, n * k, keys_at).reshape(n, k),
        )
    except (OSError, LookupError, TypeError, ValueError):
        return None


def write_key_table(path: Path, keys: PreparedKeys, specs: Sequence[AgentSpec], seed: int) -> None:
    """Write ``keys`` as the key table of the prepared file at ``path`` (final
    bytes): after the stamp, the targets (int8), the prompt digests and the key
    digests, row by row, then the ids as one JSON array."""
    write_stamped(
        _key_table_path(path),
        _KEY_TABLE_MAGIC,
        {"rows": len(keys.ids), **_key_table_stamp(path, specs, seed)},
        (
            memoryview(keys.targets.astype(np.int8)),
            memoryview(keys.prompts),
            memoryview(keys.keys),
            json.dumps(keys.ids).encode("ascii"),
        ),
    )


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

    normalized = " ".join("\n".join(deduped).split())
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
            raise InputError(f"disclosure {r.id!r} has no text after preprocessing")
        out.append(replace(r, clean_text=clean))
    return out


def sort_records(records: Iterable[DisclosureRecord]) -> list[DisclosureRecord]:
    """The deterministic corpus order: by timestamp, ties broken by id."""
    return sorted(records, key=lambda r: (r.timestamp, r.id))


def chronological_split(
    records: Sequence[DisclosureRecord], fractions: tuple[float, float, float]
) -> dict[Split, list[str]]:
    """The ids of each split, train/dev/test by time order (:func:`_time_split`)."""
    return _time_split([r.id for r in sort_records(records)], fractions)


def _time_split(
    ids: list[str], fractions: tuple[float, float, float]
) -> dict[Split, list[str]]:
    """``ids``, in (timestamp, id) order, cut into train/dev/test; with ties
    broken by id, the split is a pure function of the corpus.

    Boundaries are cumulative floors of the fraction sums, which keeps every
    split within one record of its exact share for any corpus size. Fewer
    than five records, and fractions that leave a split without records at
    this corpus size, are refused.
    """
    n = len(ids)
    if n < 5:
        raise InputError(f"need at least 5 records for a 60/20/20 split, got {n}")
    fracs = [Fraction(str(f)) for f in fractions]
    if len(fracs) != 3 or any(f <= 0 for f in fracs) or sum(fracs) != 1:
        raise InputError(f"fractions must be three positive values summing to 1, got {fractions}")

    b1 = int(fracs[0] * n)
    b2 = int((fracs[0] + fracs[1]) * n)
    split = {Split.TRAIN: ids[:b1], Split.DEV: ids[b1:b2], Split.TEST: ids[b2:]}
    empty = [s.value for s, split_ids in split.items() if not split_ids]
    if empty:
        raise InputError(
            f"split fractions {list(fractions)} leave the {' and '.join(empty)} "
            f"split empty at {n} records"
        )
    return split


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def prepare(
    corpus: Path,
    prepared: Path,
    split_path: Path,
    cfg: PreprocessConfig,
    fractions: tuple[float, float, float],
    specs: Sequence[AgentSpec],
    seed: int,
) -> dict[Split, list[str]]:
    """Write the prepared file of ``corpus``, its key table and its split
    file, reading the corpus once; return the split.

    The prepared lines wait in a :func:`spool` next to ``prepared`` until the
    sort. Refusals come in the order a reader of the whole corpus meets them:
    the first bad line, the first record in file order whose text cleans to
    nothing, then the split's; no file is written unless all pass.
    """
    times = array("q")  # microseconds since the epoch
    offsets = array("q", [0])  # where each record's prepared line starts in the spool
    blank: list[str] = []  # the records whose text cleans to nothing
    with spool(prepared.parent) as lines:

        def spooled() -> Iterator[DisclosureRecord]:
            check = _disclosure_check(lambda text: preprocess(text, cfg))
            for record in read_jsonl(corpus, check, CorpusFormatError):
                if not record.clean_text:
                    blank.append(record.id)
                times.append((record.timestamp - _EPOCH) // _MICROSECOND)
                line = json_line(corpus_row(record, clean_text=record.clean_text)).encode()
                lines.write(line)
                offsets.append(offsets[-1] + len(line))
                yield record

        keys = PreparedKeys.of(spooled(), specs, seed)
        if blank:
            raise InputError(f"disclosure {blank[0]!r} has no text after preprocessing")
        order = sorted(range(len(times)), key=lambda row: (times[row], keys.ids[row]))
        ids = [keys.ids[row] for row in order]
        keys = PreparedKeys(ids, keys.targets[order], keys.prompts[order], keys.keys[order])
        split = _time_split(keys.ids, fractions)

        lines.flush()
        fd = lines.fileno()
        write_binary(
            prepared, (os.pread(fd, offsets[r + 1] - offsets[r], offsets[r]) for r in order)
        )
    write_key_table(prepared, keys, specs, seed)
    write_split(split, split_path)
    return split


def write_split(split: dict[Split, list[str]], path: str | Path) -> None:
    payload = {s.value: ids for s, ids in split.items()}
    write_text(path, [json.dumps(payload, indent=2) + "\n"])


def load_split(path: str | Path) -> dict[Split, list[str]]:
    """The ids of each split in ``path``, a JSON object whose ``train``,
    ``dev`` and ``test`` each hold an array of id strings; an id may appear
    once only. A file that breaks this is an :class:`InputError`."""
    obj = loads(Path(path).read_bytes())
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {type(obj).__name__}")
    split: dict[Split, list[str]] = {}
    seen: set[str] = set()
    for s in Split:
        ids = obj.get(s.value)
        if not isinstance(ids, list) or not all(isinstance(rid, str) for rid in ids):
            raise InputError(f"{s.value} is not an array of id strings")
        for rid in ids:
            if rid in seen:
                raise InputError(f"id {rid!r} assigned to more than one split")
            seen.add(rid)
        split[s] = ids
    return split
