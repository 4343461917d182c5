"""Append-only JSONL cache of agent interactions.

Every (disclosure, agent, model, prompt, seed) combination maps to at most
one immutable record. The file is human-inspectable, crash-tolerant (a
truncated final line is dropped with a warning, and the next writer cuts it
off before appending), and never rewritten in place, so feature building,
training, and evaluation can replay it bit-for-bit without re-querying any
model.

Loading keeps a columnar table, not records: each row's label code,
confidence, confidence-source code and byte offset, and an index of the
rows' key digests (:func:`key_digest`, 16 bytes each) held as one sorted
array, which :meth:`CacheStore.rows` searches with ``np.searchsorted``.
The writer appends a :class:`CacheBlock` of judgments at a time: one write
of its lines, which share one ``created_at``, its columns added to the
table and its sorted digests merged into the index.
A row's full line (rationale, raw generation) is re-read from the file
only to compare it with a repeated key's line or a re-put output. Every
read of a line, the first and each re-read, goes through
:func:`_parse_line`, which holds all of a line's rules.

The writer saves that table next to the cache as a derived snapshot
(``cache.jsonl.table``), stamped with the sha256 of the cache bytes it
covers. An open whose stamp matches loads the table and parses only the
lines past those bytes; any other snapshot is ignored and the whole file
is parsed, so deleting the snapshot changes nothing but the open's cost.
A snapshot whose columns break a value rule is ignored the same way.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import sys
from array import array
from datetime import datetime, timezone
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

from .artifacts import finite_number, fsync_dir, prefix_sha256, read_stamped, write_stamped
from .domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel

logger = logging.getLogger(__name__)


class CacheIntegrityError(RuntimeError):
    """A key was re-put with a different payload, or the file contradicts itself."""


class CacheCorruptionError(RuntimeError):
    """A non-final line in the store file failed to parse."""


# Confidence-source codes of the table's source column: each source's position.
_SOURCES = tuple(ConfidenceSource)
SOURCE_CODES = {source: code for code, source in enumerate(_SOURCES)}
_FALLBACK_CODE = SOURCE_CODES[ConfidenceSource.FALLBACK]

_LABEL_CODES = {label.as_string(): int(label) for label in SentimentLabel}
_SOURCE_BY_VALUE = {source.value: code for source, code in SOURCE_CODES.items()}

# The index's digest type: fixed-width bytes, compared and sorted as raw bytes.
DIGEST = np.dtype("S16")


def key_digest(
    disclosure_id: str, lens: str, model_name: str, prompt_hash: str, seed: int
) -> bytes:
    """The 16-byte digest a key's row is indexed by. Each string field is
    prefixed with its length, so no two keys share an encoding."""
    encoded = (
        f"{len(disclosure_id)}:{disclosure_id}{len(lens)}:{lens}{len(model_name)}:{model_name}"
        f"{len(prompt_hash)}:{prompt_hash}{seed}"
    ).encode("utf-8", "surrogatepass")
    return hashlib.blake2b(encoded, digest_size=16).digest()


class CacheBlock(NamedTuple):
    """Judgments to append, as columns with one row per judgment: each row's
    key digest (as ``PreparedKeys.keys`` holds it), then its output fields in
    :class:`AgentOutput` order, the lens as its name and the label and the
    confidence source as their codes; the numeric columns are numpy arrays."""

    digests: np.ndarray
    disclosure_ids: Sequence[str]
    lenses: Sequence[str]
    labels: np.ndarray
    confidences: np.ndarray
    rationales: Sequence[str]
    sources: np.ndarray
    model_names: Sequence[str]
    prompt_hashes: Sequence[str]
    seeds: Sequence[int]
    raw_jsons: Sequence[str]
    retry_counts: np.ndarray

    @classmethod
    def of(cls, digests: Sequence[bytes], outputs: Sequence[AgentOutput]) -> "CacheBlock":
        """The block of ``outputs``, the one under each key digest."""
        return cls(
            np.array(digests, dtype=DIGEST),
            [o.disclosure_id for o in outputs],
            [o.agent.value for o in outputs],
            np.array([int(o.label) for o in outputs], dtype=np.int8),
            np.array([o.confidence for o in outputs], dtype=np.float64),
            [o.rationale for o in outputs],
            np.array([SOURCE_CODES[o.confidence_source] for o in outputs], dtype=np.int8),
            [o.model_name for o in outputs],
            [o.prompt_hash for o in outputs],
            [o.seed for o in outputs],
            [o.raw_json for o in outputs],
            np.array([o.retry_count for o in outputs], dtype=np.int8),
        )

    def fallbacks(self) -> int:
        """The rows whose confidence source is the fallback."""
        return int(np.count_nonzero(self.sources == _FALLBACK_CODE))


def _valid_values(labels: np.ndarray, sources: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """Which rows keep a cache line's value rules: a label and a source code
    that exist, a confidence in [0, 1], and (neutral, 0.0) for a fallback."""
    return (
        (labels >= -1) & (labels <= 1) & (sources >= 0) & (sources < len(_SOURCES))
        & (confidences >= 0.0) & (confidences <= 1.0)
        & ((sources != _FALLBACK_CODE) | ((labels == 0) & (confidences == 0.0)))
    )


# The JSON text of each output field, in CacheBlock order; enum values are
# encoded once, by their name or code.
_LENS_JSON = {lens.value: encode_basestring(lens.value) for lens in Lens}
_LABEL_JSON = {int(label): encode_basestring(label.as_string()) for label in SentimentLabel}
_SOURCE_JSON = [encode_basestring(source.value) for source in _SOURCES]
_TEXT = encode_basestring
_FIELD_JSON = (
    _TEXT, _LENS_JSON.__getitem__, _LABEL_JSON.__getitem__, float.__repr__, _TEXT,
    _SOURCE_JSON.__getitem__, _TEXT, _TEXT, int.__repr__, _TEXT, int.__repr__,
)


def _cache_lines(columns: Sequence[list], created_at: str) -> list[bytes]:
    """The cache line of each row of a block's output ``columns`` (lists, in
    :class:`CacheBlock` order): ``{key, output, created_at}`` in this fixed
    field order, the bytes ``json.dumps(..., ensure_ascii=False)`` writes,
    except that a lone surrogate, which UTF-8 cannot encode, is written as its
    JSON escape (``\\udXXX``). A high surrogate and a low one side by side
    are two such escapes, which JSON reads back as one character."""
    at = _TEXT(created_at)
    return [
        (
            f'{{"key": {{"disclosure_id": {rid}, "lens": {lens}, "model_name": {model}, '
            f'"prompt_hash": {prompt}, "seed": {seed}}}, "output": {{"disclosure_id": {rid}, '
            f'"agent": {lens}, "label": {label}, "confidence": {conf}, "rationale": {why}, '
            f'"confidence_source": {source}, "model_name": {model}, "prompt_hash": {prompt}, '
            f'"seed": {seed}, "raw_json": {raw}, "retry_count": {retry}}}, "created_at": {at}}}\n'
        ).encode("utf-8", "backslashreplace")
        for rid, lens, label, conf, why, source, model, prompt, seed, raw, retry in zip(
            *map(map, _FIELD_JSON, columns), strict=True
        )
    ]


class _KeyMismatch(Exception):
    """A line's key block names a different judgment than its output block."""


_IDENTITY = itemgetter("disclosure_id", "agent", "model_name", "prompt_hash", "seed")
_KEY_IDENTITY = itemgetter("disclosure_id", "lens", "model_name", "prompt_hash", "seed")
_VALUES = itemgetter(
    "label", "confidence", "confidence_source", "retry_count", "rationale", "raw_json"
)


# The errors _parse_line raises on a malformed line, besides _KeyMismatch.
_LINE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, RecursionError)


def _key_fields(payload: tuple) -> str:
    """The key fields of a :func:`_parse_line` payload, named, for an error message."""
    disclosure_id, lens, *_, model_name, prompt_hash, seed, _raw_json, _retry_count = payload
    return (
        f"disclosure_id={disclosure_id!r}, lens={lens!r}, model_name={model_name!r}, "
        f"prompt_hash={prompt_hash!r}, seed={seed!r}"
    )


def _parse_line(line: bytes) -> tuple[bytes, tuple]:
    """One cache line as (key digest, payload). The payload is the line's 11
    output values in :class:`AgentOutput` field order, with the lens as its
    name and the label and confidence source as their codes.

    Raises one of ``_LINE_ERRORS`` when the line breaks a rule, a value's
    range included, and :class:`_KeyMismatch` when the key block disagrees
    with the output block.
    """
    obj = json.loads(line.decode("utf-8"))  # strict: json.loads would pass encoded surrogates
    out = obj["output"]
    identity = _IDENTITY(out)
    label, confidence, source, retry_count, rationale, raw_json = _VALUES(out)
    datetime.fromisoformat(obj["created_at"])
    if _KEY_IDENTITY(obj["key"]) != identity:
        raise _KeyMismatch
    disclosure_id, lens, model_name, prompt_hash, seed = identity
    # The equality above holds for 42.0 == 42 and True == 1: check the types
    # _cache_lines writes.
    if type(seed) is not int or type(obj["key"]["seed"]) is not int:
        raise TypeError("seed must be an integer in both blocks")
    if type(retry_count) is not int or retry_count not in (0, 1):
        raise ValueError(f"retry_count must be 0 or 1, got {retry_count!r}")
    for text in (disclosure_id, model_name, prompt_hash, rationale, raw_json):
        if not isinstance(text, str):
            raise TypeError(f"expected a string, got {text!r}")
    code = _LABEL_CODES.get(label)
    if code is None:
        code = int(SentimentLabel.from_string(label))
    _LENS_JSON[lens]  # a KeyError unless the lens is known
    confidence = finite_number(confidence)
    source = _SOURCE_BY_VALUE[source]
    if not 0.0 <= confidence <= 1.0 or (source == _FALLBACK_CODE and (code or confidence)):
        raise ValueError(
            "confidence outside [0, 1] or a fallback output that is not (neutral, 0.0)"
        )
    return key_digest(disclosure_id, lens, model_name, prompt_hash, seed), (
        disclosure_id, lens, code, confidence, rationale, source,
        model_name, prompt_hash, seed, raw_json, retry_count,
    )


# The table snapshot is a stamped binary file (artifacts.write_stamped) whose
# body holds the row columns in the header's byte order: label, source,
# confidence and offset by row, then the key digests sorted and the row of
# each sorted digest.
_SNAPSHOT_MAGIC = b"ensemble-judge cache table 2\n"
_SNAPSHOT_COLUMNS = ("b", "b", "d", "q")  # label, source, confidence, offset
# The columns, a sorted digest and a row number, per row.
_ROW_BYTES = sum(array(code).itemsize for code in _SNAPSHOT_COLUMNS) + DIGEST.itemsize + 8


def _read_snapshot(path: Path, cache: Path) -> tuple | None:
    """``(covered, columns, digests, rows)``: the table of the first ``covered``
    bytes of ``cache``, from the snapshot at ``path``.

    None when the snapshot is missing or unreadable, has another format
    version or a bad body digest, its stamp does not match the cache, or a
    row's label, confidence or source breaks a rule :func:`_parse_line` checks.
    """
    found = read_stamped(path, _SNAPSHOT_MAGIC)
    if found is None:
        return None
    header, body = found
    try:
        n, covered = header["rows"], header["covered_bytes"]
        if (
            type(n) is not int or type(covered) is not int or n < 0 or covered < 0
            or len(body) != n * _ROW_BYTES
            or header["byteorder"] != sys.byteorder
            or os.stat(cache).st_size < covered
            or prefix_sha256(cache, covered) != header["cache_sha256"]
        ):
            return None
        columns = []
        start = 0
        for typecode in _SNAPSHOT_COLUMNS:
            column = array(typecode)
            column.frombytes(body[start : start + n * column.itemsize])
            columns.append(column)
            start += n * column.itemsize
        digests = np.frombuffer(body, DIGEST, n, start).copy()
        rows = np.frombuffer(body, np.int64, n, start + n * DIGEST.itemsize).copy()
        if (
            (digests[1:] <= digests[:-1]).any()
            or not np.array_equal(np.sort(rows), np.arange(n))
            or not _valid_values(*map(np.asarray, columns[:3])).all()
        ):
            return None
    except (OSError, LookupError, TypeError, ValueError):
        return None
    return covered, columns, digests, rows


class CacheStore:
    """Single-writer, multi-reader JSONL store keyed by :func:`key_digest`.

    A read-only store never opens a write handle, takes no lock and never
    changes the file. A writable store holds an exclusive ``flock`` from
    before it loads until it closes, so a second writer fails instead of
    cutting the first one's half-written line. It first repairs the tail an
    interrupted writer may have left: it cuts a dropped truncated final line
    back to the last line boundary, or terminates a valid final line that
    lacks its newline, so the next append starts on a line of its own.

    Only the writer writes the table snapshot: at :meth:`close`, still under
    its lock, when the table covers bytes the snapshot on disk does not. A
    writer that closes on an empty file removes it instead, so a run that
    appended nothing leaves no cache behind.
    """

    def __init__(self, path: str | Path, *, readonly: bool = False):
        self.path = Path(path)
        # The index: the key digests, sorted, and the row of each.
        self._digests = np.empty(0, dtype=DIGEST)
        self._rows = np.empty(0, dtype=np.int64)
        self._labels = array("b")
        self._confidences = array("d")
        self._sources = array("b")
        self._offsets = array("q")
        self._end = 0  # file offset just past the last intact line
        self._unterminated = False  # the last intact line lacks its newline
        self._snapshot_path = self.path.with_name(self.path.name + ".table")
        self._covered = 0  # cache bytes the snapshot on disk holds the table of
        self._snapshot_due = False  # a writer whose table is whole
        self._reader: BinaryIO | None = None
        self._fh: BinaryIO | None = None
        try:
            if not readonly:
                self._lock()
            if self.path.exists():
                snapshot = _read_snapshot(self._snapshot_path, self.path)
                if snapshot is not None:
                    self._covered, columns, self._digests, self._rows = snapshot
                    self._labels, self._sources, self._confidences, self._offsets = columns
                self._load(self._covered)
            if not readonly:
                self._repair_tail()
                self._snapshot_due = True
        except BaseException:
            self.close()
            raise

    def _load(self, offset: int) -> None:
        """Parse the lines from byte ``offset`` on into the table."""
        added: dict[bytes, int] = {}  # the row of each key this parse adds
        add_label, add_confidence = self._labels.append, self._confidences.append
        add_source, add_offset = self._sources.append, self._offsets.append
        line = b""
        with self.path.open("rb") as fh:
            fh.seek(offset)
            for line in fh:
                if line == b"\n":
                    offset += 1
                    continue
                try:
                    digest, payload = _parse_line(line)
                except _KeyMismatch:
                    raise CacheIntegrityError(
                        f"{self.path}: key block disagrees with output block "
                        f"at byte offset {offset}"
                    ) from None
                except _LINE_ERRORS as exc:
                    if line.endswith(b"\n"):
                        raise CacheCorruptionError(
                            f"{self.path}: corrupted line at byte offset {offset}: {exc}"
                        ) from None
                    # Unterminated final line: a crash artifact, not corruption.
                    logger.warning(
                        "%s: dropping truncated final line at byte offset %d", self.path, offset
                    )
                    self._end = offset
                    break
                row = added.get(digest, -1)
                if row < 0 and len(self._digests):
                    (row,) = self.rows([digest]).tolist()
                if row < 0:
                    added[digest] = len(self._offsets)
                    # The payload's label code, confidence and source code.
                    add_label(payload[2])
                    add_confidence(payload[3])
                    add_source(payload[5])
                    add_offset(offset)
                elif self._payload_at(row) == payload:
                    self._offsets[row] = offset  # the later line wins
                else:
                    raise CacheIntegrityError(
                        f"{self.path}: conflicting payloads for key "
                        f"({_key_fields(payload)}) at byte offset {offset}"
                    )
                offset += len(line)
            else:
                self._end = offset
                self._unterminated = line[-1:] not in (b"", b"\n")
        self._index(
            np.array(list(added), dtype=DIGEST), np.fromiter(added.values(), np.int64, len(added))
        )

    def _index(self, digests: np.ndarray, rows: np.ndarray) -> None:
        """Merge key digests that are not in the index yet, and their rows,
        into the sorted index."""
        order = np.argsort(digests, kind="stable")
        digests, rows = digests[order], rows[order]
        at = self._digests.searchsorted(digests)
        self._digests = np.insert(self._digests, at, digests)
        self._rows = np.insert(self._rows, at, rows)

    def _lock(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("ab")
        opened = os.fstat(self._fh.fileno())
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
            # The writer that held the lock may have removed the file it left
            # empty (see close) after this one opened it.
            current = os.stat(self.path)
        except (BlockingIOError, FileNotFoundError):
            current = None
        if current is None or not os.path.samestat(opened, current):
            self._fh.close()
            raise CacheIntegrityError(f"{self.path}: cache locked by another run")
        if current.st_size == 0:
            fsync_dir(self.path.parent)  # the new file's name survives a power cut

    def _repair_tail(self) -> None:
        if os.fstat(self._fh.fileno()).st_size > self._end:
            os.ftruncate(self._fh.fileno(), self._end)  # cut the dropped final line
        if self._unterminated:
            self._fh.write(b"\n")
            self._fh.flush()
            self._end += 1
            self._unterminated = False

    def _read_line(self, offset: int) -> bytes:
        if self._reader is None:
            self._reader = self.path.open("rb")
        self._reader.seek(offset)
        return self._reader.readline()

    def _payload_at(self, row: int) -> tuple:
        """The payload of ``row``'s line, re-read from the file."""
        offset = self._offsets[row]
        try:
            return _parse_line(self._read_line(offset))[1]
        except (_KeyMismatch, *_LINE_ERRORS) as exc:
            raise CacheCorruptionError(
                f"{self.path}: corrupted line at byte offset {offset}: {exc}"
            ) from None

    def __len__(self) -> int:
        return len(self._offsets)

    def rows(self, digests: Sequence[bytes] | np.ndarray) -> np.ndarray:
        """Table row of each key digest (:func:`key_digest`), in order; -1 where
        no key with that digest is stored."""
        wanted = np.asarray(digests, dtype=DIGEST)
        if not len(self._digests):
            return np.full(wanted.shape, -1, dtype=np.int64)
        at = np.minimum(self._digests.searchsorted(wanted), len(self._digests) - 1)
        return np.where(self._digests[at] == wanted, self._rows[at], -1)

    def judgments(self, rows: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Label codes (int8, -1/0/+1) and confidences (float64) of the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.array(self._labels, dtype=np.int8)[rows]
        confidences = np.array(self._confidences, dtype=np.float64)[rows]
        return labels, confidences

    def put(self, block: CacheBlock) -> None:
        """Durably append the rows of ``block`` whose keys are not stored yet,
        in one write, each line stamped with the block's one ``created_at``.

        A row whose key is stored, or repeats an earlier row's key, with the
        same payload is skipped; with another payload it is a
        :class:`CacheIntegrityError`, and the block writes nothing.
        """
        if self._fh is None:
            raise CacheIntegrityError(f"{self.path}: store was opened read-only")
        n = len(block.digests)
        if any(len(column) != n for column in block):
            raise ValueError("a cache block's columns must hold one row per key digest")
        retries = block.retry_counts
        valid = _valid_values(block.labels, block.sources, block.confidences)
        bad = np.flatnonzero(~valid | (retries < 0) | (retries > 1))
        if bad.size:
            raise ValueError(f"cache block row {bad[0]} breaks a cache line's value rules")
        columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in block[1:]]
        first: dict[bytes, int] = {}  # the first row of each key in the block
        new = []  # the rows to append: each new key's first row
        stored = self.rows(block.digests).tolist()
        for i, (digest, row) in enumerate(zip(block.digests.tolist(), stored)):
            j = first.setdefault(digest, i)
            if row < 0 and j == i:
                new.append(i)
                continue
            payload = tuple(column[i] for column in columns)
            earlier = self._payload_at(row) if row >= 0 else tuple(c[j] for c in columns)
            if payload != earlier:
                raise CacheIntegrityError(
                    f"key already stored with a different payload: {_key_fields(payload)}"
                )
        if not new:
            return
        created_at = datetime.now(timezone.utc).isoformat()
        lines = _cache_lines([[column[i] for i in new] for column in columns], created_at)
        self._fh.write(b"".join(lines))
        self._fh.flush()
        offsets = np.cumsum([self._end, *map(len, lines)])
        self._index(block.digests[new], np.arange(len(self), len(self) + len(new)))
        for table, values in zip(
            (self._labels, self._confidences, self._sources, self._offsets),
            (block.labels[new], block.confidences[new], block.sources[new], offsets[:-1]),
        ):
            table.frombytes(values.astype(table.typecode).tobytes())
        self._end = int(offsets[-1])

    def sync(self) -> None:
        """fsync the append handle (call on batch boundaries)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    # ``perfbench/traced_stage.py`` wraps this name for a span; no stage calls it.
    get = rows

    def missing(self, digests: Sequence[bytes] | np.ndarray) -> np.ndarray:
        """Positions of the key digests with no stored record; empty means
        coverage is complete."""
        return np.flatnonzero(self.rows(digests) < 0)

    def _write_snapshot(self) -> None:
        header = {
            "rows": len(self._offsets),
            "covered_bytes": self._end,
            "cache_sha256": prefix_sha256(self.path, self._end),
            "byteorder": sys.byteorder,
        }
        columns = (self._labels, self._sources, self._confidences, self._offsets)
        write_stamped(
            self._snapshot_path,
            _SNAPSHOT_MAGIC,
            header,
            (*map(memoryview, columns), self._digests.tobytes(), self._rows.tobytes()),
        )

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._fh is not None and not self._fh.closed:
            try:
                self.sync()
                if os.fstat(self._fh.fileno()).st_size == 0:
                    # Still under the lock: a file that holds no line holds no
                    # data, whoever created it, so leave none behind.
                    self.path.unlink()
                elif self._snapshot_due and self._end != self._covered:
                    self._write_snapshot()
            finally:
                self._snapshot_due = False
                self._fh.close()

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, exc_type: type | None, *exc_info: object) -> None:
        if exc_type is not None:
            self._snapshot_due = False  # the exception may have cut a put short
        self.close()
