"""Append-only JSONL cache of agent interactions.

Every (disclosure, agent, model, prompt, seed) combination maps to at most
one immutable record. The file is human-inspectable, crash-tolerant (a
truncated final line is dropped with a warning, and the next writer cuts it
off before appending), and never rewritten in place, so feature building,
training, and evaluation can replay it bit-for-bit without re-querying any
model.

Loading keeps a table, not records, in one order, that of the rows' key
digests (:func:`key_digest`, 16 bytes each): the digests sorted in one
array, which :meth:`CacheStore.rows` searches with ``np.searchsorted``, and
beside it each row's label code, confidence-source code, confidence and
byte offset, packed in one record array. The writer appends a
:class:`CacheBlock` of judgments at a time: the arrays of its rows, merged
into their digests' places, and the head of each row's line, which the
put closes with one tail, ``created_at`` included, and writes
:data:`_LINES_PER_WRITE` lines at a time with one flush.
A row's full line (rationale, raw generation) is re-read from the file
only to compare it with a re-put row's line or a repeated key's line (the
first line's offset is kept). Every read of a line, a re-put row's own
included, goes through :func:`_parse_line`, which holds all of a line's rules.

The writer saves that table next to the cache as a derived snapshot
(``cache.jsonl.table``) whose body is the two arrays' bytes, stamped with
the sha256 of the cache bytes it covers: hashed as they are appended by a
writer that opened the file empty, re-read by any other. An open whose
stamp matches views the table in those bytes and parses only the lines past
them; any other snapshot, or one whose rows break a value rule, is ignored
and the whole file is parsed, so deleting the snapshot changes nothing but
the open's cost.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
from datetime import datetime, timezone
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, NamedTuple, Sequence

import numpy as np

from .artifacts import (
    ArtifactError,
    InputError,
    finite_number,
    fsync_dir,
    loads,
    prefix_sha256,
    read_stamped,
    write_stamped,
)
from .domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel


class CacheIntegrityError(ArtifactError):
    """A key was re-put with a different payload, or the file contradicts itself."""


class CacheCorruptionError(ArtifactError):
    """A non-final line in the store file failed to parse."""


# Confidence-source codes of the table's source field: each source's position.
_SOURCES = tuple(ConfidenceSource)
SOURCE_CODES = {source: code for code, source in enumerate(_SOURCES)}
_FALLBACK_CODE = SOURCE_CODES[ConfidenceSource.FALLBACK]

_LABEL_CODES = {label.as_string(): int(label) for label in SentimentLabel}
_SOURCE_BY_VALUE = {source.value: code for source, code in SOURCE_CODES.items()}

# The table's digest type: fixed-width bytes, compared and sorted as raw bytes.
DIGEST = np.dtype("S16")
# A table row, packed and little-endian; ``np.insert`` copies a _RAW_ROW value
# whole, where it would copy a _ROW value field by field.
_ROW = np.dtype([("label", "i1"), ("source", "i1"), ("confidence", "<f8"), ("offset", "<i8")])
_RAW_ROW = np.dtype((np.void, _ROW.itemsize))


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


def line_head(*fields: str) -> str:
    """A cache line up to and including ``"created_at": ``, its *head*, from
    the JSON text of each output field in :class:`AgentOutput` order:
    ``{key, output, created_at}`` in this fixed field order. A put appends
    the line's *tail*, the JSON text of its ``created_at``, ``}`` and the
    newline, and writes it as the bytes ``json.dumps(..., ensure_ascii=False)``
    writes, except that a lone surrogate, which UTF-8 cannot encode, is
    written as its JSON escape (``\\udXXX``). A high surrogate and a low one
    side by side are two such escapes, which JSON reads back as one character."""
    rid, lens, label, conf, why, source, model, prompt, seed, raw, retry = fields
    return (
        f'{{"key": {{"disclosure_id": {rid}, "lens": {lens}, "model_name": {model}, '
        f'"prompt_hash": {prompt}, "seed": {seed}}}, "output": {{"disclosure_id": {rid}, '
        f'"agent": {lens}, "label": {label}, "confidence": {conf}, "rationale": {why}, '
        f'"confidence_source": {source}, "model_name": {model}, "prompt_hash": {prompt}, '
        f'"seed": {seed}, "raw_json": {raw}, "retry_count": {retry}}}, "created_at": '
    )


# The JSON text of the enum fields, by name or code.
_LENS_JSON = {lens.value: encode_basestring(lens.value) for lens in Lens}
_LABEL_JSON = {int(label): encode_basestring(label.as_string()) for label in SentimentLabel}
_SOURCE_JSON = [encode_basestring(source.value) for source in _SOURCES]
# The JSON text of a string as a cache line holds it: json.dumps's with
# ensure_ascii=False.
json_text = encode_basestring


class CacheBlock(NamedTuple):
    """Judgments to append, one row per judgment: each row's key digest (as
    ``PreparedKeys.keys`` holds it), its label and confidence-source codes
    and its confidence, as numpy arrays, and its cache line's
    :func:`line_head`. The arrays are what the table keeps; the heads are
    what the file keeps."""

    digests: np.ndarray
    labels: np.ndarray
    sources: np.ndarray
    confidences: np.ndarray
    heads: Sequence[str]

    @classmethod
    def of(cls, digests: Sequence[bytes], outputs: Sequence[AgentOutput]) -> "CacheBlock":
        """The block of ``outputs``, the one under each key digest. A retry
        count outside {0, 1} is a ``ValueError`` naming the first such row."""
        labels = np.array([int(o.label) for o in outputs], dtype=np.int8)
        sources = np.array([SOURCE_CODES[o.confidence_source] for o in outputs], dtype=np.int8)
        confidences = np.array([o.confidence for o in outputs], dtype=np.float64)
        retries = np.array([o.retry_count for o in outputs], dtype=np.int8)
        bad = np.flatnonzero((retries < 0) | (retries > 1))
        if bad.size:
            raise ValueError(f"cache block row {bad[0]} breaks a cache line's value rules")
        heads = [
            line_head(
                json_text(o.disclosure_id), _LENS_JSON[o.agent.value], _LABEL_JSON[label],
                float.__repr__(confidence), json_text(o.rationale), _SOURCE_JSON[source],
                json_text(o.model_name), json_text(o.prompt_hash), int.__repr__(o.seed),
                json_text(o.raw_json), int.__repr__(retry),
            )
            for o, label, confidence, source, retry in zip(
                outputs, labels.tolist(), confidences.tolist(), sources.tolist(), retries.tolist()
            )
        ]
        return cls(np.array(digests, dtype=DIGEST), labels, sources, confidences, heads)

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


# Cache lines joined per write call of a put (about 50 KB): a block's lines
# are never copied whole, and a put makes a few dozen calls, not one a line.
_LINES_PER_WRITE = 64


class _KeyMismatch(Exception):
    """A line's key block names a different judgment than its output block."""


# The fields of a line's key block and of its output block, the identity first.
_KEY_FIELDS = ("disclosure_id", "lens", "model_name", "prompt_hash", "seed")
_OUTPUT_FIELDS = (
    "disclosure_id", "agent", "model_name", "prompt_hash", "seed",
    "label", "confidence", "confidence_source", "retry_count", "rationale", "raw_json",
)
_KEY_IDENTITY = itemgetter(*_KEY_FIELDS)
_IDENTITY = itemgetter(*_OUTPUT_FIELDS[:5])
_VALUES = itemgetter(*_OUTPUT_FIELDS[5:])
_KEY_SET, _OUTPUT_SET = frozenset(_KEY_FIELDS), frozenset(_OUTPUT_FIELDS)


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

    Raises :class:`InputError` when the line breaks a rule, a value's range
    included, and :class:`_KeyMismatch` when the key block disagrees with the
    output block.
    """
    obj = loads(line)
    key, out = (obj.get("key"), obj.get("output")) if type(obj) is dict else (None, None)
    if not (type(key) is dict and type(out) is dict and key.keys() >= _KEY_SET
            and out.keys() >= _OUTPUT_SET):
        raise InputError("expected an object whose key and output blocks hold every field")
    identity = _IDENTITY(out)
    label, confidence, source, retry_count, rationale, raw_json = _VALUES(out)
    disclosure_id, lens, model_name, prompt_hash, seed = identity
    created_at = obj.get("created_at")
    for text in (disclosure_id, lens, model_name, prompt_hash, label, source, rationale,
                 raw_json, created_at):
        if not isinstance(text, str):
            raise InputError(f"expected a string, got {text!r}")
    try:
        datetime.fromisoformat(created_at)
    except ValueError:  # how fromisoformat refuses a string
        raise InputError(f"created_at {created_at!r} is not an ISO 8601 time") from None
    if _KEY_IDENTITY(key) != identity:
        raise _KeyMismatch
    # The equality above holds for 42.0 == 42 and True == 1: check the types
    # a put writes.
    if type(seed) is not int or type(key["seed"]) is not int:
        raise InputError("seed must be an integer in both blocks")
    if type(retry_count) is not int or retry_count not in (0, 1):
        raise InputError(f"retry_count must be 0 or 1, got {retry_count!r}")
    code = _LABEL_CODES.get(label)
    if code is None:
        code = int(SentimentLabel.from_string(label))
    if lens not in _LENS_JSON or source not in _SOURCE_BY_VALUE:
        raise InputError(f"unknown lens {lens!r} or confidence source {source!r}")
    confidence = finite_number(confidence)
    source = _SOURCE_BY_VALUE[source]
    if not 0.0 <= confidence <= 1.0 or (source == _FALLBACK_CODE and (code or confidence)):
        raise InputError(
            "confidence outside [0, 1] or a fallback output that is not (neutral, 0.0)"
        )
    return key_digest(disclosure_id, lens, model_name, prompt_hash, seed), (
        disclosure_id, lens, code, confidence, rationale, source,
        model_name, prompt_hash, seed, raw_json, retry_count,
    )


# The table snapshot is a stamped binary file (artifacts.write_stamped) whose
# body is the table's two arrays: the sorted key digests, then the rows.
_SNAPSHOT_MAGIC = b"ensemble-judge cache table 3\n"


def _read_snapshot(path: Path, cache: Path) -> tuple | None:
    """``(covered, digests, table)``: the table of the first ``covered`` bytes
    of ``cache``, viewed in the bytes of the snapshot at ``path``.

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
            or len(body) != n * (DIGEST.itemsize + _ROW.itemsize)
            or os.stat(cache).st_size < covered
            or prefix_sha256(cache, covered) != header["cache_sha256"]
        ):
            return None
        digests = np.frombuffer(body, DIGEST, n)
        table = np.frombuffer(body, _ROW, n, n * DIGEST.itemsize)
        if (digests[1:] <= digests[:-1]).any() or not _valid_values(
            table["label"], table["source"], table["confidence"]
        ).all():
            return None
    except (OSError, LookupError, TypeError, ValueError):
        return None
    return covered, digests, table


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
        # The table: the key digests, sorted, and the row of each.
        self._digests = np.empty(0, dtype=DIGEST)
        self._table = np.empty(0, dtype=_ROW)
        self._end = 0  # file offset just past the last intact line
        self._unterminated = False  # the last intact line lacks its newline
        self._snapshot_path = self.path.with_name(self.path.name + ".table")
        self._covered = 0  # cache bytes the snapshot on disk holds the table of
        self._snapshot_due = False  # a writer whose table is whole
        self._sha256 = None  # a writer's hash of the file it opened empty
        self._reader: BinaryIO | None = None
        self._fh: BinaryIO | None = None
        try:
            if not readonly:
                self._lock()
            if self.path.exists():
                snapshot = _read_snapshot(self._snapshot_path, self.path)
                if snapshot is not None:
                    self._covered, self._digests, self._table = snapshot
                self._load(self._covered)
            if not readonly:
                self._repair_tail()
                self._snapshot_due = True
                self._sha256 = hashlib.sha256() if self._end == 0 else None
        except BaseException:
            self.close()
            raise

    def _load(self, offset: int) -> None:
        """Parse the lines from byte ``offset`` on into the table."""
        added: dict[bytes, int] = {}  # the first line's offset of each key this parse adds
        labels, sources, confidences = [], [], []  # and that line's values
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
                except InputError as exc:
                    if line.endswith(b"\n"):
                        raise CacheCorruptionError(
                            f"{self.path}: corrupted line at byte offset {offset}: {exc}"
                        ) from None
                    # Unterminated final line: a crash artifact, not corruption.
                    import logging  # only a crash tail needs it

                    logging.getLogger(__name__).warning(
                        "%s: dropping truncated final line at byte offset %d", self.path, offset
                    )
                    self._end = offset
                    break
                first = added.get(digest, -1)
                if first < 0 and len(self._digests):
                    (row,) = self.rows([digest]).tolist()
                    first = -1 if row < 0 else int(self._table["offset"][row])
                if first < 0:
                    added[digest] = offset
                    # The payload's label code, source code and confidence.
                    labels.append(payload[2])
                    sources.append(payload[5])
                    confidences.append(payload[3])
                elif self._payload_at(first) != payload:
                    raise CacheIntegrityError(
                        f"{self.path}: conflicting payloads for key "
                        f"({_key_fields(payload)}) at byte offset {offset}"
                    )
                offset += len(line)
            else:
                self._end = offset
                self._unterminated = line[-1:] not in (b"", b"\n")
        if added:  # an empty merge would still copy the table
            offsets = np.fromiter(added.values(), np.int64, len(added))
            self._merge(np.array(list(added), dtype=DIGEST), labels, sources, confidences, offsets)

    def _merge(self, digests: np.ndarray, *columns: Sequence) -> None:
        """Insert the rows of key digests that are not in the table yet, given
        as their ``columns`` in row field order, in their digests' places."""
        order = np.argsort(digests, kind="stable")
        rows = np.empty(len(order), dtype=_ROW)
        for name, column in zip(_ROW.names, columns):
            rows[name] = np.asarray(column)[order]
        at = self._digests.searchsorted(digests[order])
        self._digests = np.insert(self._digests, at, digests[order])
        self._table = np.insert(self._table.view(_RAW_ROW), at, rows.view(_RAW_ROW)).view(_ROW)

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

    def _payload_at(self, offset: int) -> tuple:
        """The payload of the line at byte ``offset``, re-read from the file."""
        try:
            return _parse_line(self._read_line(offset))[1]
        except (_KeyMismatch, InputError) as exc:
            raise CacheCorruptionError(
                f"{self.path}: corrupted line at byte offset {offset}: {exc}"
            ) from None

    def __len__(self) -> int:
        return len(self._digests)

    def rows(self, digests: Sequence[bytes] | np.ndarray) -> np.ndarray:
        """Table row of each key digest (:func:`key_digest`), in order; -1 where
        no key with that digest is stored. A :meth:`put` renumbers the rows."""
        wanted = np.asarray(digests, dtype=DIGEST)
        if not len(self._digests):
            return np.full(wanted.shape, -1, dtype=np.int64)
        at = np.minimum(self._digests.searchsorted(wanted), len(self._digests) - 1)
        return np.where(self._digests[at] == wanted, at, -1)

    def judgments(self, rows: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Label codes (int8, -1/0/+1) and confidences (float64) of the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        return self._table["label"][rows], self._table["confidence"][rows]

    def put(self, block: CacheBlock) -> None:
        """Durably append the rows of ``block`` whose keys are not stored yet,
        with one flush: each row's head and the block's one tail, whose
        ``created_at`` is the time of the put.

        A row whose key is stored, or repeats an earlier row's key, with the
        same payload is skipped; with another payload it is a
        :class:`CacheIntegrityError`, and the block writes nothing.
        """
        if self._fh is None:
            raise CacheIntegrityError(f"{self.path}: store was opened read-only")
        n = len(block.digests)
        if any(len(column) != n for column in block):
            raise ValueError("a cache block's columns must hold one row per key digest")
        bad = np.flatnonzero(~_valid_values(block.labels, block.sources, block.confidences))
        if bad.size:
            raise ValueError(f"cache block row {bad[0]} breaks a cache line's value rules")
        heads = block.heads
        tail = f"{json_text(datetime.now(timezone.utc).isoformat())}}}\n"
        stored = self.rows(block.digests)
        _, first, key = np.unique(block.digests, return_index=True, return_inverse=True)
        first = first[key]  # the first row of each row's key in the block
        new = (stored < 0) & (first == np.arange(n))  # each new key's first row

        def payload(row: int) -> tuple:
            return _parse_line((heads[row] + tail).encode("utf-8", "backslashreplace"))[1]

        # Stored keys and repeats, in block order: the first that differs is refused.
        for i in np.flatnonzero(~new).tolist():
            mine = payload(i)
            earlier = (self._payload_at(int(self._table["offset"][stored[i]])) if stored[i] >= 0
                       else payload(first[i]))
            if mine != earlier:
                raise CacheIntegrityError(
                    f"key already stored with a different payload: {_key_fields(mine)}"
                )
        new = np.flatnonzero(new)
        if not new.size:
            return
        if new.size < n:
            heads = [heads[i] for i in new.tolist()]
        sizes = np.fromiter(map(len, heads), np.int64, len(heads)) + len(tail)
        for start in range(0, len(heads), _LINES_PER_WRITE):
            part = heads[start : start + _LINES_PER_WRITE]
            text = tail.join(part) + tail
            if not text.isascii():  # an offset counts bytes, not characters
                sizes[start : start + len(part)] = [
                    len(head.encode("utf-8", "backslashreplace")) + len(tail) for head in part
                ]
            chunk = text.encode("utf-8", "backslashreplace")
            self._fh.write(chunk)
            if self._sha256 is not None:
                self._sha256.update(chunk)
        self._fh.flush()
        ends = self._end + np.cumsum(sizes)
        values = block.labels[new], block.sources[new], block.confidences[new], ends - sizes
        self._merge(block.digests[new], *values)
        self._end = int(ends[-1])

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
        # A writer that opened the file empty has hashed every byte it holds.
        stamp = self._sha256.hexdigest() if self._sha256 else prefix_sha256(self.path, self._end)
        header = {"rows": len(self._digests), "covered_bytes": self._end, "cache_sha256": stamp}
        # Views, not copies: each is one write of the file.
        write_stamped(
            self._snapshot_path,
            _SNAPSHOT_MAGIC,
            header,
            (memoryview(self._digests), memoryview(self._table)),
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
