"""Append-only JSONL cache of agent interactions.

Every (disclosure, agent, model, prompt, seed) combination maps to at most
one immutable record. The file is human-inspectable, crash-tolerant (a
truncated final line is dropped with a warning, and the next writer cuts it
off before appending), and never rewritten in place, so feature building,
training, and evaluation can replay it bit-for-bit without re-querying any
model.

Loading keeps a columnar table, not records: a key -> row index plus each
row's label code, confidence, confidence-source code, and byte offset.
Full :class:`CacheRecord` values (rationale, raw generation) are re-read
from the file only when :meth:`CacheStore.get` asks for one.
"""

from __future__ import annotations

import fcntl
import json
import logging
import os
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, NamedTuple, Sequence

import numpy as np

from .artifacts import json_line
from .domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel

logger = logging.getLogger(__name__)


class CacheIntegrityError(RuntimeError):
    """A key was re-put with a different payload, or the file contradicts itself."""


class CacheCorruptionError(RuntimeError):
    """A non-final line in the store file failed to parse."""


# Confidence-source codes of the table's source column.
_SOURCE_CODES = {source: code for code, source in enumerate(ConfidenceSource)}
_FALLBACK_CODE = _SOURCE_CODES[ConfidenceSource.FALLBACK]

_LENS_BY_VALUE = {lens.value: lens for lens in Lens}
_LABEL_CODES = {label.as_string(): int(label) for label in SentimentLabel}
_SOURCE_BY_VALUE = {source.value: code for source, code in _SOURCE_CODES.items()}


class CacheKey(NamedTuple):
    """The table's row key; a plain tuple of the same fields finds the same row."""

    disclosure_id: str
    lens: Lens
    model_name: str
    prompt_hash: str
    seed: int

    def to_dict(self) -> dict:
        # Field order is fixed so serialized keys hash stably.
        return {**self._asdict(), "lens": self.lens.value}

    @classmethod
    def from_dict(cls, d: dict) -> "CacheKey":
        return cls(
            d["disclosure_id"], Lens(d["lens"]), d["model_name"], d["prompt_hash"], int(d["seed"])
        )

    @classmethod
    def for_output(cls, output: AgentOutput) -> "CacheKey":
        return cls(
            output.disclosure_id, output.agent, output.model_name, output.prompt_hash, output.seed
        )


@dataclass(frozen=True)
class CacheRecord:
    key: CacheKey
    output: AgentOutput
    created_at: datetime

    def to_dict(self) -> dict:
        return {
            "key": self.key.to_dict(),
            "output": self.output.to_dict(),
            "created_at": self.created_at.isoformat(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CacheRecord":
        return cls(
            key=CacheKey.from_dict(d["key"]),
            output=AgentOutput.from_dict(d["output"]),
            created_at=datetime.fromisoformat(d["created_at"]),
        )


def make_record(output: AgentOutput) -> CacheRecord:
    return CacheRecord(
        key=CacheKey.for_output(output),
        output=output,
        created_at=datetime.now(timezone.utc),
    )


class _KeyMismatch(Exception):
    """A line's key block names a different judgment than its output block."""


_IDENTITY = itemgetter("disclosure_id", "agent", "model_name", "prompt_hash", "seed")
_KEY_IDENTITY = itemgetter("disclosure_id", "lens", "model_name", "prompt_hash", "seed")
_VALUES = itemgetter(
    "label", "confidence", "confidence_source", "retry_count", "rationale", "raw_json"
)


def _parse_line(line: bytes) -> tuple[dict, tuple, int, float, int]:
    """One cache line as (output block, key, label code, confidence, source code).

    Raises ValueError, KeyError, TypeError or AttributeError on a malformed
    line and :class:`_KeyMismatch` when the key block disagrees with the
    output block. The confidence range and the fallback rule are checked
    by the caller, on the whole table at once.
    """
    obj = json.loads(line)
    out = obj["output"]
    identity = _IDENTITY(out)
    label, confidence, source, retry_count, _rationale, _raw_json = _VALUES(out)
    datetime.fromisoformat(obj["created_at"])
    if _KEY_IDENTITY(obj["key"]) != identity:
        raise _KeyMismatch
    disclosure_id, lens, model_name, prompt_hash, seed = identity
    code = _LABEL_CODES.get(label)
    if code is None:
        code = int(SentimentLabel.from_string(label))
    if int(retry_count) not in (0, 1):
        raise ValueError(f"retry_count must be 0 or 1, got {retry_count}")
    key = (disclosure_id, _LENS_BY_VALUE[lens], model_name, prompt_hash, int(seed))
    return out, key, code, float(confidence), _SOURCE_BY_VALUE[source]


class CacheStore:
    """Single-writer, multi-reader JSONL store keyed by :class:`CacheKey`.

    A read-only store never opens a write handle, takes no lock and never
    changes the file. A writable store holds an exclusive ``flock`` from
    before it loads until it closes, so a second writer fails instead of
    cutting the first one's half-written line. It first repairs the tail an
    interrupted writer may have left: it cuts a dropped truncated final line
    back to the last line boundary, or terminates a valid final line that
    lacks its newline, so the next append starts on a line of its own.
    """

    def __init__(self, path: str | Path, *, readonly: bool = False):
        self.path = Path(path)
        self._index: dict[CacheKey, int] = {}
        self._labels = array("b")
        self._confidences = array("d")
        self._sources = array("b")
        self._offsets = array("q")
        self._end = 0  # file offset just past the last intact line
        self._unterminated = False  # the last intact line lacks its newline
        self._reader: BinaryIO | None = None
        self._fh: BinaryIO | None = None
        try:
            if not readonly:
                self._lock()
            if self.path.exists():
                self._load()
            if not readonly:
                self._repair_tail()
        except BaseException:
            self.close()
            raise

    def _load(self) -> None:
        index = self._index
        add_label, add_confidence = self._labels.append, self._confidences.append
        add_source, add_offset = self._sources.append, self._offsets.append
        offset = 0
        line = b""
        with self.path.open("rb") as fh:
            for line in fh:
                if line == b"\n":
                    offset += 1
                    continue
                try:
                    out, key, label, confidence, source = _parse_line(line)
                    if not line.endswith(b"\n"):
                        # The final line lacks its newline: check it in full
                        # here, so a cut-off value drops it as a crash tail.
                        AgentOutput.from_dict(out)
                    row = index.get(key)
                    if row is not None:
                        self._check_payload(
                            row,
                            AgentOutput.from_dict(out),
                            f"{self.path}: conflicting payloads for key {key} "
                            f"at byte offset {offset}",
                        )
                        self._offsets[row] = offset  # the later line wins
                        offset += len(line)
                        continue
                except _KeyMismatch:
                    raise CacheIntegrityError(
                        f"{self.path}: key block disagrees with output block "
                        f"at byte offset {offset}"
                    ) from None
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
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
                index[key] = len(index)
                add_label(label)
                add_confidence(confidence)
                add_source(source)
                add_offset(offset)
                offset += len(line)
            else:
                self._end = offset
                self._unterminated = line[-1:] not in (b"", b"\n")
        self._check_values()

    def _check_values(self) -> None:
        """AgentOutput's value checks, applied to the whole table at once."""
        labels = np.array(self._labels, dtype=np.int8)
        conf = np.array(self._confidences, dtype=np.float64)
        sources = np.array(self._sources, dtype=np.int8)
        bad = np.flatnonzero(
            ~((conf >= 0.0) & (conf <= 1.0))
            | ((sources == _FALLBACK_CODE) & ((labels != 0) | (conf != 0.0)))
        )
        if bad.size:
            raise CacheCorruptionError(
                f"{self.path}: corrupted line at byte offset {self._offsets[bad[0]]}: "
                "confidence outside [0, 1] or a fallback output that is not (neutral, 0.0)"
            )

    def _check_payload(self, row: int, output: AgentOutput, message: str) -> None:
        """A repeated key must carry the payload already stored in its row."""
        if self._record_at(row).output != output:
            raise CacheIntegrityError(message)

    def _lock(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("ab")
        try:
            fcntl.flock(self._fh.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise CacheIntegrityError(f"{self.path}: cache locked by another run") from None

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

    def _record_at(self, row: int) -> CacheRecord:
        offset = self._offsets[row]
        try:
            return CacheRecord.from_dict(json.loads(self._read_line(offset)))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise CacheCorruptionError(
                f"{self.path}: corrupted line at byte offset {offset}: {exc}"
            ) from None

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._index

    def rows(self, keys: Iterable[CacheKey]) -> np.ndarray:
        """Table row of each key, in order; -1 where the key is not stored."""
        index = self._index
        return np.fromiter((index.get(k, -1) for k in keys), dtype=np.int64)

    def judgments(self, rows: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Label codes (int8, -1/0/+1) and confidences (float64) of the given rows."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.array(self._labels, dtype=np.int8)[rows]
        confidences = np.array(self._confidences, dtype=np.float64)[rows]
        return labels, confidences

    def get(self, key: CacheKey) -> CacheRecord | None:
        row = self._index.get(key)
        return None if row is None else self._record_at(row)

    def put(self, record: CacheRecord) -> None:
        """Durably append one record; re-putting identical payloads is a no-op."""
        if self._fh is None:
            raise CacheIntegrityError(f"{self.path}: store was opened read-only")
        output = record.output
        key = record.key
        if key != CacheKey.for_output(output):
            raise CacheIntegrityError(f"record key disagrees with its output: {key}")
        row = self._index.get(key)
        if row is not None:
            self._check_payload(row, output, f"key already stored with a different payload: {key}")
            return
        data = json_line(record.to_dict()).encode("utf-8")
        self._fh.write(data)
        self._fh.flush()
        self._index[key] = len(self._offsets)
        self._labels.append(int(output.label))
        self._confidences.append(output.confidence)
        self._sources.append(_SOURCE_CODES[output.confidence_source])
        self._offsets.append(self._end)
        self._end += len(data)

    def sync(self) -> None:
        """fsync the append handle (call on batch boundaries)."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def missing(self, expected: Iterable[CacheKey]) -> list[CacheKey]:
        """Expected keys with no stored record; empty means coverage is complete."""
        index = self._index
        return [key for key in expected if key not in index]

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._fh is not None and not self._fh.closed:
            self.sync()
            self._fh.close()

    def __enter__(self) -> "CacheStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
