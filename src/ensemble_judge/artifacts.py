"""Atomic artifact writes and checked JSONL reads.

A crash at any instant leaves each artifact either whole-old or whole-new,
and a malformed line of an internal JSONL artifact is one
:class:`ArtifactError` naming the file and line.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")

# One encoder for every line: json.dumps with a non-default option builds a
# new encoder per call.
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)


class ArtifactError(RuntimeError):
    """A stage input on disk is malformed or does not belong to the current run."""


def finite_number(value: object) -> float:
    """A JSON number, an integer too, as a float; ``ValueError`` unless it is finite."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"expected a finite number, got {value!r}")


def finite_numbers(values: object) -> tuple[float, ...]:
    """A JSON array of :func:`finite_number` values."""
    if not isinstance(values, list):
        raise ValueError(f"expected an array of numbers, got {values!r}")
    return tuple(finite_number(v) for v in values)


def write_binary(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with the concatenated ``chunks``, atomically and durably.

    The chunks stream into a temporary file next to ``path``, which is
    fsynced and renamed over it; on any failure the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """:func:`write_binary` of the UTF-8 encoded ``chunks``."""
    write_binary(path, map(str.encode, chunks))  # UTF-8, the default


def json_line(row: dict) -> str:
    """``row`` as one line of JSON, non-ASCII characters kept as they are."""
    return _JSON_LINE.encode(row) + "\n"


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write one JSON object per line, streamed row by row."""
    write_text(path, map(json_line, rows))


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` applied to each line's JSON object, in file order.

    A line that is not JSON, or that ``parse`` rejects with ``KeyError``,
    ``TypeError`` or ``ValueError``, raises :class:`ArtifactError`.
    """
    path = Path(path)
    parsed: list[T] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                parsed.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as exc:
                raise ArtifactError(f"{path}: malformed line {lineno}: {exc!r}") from None
    return parsed
