"""Atomic artifact writes and checked JSONL reads.

A crash at any instant leaves each artifact either whole-old or whole-new,
and a JSONL line that is not UTF-8, not JSON or breaks its reader's rules
is one error naming the file and line. Derived binary sidecars
(the cache's table snapshot, the prepared key table) share one stamped
layout, written by :func:`write_stamped` and checked by :func:`read_stamped`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

_DIGEST_LINE_BYTES = 65  # 64 hex digits and a newline
_BLOCK = 1 << 16  # bytes per hashed block of a file: small, so hashing costs little memory

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
    return tuple(map(finite_number, values))


def prefix_sha256(path: str | Path, size: int) -> str:
    """sha256 of the first ``size`` bytes of ``path``."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while size > 0:
            block = fh.read(min(size, _BLOCK))
            if not block:
                break
            digest.update(block)
            size -= len(block)
    return digest.hexdigest()


def write_binary(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path`` with the concatenated ``chunks``, atomically and durably.

    The chunks stream into a temporary file next to ``path``, which is
    fsynced and renamed over it; on any failure the temporary file is removed.
    A temporary file of ``path`` left by a writer that was killed (its pid
    no longer runs) is removed first.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    prefix = f".{path.name}."
    for entry in os.scandir(path.parent):
        pid = entry.name[len(prefix) : -len(".tmp")]
        if entry.name.startswith(prefix) and entry.name.endswith(".tmp") and pid.isdecimal():
            try:
                os.kill(int(pid), 0)
            except ProcessLookupError:
                Path(entry.path).unlink(missing_ok=True)
            except (OSError, OverflowError):  # alive under another user, or no pid at all
                pass
    tmp = path.with_name(f"{prefix}{os.getpid()}.tmp")
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
    fsync_dir(path.parent)


def fsync_dir(path: str | Path) -> None:
    """fsync the directory ``path``, so a name just created or renamed in it
    survives a power cut."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_stamped(path: str | Path, magic: bytes, header: dict, chunks: Iterable[bytes]) -> None:
    """:func:`write_binary` of a derived file: the ``magic`` line (it names the
    format and its version), ``header`` as one JSON line, the ``chunks``, and
    a last line with the sha256 of everything before it."""
    digest = hashlib.sha256()

    def stamped() -> Iterator[bytes]:
        for chunk in (magic, json.dumps(header).encode("ascii") + b"\n", *chunks):
            digest.update(chunk)
            yield chunk
        yield digest.hexdigest().encode("ascii") + b"\n"

    write_binary(path, stamped())


def read_stamped(path: str | Path, magic: bytes) -> tuple[dict, memoryview] | None:
    """The header and the body (the bytes after the header line) of a
    :func:`write_stamped` file.

    None when the file is missing or unreadable, starts with another magic
    line, fails its sha256 line or has no JSON object as its header.
    """
    try:
        data = memoryview(Path(path).read_bytes())
    except OSError:
        return None
    covered = len(data) - _DIGEST_LINE_BYTES
    if (
        covered < len(magic)
        or data[: len(magic)] != magic
        or data[covered:] != hashlib.sha256(data[:covered]).hexdigest().encode("ascii") + b"\n"
    ):
        return None
    end = data.obj.find(b"\n", len(magic), covered)
    if end < 0:
        return None
    try:
        header = json.loads(data[len(magic) : end].tobytes().decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not isinstance(header, dict):
        return None
    return header, data[end + 1 : covered]


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """:func:`write_binary` of the UTF-8 encoded ``chunks``."""
    write_binary(path, map(str.encode, chunks))  # UTF-8, the default


def json_lines(rows: Iterable[dict]) -> Iterator[str]:
    """One JSON object per line, non-ASCII kept as is, each ending in a newline."""
    return (_JSON_LINE.encode(row) + "\n" for row in rows)


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write :func:`json_lines` of ``rows``, streamed row by row."""
    write_text(path, json_lines(rows))


def _encode_strings(value: object) -> None:
    """Encode each string of a JSON value, keys included, as strict UTF-8."""
    if isinstance(value, str):
        value.encode()  # UnicodeEncodeError on a lone surrogate
    elif isinstance(value, (dict, list)):
        for item in (*value, *value.values()) if isinstance(value, dict) else value:
            _encode_strings(item)


def read_jsonl(
    path: str | Path, parse: Callable[[object], T], error: type[Exception] = ArtifactError
) -> Iterator[T]:
    """``parse`` applied to each line's JSON value, in file order, as the
    lines are iterated. Each line is decoded as strict UTF-8 and parsed in
    the same check as ``parse``: a line that is not UTF-8 (an encoded
    surrogate or a lone surrogate escape included), not JSON (nested past
    the recursion limit too) or that ``parse`` rejects with ``KeyError``,
    ``TypeError`` or ``ValueError`` raises ``error`` naming the file and line.
    """
    path = Path(path)
    with path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                obj = json.loads(text)
                if "\\u" in text:  # strict UTF-8 holds no surrogate; only an escape spells one
                    _encode_strings(obj)
                value = parse(obj)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise error(f"{path}: line {lineno}: malformed JSON ({exc})") from None
            except (KeyError, TypeError, ValueError) as exc:
                raise error(f"{path}: line {lineno}: {exc}") from None
            yield value
