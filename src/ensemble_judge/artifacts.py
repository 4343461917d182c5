"""Refusals, atomic artifact writes and checked JSONL reads.

A :class:`Refusal` is raised on purpose by the check that finds an input
that does not belong to the run, and carries the CLI's exit code.
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
import tempfile
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")

_DIGEST_LINE_BYTES = 65  # 64 hex digits and a newline
_BLOCK = 1 << 16  # bytes per hashed block of a file: small, so hashing costs little memory

# One encoder for every line: json.dumps with a non-default option builds a
# new encoder per call.
_JSON_LINE = json.JSONEncoder(ensure_ascii=False)


class Refusal(Exception):
    """An input refused on purpose: the CLI prints the message as one
    ``error:`` line and exits with ``exit_code``."""

    exit_code = 1


class InputError(Refusal, ValueError):
    """A value from outside the program breaks a rule: a config key, a
    command-line argument, a corpus line, a field of a stage's file."""


class MissingArtifactError(Refusal):
    """A prerequisite stage output does not exist yet."""

    exit_code = 2


class ArtifactError(Refusal):
    """A stage input on disk is malformed or does not belong to the current run."""

    exit_code = 3


def finite_number(value: object) -> float:
    """A JSON number, an integer too, as a float; :class:`InputError` unless it is finite."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise InputError(f"expected a finite number, got {value!r}")


def finite_numbers(values: object) -> tuple[float, ...]:
    """A JSON array of :func:`finite_number` values."""
    if not isinstance(values, list):
        raise InputError(f"expected an array of numbers, got {values!r}")
    return tuple(map(finite_number, values))


def loads(data: bytes) -> object:
    """The JSON value of ``data`` decoded as strict UTF-8 (on bytes, ``json.loads``
    lets an encoded surrogate in); :class:`InputError` for whatever the decoder
    refuses, an integer past the digit limit and deep nesting included."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON ({exc})") from None


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


def spool(directory: str | Path) -> BinaryIO:
    """A temporary file for bytes a stage writes and reads back before they go
    to an artifact in ``directory``; it has no name, so it disappears when
    closed or when the process dies. It is made in the nearest existing of
    ``directory`` and its ancestors, so a refused stage leaves no directory."""
    directory = Path(directory).absolute()
    while not directory.is_dir():
        directory = directory.parent
    return tempfile.TemporaryFile(dir=directory)


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
        for chunk in chain((magic, json.dumps(header).encode("ascii") + b"\n"), chunks):
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
        header = loads(data[len(magic) : end].tobytes())
    except InputError:
        return None
    if not isinstance(header, dict):
        return None
    return header, data[end + 1 : covered]


def write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """:func:`write_binary` of the UTF-8 encoded ``chunks``."""
    write_binary(path, map(str.encode, chunks))  # UTF-8, the default


def json_line(row: dict) -> str:
    """``row`` as one JSON object, non-ASCII kept as is, ending in a newline."""
    return _JSON_LINE.encode(row) + "\n"


def json_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The :func:`json_line` of each row."""
    return map(json_line, rows)


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
    path: str | Path, parse: Callable[[object], T], error: type[Refusal] = ArtifactError
) -> Iterator[T]:
    """``parse`` applied to each line's JSON value, in file order, as the
    lines are iterated. A line that :func:`loads` refuses, that holds a lone
    surrogate escape, or that ``parse`` refuses with an :class:`InputError`
    raises ``error`` naming the file and line; any other exception from
    ``parse`` is a defect, and propagates as it is.
    """
    path = Path(path)
    with path.open("rb") as fh:
        yield from parse_lines(path, fh, 1, parse, error)


def parse_lines(
    path: Path, lines: Iterable[bytes], start: int, parse: Callable[[object], T],
    error: type[Refusal],
) -> Iterator[T]:
    """:func:`read_jsonl`'s values of ``lines`` of ``path``, the first of
    them line ``start``."""
    for lineno, line in enumerate(lines, start):
        try:
            obj = loads(line)
            if b"\\u" in line:  # strict UTF-8 holds no surrogate; only an escape spells one
                _encode_strings(obj)
            value = parse(obj)
        except (InputError, UnicodeError) as exc:
            raise error(f"{path}: line {lineno}: {exc}") from None
        yield value
