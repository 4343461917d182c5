"""Atomic artifact writes and checked JSONL reads."""

import hashlib
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensemble_judge
from ensemble_judge.artifacts import (
    ArtifactError,
    InputError,
    read_jsonl,
    read_stamped,
    write_binary,
)
from ensemble_judge.features import write_feature_file
from tests import oracles


class _Boom(Exception):
    pass


class _BadTarget:
    def __int__(self):
        raise _Boom


def _records_then_crash(records):
    yield from records
    raise _Boom


def _corpus_writes(path):
    records, _ = oracles.generate_corpus(100, 1)
    oracles.write_corpus(records, path)
    return lambda: oracles.write_corpus(_records_then_crash(records[:50]), path)


def _feature_writes(path):
    X = np.zeros((3, 15))
    write_feature_file(path, ["a", "b", "c"], X, [1, 0, 1])
    return lambda: write_feature_file(path, ["a", "b", "c"], X, [0, 1, _BadTarget()])


@pytest.mark.parametrize("writes", [_corpus_writes, _feature_writes])
def test_interrupted_write_keeps_the_previous_file(tmp_path, writes):
    path = tmp_path / "artifact.jsonl"
    interrupted = writes(path)
    before = path.read_bytes()
    with pytest.raises(_Boom):
        interrupted()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.jsonl"]


def test_write_jsonl_round_trips_through_read_jsonl(tmp_path):
    rows = [{"id": "ä", "x": 0.1}, {"id": "b", "x": 2}]
    oracles.write_jsonl(tmp_path / "rows.jsonl", rows)
    assert (tmp_path / "rows.jsonl").read_text(encoding="utf-8").startswith('{"id": "ä"')
    assert list(read_jsonl(tmp_path / "rows.jsonl", dict)) == rows


def _row_id(obj: object) -> object:
    """A line's id; the line must be an object with an ``id`` key."""
    if not isinstance(obj, dict) or "id" not in obj:
        raise InputError(f"expected an object with an id, got {obj!r}")
    return obj["id"]


@pytest.mark.parametrize("bad_line", ["{\"id\": 1", "[1, 2]", "{\"other\": 1}"])
def test_malformed_line_names_file_and_line(tmp_path, bad_line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 0}\n' + bad_line + "\n", encoding="utf-8")
    with pytest.raises(ArtifactError, match=r"rows\.jsonl: line 2: "):
        list(read_jsonl(path, _row_id))


@pytest.mark.parametrize("bad_line, defect", [("[1, 2]", TypeError), ("{\"other\": 1}", KeyError)])
def test_a_defect_in_the_check_is_not_blamed_on_the_line(tmp_path, bad_line, defect):
    """Only an InputError refuses a line: a check that fails by a subscript
    it did not guard is a defect, and its own exception comes through."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": 0}\n' + bad_line + "\n", encoding="utf-8")
    with pytest.raises(defect):
        list(read_jsonl(path, lambda obj: obj["id"]))


def test_read_jsonl_streams_one_line_at_a_time(tmp_path):
    """Each line is decoded, parsed and checked as it is iterated, so a
    caller that stops early never reads the rest."""
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": 0}\n{"id": 1}\nnot json\n')
    rows = read_jsonl(path, lambda obj: obj["id"])
    assert next(rows) == 0 and next(rows) == 1
    with pytest.raises(ArtifactError, match=r"rows\.jsonl: line 3: malformed JSON"):
        next(rows)


class _RowError(ValueError):
    pass


@pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["0xff", "encoded-surrogate"])
def test_a_line_that_is_not_utf8_raises_the_callers_error(tmp_path, bad):
    """Strict UTF-8: a byte that starts no character and a surrogate encoded
    as if it were one are both refused, as the caller's error naming the line."""
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"id": "a"}\n{"id": "b' + bad + b'"}\n')
    with pytest.raises(_RowError, match=r"rows\.jsonl: line 2: .*'utf-8' codec can't decode"):
        list(read_jsonl(path, lambda obj: obj["id"], _RowError))


@pytest.mark.parametrize(
    "value", ['"b\\ud800"', '["b", ["\\udc00"]]', '{"\\ud83d": 1}'], ids=["string", "nested", "key"]
)
def test_a_lone_surrogate_escape_raises_the_callers_error(tmp_path, value):
    """An escape no surrogate pair completes spells text UTF-8 cannot encode:
    refused wherever it sits in the line's value, as the caller's error."""
    path = tmp_path / "rows.jsonl"
    path.write_text('{"id": "\\ud83d\\ude00"}\n{"id": %s}\n' % value)
    rows = read_jsonl(path, lambda obj: obj["id"], _RowError)
    assert next(rows) == "\U0001f600"
    with pytest.raises(_RowError, match=r"rows\.jsonl: line 2: .*surrogates not allowed"):
        next(rows)


def test_write_binary_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """The rename is durable only once the directory holding the new name is."""
    events = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        st = os.fstat(fd)
        events.append(("directory", st.st_ino) if stat.S_ISDIR(st.st_mode) else "file")
        fsync(fd)

    def recording_replace(src, dst):
        events.append("rename")
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    write_binary(tmp_path / "artifact.bin", [b"data"])
    assert events == ["file", "rename", ("directory", tmp_path.stat().st_ino)]


def test_a_stamped_header_nested_past_the_recursion_limit_reads_as_no_sidecar(tmp_path):
    magic = b"test sidecar 1\n"
    body = magic + b"[" * 100_000 + b"]" * 100_000 + b"\n"
    path = tmp_path / "sidecar"
    path.write_bytes(body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")
    assert read_stamped(path, magic) is None


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_write_binary_removes_a_killed_writers_temporary_file(tmp_path):
    target = tmp_path / "model.json"
    dead = tmp_path / f".model.json.{_dead_pid()}.tmp"
    other_target = tmp_path / f".model.jsonl.{_dead_pid()}.tmp"
    for leftover in (dead, other_target):
        leftover.write_bytes(b"half a file")
    write_binary(target, [b"whole"])
    assert target.read_bytes() == b"whole"
    assert not dead.exists()
    assert other_target.exists()  # another target's file


def test_write_binary_leaves_a_running_writers_temporary_file(tmp_path):
    """The test process runs: a writer in another process must not remove
    the temporary file that carries its pid."""
    live = tmp_path / f".model.json.{os.getpid()}.tmp"
    live.write_bytes(b"being written")
    script = (
        "import sys; from ensemble_judge.artifacts import write_binary; "
        "write_binary(sys.argv[1], [b'whole'])"
    )
    src = Path(ensemble_judge.__file__).parents[1]
    subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "model.json")],
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert (tmp_path / "model.json").read_bytes() == b"whole"
    assert live.read_bytes() == b"being written"
