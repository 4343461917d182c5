"""The table snapshot next to the cache is only a faster way to the same table.

Whatever happened to the cache or the snapshot, an open that finds a
snapshot must end where a parse of the whole file ends: the same rows,
judgments, records, missing keys and end offset, or the same error.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import store as store_module
from ensemble_judge.artifacts import read_stamped
from ensemble_judge.domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel
from ensemble_judge.store import (
    CacheCorruptionError,
    CacheIntegrityError,
    CacheStore,
)
from tests.conftest import make_output
from tests.oracles import CacheKey, block, cache_line, stored_payload

# Ids with tabs, newlines and non-ASCII characters; a small alphabet makes
# repeated keys likely.
ids = st.text(alphabet=["a", "b", "\t", "\n", "é", "✓"], min_size=1, max_size=3)
outputs = st.builds(
    make_output,
    lens=st.sampled_from(Lens),
    label=st.sampled_from(SentimentLabel),
    confidence=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    disclosure_id=ids,
)
fallbacks = st.builds(
    make_output,
    lens=st.sampled_from(Lens),
    label=st.just(SentimentLabel.NEUTRAL),
    confidence=st.just(0.0),
    disclosure_id=ids,
    source=st.just(ConfidenceSource.FALLBACK),
)
# Distinct keys, each with one payload, so the writer's puts never conflict.
pools = st.lists(
    st.one_of(outputs, fallbacks),
    min_size=1,
    max_size=8,
    unique_by=lambda o: (o.disclosure_id, o.agent),
)
CREATED = datetime(2024, 1, 2, tzinfo=timezone.utc)


class _FrozenClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return CREATED


@pytest.fixture(autouse=True, scope="module")
def _frozen_clock():
    """``put`` stamps CREATED, so the lines it writes are the ones ``_line`` builds."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(store_module, "datetime", _FrozenClock)
        yield


def _line(output: AgentOutput, created: datetime = CREATED) -> bytes:
    return cache_line(output, created)


def _write(path: Path, runs: list[list[AgentOutput]]) -> None:
    """One writer per run; each closes with a snapshot of its table."""
    for run in runs:
        with CacheStore(path) as store:
            for output in run:
                store.put(block([output]))


def _snapshot(path: Path) -> Path:
    return path.with_name(path.name + ".table")


def _covered(path: Path) -> int:
    """The cache bytes the snapshot on disk claims to cover (0 if unreadable)."""
    try:
        return json.loads(_snapshot(path).read_bytes().split(b"\n")[1])["covered_bytes"]
    except (OSError, IndexError, ValueError, KeyError, TypeError):
        return 0


# Writer runs as lists of indices into a pool of outputs.
writer_runs = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=8), min_size=1, max_size=3
)
# Lines another process appends after the writers closed: a copy of a stored
# line, the same payload with a new timestamp, a conflicting payload, a new
# record, or an empty line.
appended = st.lists(
    st.tuples(st.sampled_from(["same", "recreated", "conflict", "new", "blank"]), outputs),
    max_size=3,
)
# Then mutations: ("append", lines), ("cut", where), ("truncate", where),
# ("flip-snapshot", where, bit), ("flip-prefix", where, bit) and
# ("foreign", own pool?, pool, writer runs); a byte position is ``where``
# modulo the size of the range it falls in.
wheres = st.integers(min_value=0, max_value=2**32)
bits = st.integers(min_value=0, max_value=7)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), appended),
        st.tuples(st.just("cut"), wheres),
        st.tuples(st.just("truncate"), wheres),
        st.tuples(st.just("flip-snapshot"), wheres, bits),
        st.tuples(st.just("flip-prefix"), wheres, bits),
        st.tuples(st.just("foreign"), st.booleans(), pools, writer_runs),
    ),
    max_size=2,
)


def _appended_line(kind: str, fresh: AgentOutput, stored: list[AgentOutput]) -> bytes:
    if not stored:
        return _line(fresh)
    stored = stored[len(fresh.disclosure_id) % len(stored)]
    if kind == "same":
        return _line(stored)
    if kind == "recreated":
        return _line(stored, datetime(2025, 6, 7, tzinfo=timezone.utc))
    if kind == "conflict":
        other = next(label for label in SentimentLabel if label is not stored.label)
        return _line(make_output(stored.agent, other, 0.0, stored.disclosure_id))
    if kind == "new":
        return _line(fresh)
    return b"\n"


def _append(path: Path, lines: list[tuple], stored: list[AgentOutput]) -> None:
    with path.open("ab") as fh:
        fh.write(b"".join(_appended_line(kind, fresh, stored) for kind, fresh in lines))


def _mutate(path: Path, mutation: tuple, pool: list[AgentOutput], stored: list[AgentOutput],
            tmpdir: Path) -> None:
    kind = mutation[0]
    data = path.read_bytes()
    if kind == "append":
        _append(path, mutation[1], stored)
    elif kind == "cut":  # at any byte of the last line, the final newline included
        last = data.rstrip(b"\n").rfind(b"\n") + 1
        if len(data) > last:
            path.write_bytes(data[: last + mutation[1] % (len(data) - last)])
    elif kind == "truncate":  # below the bytes the snapshot covers
        if _covered(path):
            path.write_bytes(data[: mutation[1] % _covered(path)])
    elif kind in ("flip-snapshot", "flip-prefix"):
        target = path if kind == "flip-prefix" else _snapshot(path)
        raw = bytearray(_read(target) or b"")
        size = min(_covered(path), len(raw)) if kind == "flip-prefix" else len(raw)
        if size:
            raw[mutation[1] % size] ^= 1 << mutation[2]
            target.write_bytes(bytes(raw))
    elif kind == "foreign":  # another cache's snapshot, copied in
        _, own_pool, other_pool, other_runs = mutation
        source = pool if own_pool else other_pool
        other = Path(tempfile.mkdtemp(dir=tmpdir)) / "cache.jsonl"
        _write(other, [[source[i % len(source)] for i in run] for run in other_runs])
        if _snapshot(other).exists():
            _snapshot(path).write_bytes(_snapshot(other).read_bytes())


def _observe(path: Path, keys: list[CacheKey], readonly: bool, put: AgentOutput | None):
    try:
        with CacheStore(path, readonly=readonly) as store:
            digests = [key.digest() for key in keys]
            rows = store.rows(digests)
            labels, confidences = store.judgments(rows[rows >= 0])
            seen = (
                len(store),
                rows.tolist(),
                labels.tolist(),
                confidences.tolist(),
                [stored_payload(store, key) for key in keys],
                store.missing(digests).tolist(),
                store._end,
                # The whole table, not only what the keys above reach.
                store._digests.tobytes(),
                store._table.tobytes(),
            )
            if put is not None:
                store.put(block([put]))
        return seen
    except (CacheCorruptionError, CacheIntegrityError) as exc:
        return type(exc), str(exc)


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def _restore(path: Path, cache: bytes, snapshot: bytes | None) -> None:
    path.write_bytes(cache)
    _snapshot(path).unlink(missing_ok=True)
    if snapshot is not None:
        _snapshot(path).write_bytes(snapshot)


def _both_ways(path: Path, keys: list[CacheKey], readonly: bool, put: AgentOutput | None):
    """The open as it finds the files, then the open of the same files without
    the snapshot: what each saw, and the cache and snapshot bytes it left.
    The files are put back as they were found."""
    found = path.read_bytes(), _read(_snapshot(path))
    results = []
    for snapshot in (found[1], None):
        _restore(path, found[0], snapshot)
        seen = _observe(path, keys, readonly, put)
        results.append((seen, path.read_bytes(), _read(_snapshot(path))))
    _restore(path, *found)
    return results, found


@given(pool=pools, runs=writer_runs, appends=appended, mutations=mutations, extra=outputs)
@settings(max_examples=150, deadline=None)
def test_snapshot_open_equals_full_parse(pool, runs, appends, mutations, extra):
    with tempfile.TemporaryDirectory() as tmp:
        tmpdir = Path(tmp)
        path = tmpdir / "cache.jsonl"
        puts = [[pool[i % len(pool)] for i in run] for run in runs]
        _write(path, puts)
        stored = [output for run in puts for output in run]
        _append(path, appends, stored)
        for mutation in mutations:
            _mutate(path, mutation, pool, stored, tmpdir)
        keys = [CacheKey.for_output(o) for o in [*pool, extra]]

        (with_snapshot, without), found = _both_ways(path, keys, readonly=True, put=None)
        assert with_snapshot[0] == without[0]
        # A reader neither changes the cache nor creates, changes or deletes a snapshot.
        assert with_snapshot[1:] == found
        assert without[1:] == (found[0], None)

        (with_snapshot, without), _ = _both_ways(path, keys, readonly=False, put=extra)
        assert with_snapshot[0] == without[0]
        assert with_snapshot[1] == without[1]
        if isinstance(with_snapshot[0][0], int):
            # A writer leaves the snapshot that a writer without one would write.
            assert with_snapshot[2] == without[2]


def test_every_flipped_snapshot_byte_gives_the_full_parse(tmp_path):
    path = tmp_path / "cache.jsonl"
    outputs = [
        make_output(lens, label, 0.25 * (i + 1), "d\t✓")
        for i, (lens, label) in enumerate(zip(Lens, SentimentLabel))
    ]
    _write(path, [outputs])
    keys = [CacheKey.for_output(o) for o in outputs]
    with CacheStore(path, readonly=True) as store:
        assert store._covered == path.stat().st_size  # the intact snapshot is used
    snapshot = _snapshot(path).read_bytes()
    _snapshot(path).unlink()
    expected = _observe(path, keys, readonly=True, put=None)
    for position in range(len(snapshot)):
        flipped = bytearray(snapshot)
        flipped[position] ^= 1
        _snapshot(path).write_bytes(bytes(flipped))
        assert _observe(path, keys, readonly=True, put=None) == expected, position


@pytest.mark.parametrize("confidence", [1.5, float("nan")])
def test_a_restamped_snapshot_with_a_bad_value_gives_the_full_parse(tmp_path, confidence):
    """A snapshot that covers a bad line is ignored, so the line is named."""
    path = tmp_path / "cache.jsonl"
    outputs = [make_output(lens, SentimentLabel.POSITIVE, 0.5, "d1") for lens in Lens]
    _write(path, [outputs])
    data = path.read_bytes()
    second = data.index(b"\n") + 1
    bad = data[second:].replace(b'"confidence": 0.5', b'"confidence": 1.5', 1)
    with CacheStore(path, readonly=True) as store:
        # Edit line 2 in place, then stamp a snapshot of the edited cache
        # whose row for that line holds a bad value too. The opened table is
        # a read-only view of the snapshot, so the edit is made on a copy.
        path.write_bytes(data[:second] + bad)
        store._table = store._table.copy()
        store._table["confidence"][store._table["offset"] == second] = confidence
        store._write_snapshot()
    errors = []
    for _ in ("with the snapshot", "without it"):
        with pytest.raises(CacheCorruptionError) as raised:
            CacheStore(path, readonly=True)  # the open alone: a lookup would re-read the line
        errors.append(str(raised.value))
        _snapshot(path).unlink(missing_ok=True)
    assert errors == 2 * [
        f"{path}: corrupted line at byte offset {second}: "
        "confidence outside [0, 1] or a fallback output that is not (neutral, 0.0)"
    ]


def _large_cache(path: Path, n: int) -> None:
    """A cache of ``n`` judgments of one lens, appended by one put, and its snapshot."""
    ids = [f"d{i}" for i in range(n)]
    lens, model, prompt = Lens.RISK.value, "m", "0" * 64
    with CacheStore(path) as store:
        store.put(store_module.CacheBlock(
            np.array([store_module.key_digest(rid, lens, model, prompt, 42) for rid in ids],
                     dtype=store_module.DIGEST),
            np.ones(n, np.int8),
            np.full(n, store_module.SOURCE_CODES[ConfidenceSource.SELF_REPORTED], np.int8),
            np.full(n, 0.5),
            [
                store_module.line_head(
                    json.dumps(rid), json.dumps(lens), '"positive"', "0.5", '""',
                    '"self_reported"', json.dumps(model), json.dumps(prompt), "42", '"{}"', "0",
                )
                for rid in ids
            ],
        ))


def test_a_read_only_open_holds_the_snapshot_once(tmp_path):
    """The table is viewed in the snapshot's bytes, not copied out of them."""
    path = tmp_path / "cache.jsonl"
    _large_cache(path, 40_000)
    size = _snapshot(path).stat().st_size
    tracemalloc.start()
    try:
        with CacheStore(path, readonly=True) as store:
            _, peak = tracemalloc.get_traced_memory()
            assert store._covered == path.stat().st_size  # the snapshot was used
            assert len(store) == 40_000
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * size


def test_a_repeated_key_keeps_its_first_line_whichever_way_the_table_is_built(tmp_path):
    """A key repeated with an equal payload keeps its first line's offset, so
    the snapshot's table, a snapshot plus a parse of the lines past it, and a
    full parse are the same bytes."""
    path = tmp_path / "cache.jsonl"
    first, second, third = (make_output(lens, SentimentLabel.POSITIVE, 0.5, "d1") for lens in Lens)
    path.write_bytes(_line(first) + _line(second))
    with CacheStore(path):
        pass  # a snapshot of the two lines
    with path.open("ab") as fh:
        fh.write(_line(first, datetime(2025, 6, 7, tzinfo=timezone.utc)) + _line(third))

    def table():
        with CacheStore(path, readonly=True) as store:
            (row,) = store.rows([CacheKey.for_output(first).digest()]).tolist()
            assert store._table["offset"][row] == 0
            return store._covered, store._digests.tobytes(), store._table.tobytes()

    tail_parsed = table()
    with CacheStore(path):
        pass  # a snapshot that covers the repeat
    covered = table()
    _snapshot(path).unlink()
    parsed = table()
    assert tail_parsed[0] < covered[0] == path.stat().st_size and parsed[0] == 0
    assert tail_parsed[1:] == covered[1:] == parsed[1:]


def _stamp(path: Path) -> str:
    header, _ = read_stamped(_snapshot(path), store_module._SNAPSHOT_MAGIC)
    return header["cache_sha256"]


def test_every_writer_stamps_the_sha256_of_the_bytes_it_covers(tmp_path):
    """A writer that opens the file empty hashes its puts as it appends them;
    one that opens it holding lines re-reads them. Either stamp is the
    file's sha256."""
    path = tmp_path / "cache.jsonl"
    outputs = [make_output(lens, disclosure_id=f"d{i}") for i in range(4) for lens in Lens]
    for run in (outputs[:7], outputs[7:]):
        with CacheStore(path) as store:
            for start in range(0, len(run), 3):
                store.put(block(run[start : start + 3]))
        assert _stamp(path) == hashlib.sha256(path.read_bytes()).hexdigest()
    # A file whose one line a crash cut short is empty once the writer opens it.
    path.write_bytes(_line(outputs[0])[:-5])
    _snapshot(path).unlink()
    with CacheStore(path) as store:
        store.put(block(outputs[:2]))
    assert _stamp(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_a_fresh_writer_stamps_its_snapshot_without_reading_the_cache_back(
    tmp_path, monkeypatch
):
    read_back = []
    monkeypatch.setattr(store_module, "prefix_sha256", lambda *args: read_back.append(args))
    path = tmp_path / "cache.jsonl"
    with CacheStore(path) as store:
        for i in range(3):
            store.put(block([make_output(lens, disclosure_id=f"d{i}") for lens in Lens]))
    assert _snapshot(path).exists() and read_back == []
