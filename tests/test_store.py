import dataclasses
import json
import logging
import os
import random
import re
import stat
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import store as store_module
from ensemble_judge.domain import AgentOutput, ConfidenceSource, Lens, SentimentLabel
from ensemble_judge.store import (
    CacheCorruptionError,
    CacheIntegrityError,
    CacheStore,
    _parse_line,
)
from tests.conftest import make_output
from tests.oracles import (
    CacheKey,
    block,
    cache_line,
    line_to_dict,
    payload,
    prompt_hash,
    stored_payload,
)


def digests(keys):
    return [key.digest() for key in keys]


def stored(store, output):
    """The payload ``store`` holds under ``output``'s key, or None."""
    return stored_payload(store, CacheKey.for_output(output))


def key_for(i=0, lens=Lens.PERFORMANCE):
    return CacheKey(
        disclosure_id=f"d{i}",
        lens=lens,
        model_name="test-model",
        prompt_hash="0" * 64,
        seed=42,
    )


CREATED = datetime(2026, 1, 2, tzinfo=timezone.utc)


def output_for(i=0, lens=Lens.PERFORMANCE, label=SentimentLabel.POSITIVE):
    return make_output(lens=lens, label=label, disclosure_id=f"d{i}")


class TestPutGet:
    def test_round_trip(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            output = output_for()
            store.put(block([output]))
            assert stored(store, output) == payload(output)

    def test_absent_key(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            assert stored_payload(store, key_for(99)) is None

    def test_idempotent_duplicate_is_noop(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            output = output_for()
            store.put(block([output]))
            size = path.stat().st_size
            store.put(block([output]))
            assert path.stat().st_size == size
            assert len(store) == 1

    def test_conflicting_payload_is_integrity_error(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            store.put(block([output_for(label=SentimentLabel.POSITIVE)]))
            with pytest.raises(CacheIntegrityError, match="disclosure_id='d0', lens='performance'"):
                store.put(block([output_for(label=SentimentLabel.NEGATIVE)]))

    def test_a_block_with_a_conflict_writes_nothing(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
            before = path.read_bytes()
            for conflicting in (
                [output_for(1), output_for(0, label=SentimentLabel.NEGATIVE)],
                [output_for(1), output_for(1, label=SentimentLabel.NEGATIVE)],
            ):
                with pytest.raises(
                    CacheIntegrityError, match="different payload: disclosure_id='d[01]'"
                ):
                    store.put(block(conflicting))
                assert path.read_bytes() == before
                assert len(store) == 1

    def test_repeats_inside_a_block_are_written_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        outputs = [output_for(0), output_for(1), output_for(0), output_for(1)]
        with CacheStore(path) as store:
            store.put(block(outputs))
            assert len(store) == 2
        lines = path.read_bytes().splitlines(keepends=True)
        created = {json.loads(line)["created_at"] for line in lines}
        assert len(created) == 1  # one stamp per block
        assert lines == [cache_line(o, datetime.fromisoformat(*created)) for o in outputs[:2]]

    def test_a_mixed_block_appends_and_refuses_row_by_row(self, tmp_path):
        """New rows, rows already stored, and rows that repeat an earlier row of
        the block with its payload or another: the new keys' first rows are
        appended in block order, and the first row in block order whose payload
        differs is the one refused."""
        path = tmp_path / "cache.jsonl"
        negative = SentimentLabel.NEGATIVE
        with CacheStore(path) as store:
            store.put(block([output_for(0), output_for(1)]))
            before = path.read_bytes()
            new = [output_for(2), output_for(3), output_for(4)]
            store.put(block([new[0], output_for(0), new[1], new[0], output_for(1), new[2], new[1]]))
            appended = path.read_bytes()[len(before):]
            created = datetime.fromisoformat(json.loads(appended.splitlines()[0])["created_at"])
            assert appended == b"".join(cache_line(o, created) for o in new)
            assert len(store) == 5
            for refused, named in (
                ([output_for(5), output_for(0), output_for(5), output_for(6),
                  output_for(6, label=negative), output_for(1, label=negative)], "d6"),
                ([output_for(5), output_for(1, label=negative), output_for(5, label=negative)],
                 "d1"),
            ):
                with pytest.raises(CacheIntegrityError) as exc:
                    store.put(block(refused))
                o = output_for(int(named[1:]))
                assert str(exc.value) == (
                    f"key already stored with a different payload: disclosure_id={named!r}, "
                    f"lens='performance', model_name={o.model_name!r}, "
                    f"prompt_hash={o.prompt_hash!r}, seed={o.seed!r}"
                )
                assert path.read_bytes() == before + appended and len(store) == 5

    def test_new_keys_around_every_stored_digest_land_where_per_pair_puts_put_them(
        self, tmp_path, monkeypatch
    ):
        """A block whose new keys sort before, between and after every stored
        digest, mixed with stored keys and repeats of both: the table and the
        file equal those of one put per pair."""

        class Fixed(datetime):
            @classmethod
            def now(cls, tz=None):
                return CREATED

        monkeypatch.setattr(store_module, "datetime", Fixed)
        outputs = sorted((output_for(i) for i in range(40)),
                         key=lambda o: CacheKey.for_output(o).digest())
        stored_first = outputs[1::3]  # each gap between them holds two new keys
        mixed = [*outputs, *stored_first[::2], *outputs[::5]]
        random.Random(0).shuffle(mixed)
        states = []
        for name, puts in (("per-pair", [[o] for o in stored_first + mixed]),
                           ("blocks", [stored_first, mixed])):
            with CacheStore(tmp_path / f"{name}.jsonl") as store:
                for outputs_of_block in puts:
                    store.put(block(outputs_of_block))
                assert len(store) == len(outputs)
                states.append((store._digests.tobytes(), store._table.tobytes(),
                               (tmp_path / f"{name}.jsonl").read_bytes()))
        assert states[0] == states[1]

    @pytest.mark.parametrize(
        "column, value",
        [
            ("labels", 2),
            ("confidences", 1.5),
            ("confidences", float("nan")),
            ("sources", 3),
            ("retry_counts", 2),
        ],
    )
    def test_a_block_value_that_breaks_a_rule_is_refused(self, tmp_path, column, value):
        path = tmp_path / "cache.jsonl"
        outputs = [output_for(0), output_for(1)]
        good = block(outputs)
        with CacheStore(path) as store:
            with pytest.raises(ValueError, match="row 1 breaks"):
                if column == "retry_counts":
                    # Only the head holds it: refused as the head is rendered,
                    # where AgentOutput's own check is bypassed.
                    object.__setattr__(outputs[1], "retry_count", value)
                    store.put(block(outputs))
                else:
                    bad = good._replace(**{column: getattr(good, column).copy()})
                    getattr(bad, column)[1] = value
                    store.put(bad)
            for short in ("heads", "confidences"):
                with pytest.raises(ValueError, match="one row per key digest"):
                    store.put(good._replace(**{short: getattr(good, short)[:1]}))
            assert len(store) == 0
        assert not path.exists()

    def test_non_ascii_heads_land_their_offsets_on_line_starts(self, tmp_path, monkeypatch):
        """A chunk that is not ASCII counts each line's bytes: every row's
        offset is its line's start, in chunks of either kind, so a later
        conflicting put re-reads the stored line and names its key."""
        monkeypatch.setattr(store_module, "_LINES_PER_WRITE", 2)
        ids = ["d-a", "d-é", "d-b", "d-c", 'd-"✓"', "d-\\", "d-\ud800", "d-e"]
        outputs = [
            dataclasses.replace(output_for(), disclosure_id=rid, rationale=f"{rid} — ok")
            for rid in ids
        ]
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block(outputs))
            data = path.read_bytes()
            starts = [0, *(at + 1 for at, byte in enumerate(data[:-1]) if byte == ord("\n"))]
            rows = store.rows(digests(map(CacheKey.for_output, outputs)))
            assert store._table["offset"][rows].tolist() == starts
            assert [stored(store, o) for o in outputs] == [payload(o) for o in outputs]
            negative = SentimentLabel.NEGATIVE
            for rid in ("d-é", "d-\ud800", "d-e"):
                changed = dataclasses.replace(outputs[ids.index(rid)], label=negative)
                with pytest.raises(CacheIntegrityError) as exc:
                    store.put(block([output_for(9), changed]))
                assert f"disclosure_id={rid!r}," in str(exc.value)
            assert path.read_bytes() == data and len(store) == len(ids)

    def test_append_only_file_growth(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sizes = []
        with CacheStore(path) as store:
            for i in range(5):
                store.put(block([output_for(i)]))
                sizes.append(path.stat().st_size)
        assert sizes == sorted(sizes)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestPersistence:
    def test_reload_sees_all_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            for i in range(3):
                store.put(block([output_for(i)]))
        with CacheStore(path) as store:
            assert len(store) == 3
            assert stored(store, output_for(1)) == payload(output_for(1))

    def test_truncated_final_line_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            for i in range(3):
                store.put(block([output_for(i)]))
        raw = path.read_bytes()
        path.write_bytes(raw[:-25])  # chop inside the final record
        with caplog.at_level(logging.WARNING):
            with CacheStore(path) as store:
                assert len(store) == 2
        assert any("truncated final line" in m for m in caplog.messages)

    def test_corrupted_middle_line_names_byte_offset(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
            offset = path.stat().st_size
            store.put(block([output_for(1)]))
        data = path.read_bytes().splitlines(keepends=True)
        data[1] = b'{"key": garbage}\n'
        path.write_bytes(b"".join(data))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {offset}"):
            CacheStore(path)

    def test_valid_unterminated_final_line_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with CacheStore(path) as store:
            assert len(store) == 1


class TestCoverage:
    def test_full_cache_has_no_missing(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            outputs = [output_for(i, lens) for i in range(10) for lens in Lens]
            for output in outputs:
                store.put(block([output]))
            assert store.missing(digests(map(CacheKey.for_output, outputs))).tolist() == []

    def test_single_gap_reported(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            outputs = [output_for(i, lens) for i in range(10) for lens in Lens]
            for output in outputs[1:]:
                store.put(block([output]))
            missing = store.missing(digests(map(CacheKey.for_output, outputs)))
            assert missing.tolist() == [0]

    def test_prompt_change_invalidates_everything(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            outputs = [output_for(i) for i in range(4)]
            for output in outputs:
                store.put(block([output]))
            changed = [
                CacheKey(
                    disclosure_id=k.disclosure_id,
                    lens=k.lens,
                    model_name=k.model_name,
                    prompt_hash="f" * 64,
                    seed=k.seed,
                )
                for k in map(CacheKey.for_output, outputs)
            ]
            assert len(store.missing(digests(changed))) == 4


class TestSerialization:
    def test_key_field_order_is_stable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
        line = json.loads(path.read_text().splitlines()[0])
        assert list(line) == ["key", "output", "created_at"]
        assert list(line["key"]) == ["disclosure_id", "lens", "model_name", "prompt_hash", "seed"]

    def test_record_round_trip(self):
        output = output_for(7, Lens.RISK, SentimentLabel.NEGATIVE)
        line = cache_line(output, CREATED)
        assert _parse_line(line) == (CacheKey.for_output(output).digest(), payload(output))


def _line_of(output, **output_changes):
    d = line_to_dict(output, CREATED)
    d["output"].update(output_changes)
    return (json.dumps(d) + "\n").encode("utf-8")


class TestCrashTailRepair:
    def _three_records(self, path):
        with CacheStore(path) as store:
            for i in range(3):
                store.put(block([output_for(i)]))
        return path.read_bytes()

    def test_resume_after_truncated_tail(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        path.write_bytes(raw[:-25])
        with CacheStore(path) as store:
            assert len(store) == 2
            store.put(block([output_for(2)]))
            store.put(block([output_for(3)]))
        with CacheStore(path) as store:
            assert len(store) == 4
        two_lines = raw[: raw.rstrip(b"\n").rfind(b"\n") + 1]
        assert path.read_bytes().startswith(two_lines)
        assert len(path.read_bytes().splitlines()) == 4

    def test_resume_after_missing_final_newline(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        path.write_bytes(raw[:-1])
        with CacheStore(path) as store:
            assert len(store) == 3
            store.put(block([output_for(3)]))
            store.put(block([output_for(4)]))
        with CacheStore(path) as store:
            assert len(store) == 5
            assert stored(store, output_for(2)) == payload(output_for(2))
        assert path.read_bytes().startswith(raw)

    def test_resume_after_a_cut_at_every_byte_of_the_last_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start, len(raw)):
            path.write_bytes(raw[:cut])
            with CacheStore(path) as store:
                store.put(block([output_for(2)]))
                store.put(block([output_for(3)]))
            with CacheStore(path, readonly=True) as store:
                assert len(store) == 4, cut
                for i in range(4):
                    assert stored(store, output_for(i)) == payload(output_for(i))
            assert path.read_bytes().startswith(raw[:last_start])

    def test_reader_never_modifies_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        listing = sorted(os.listdir(tmp_path))
        snapshot = path.with_name("cache.jsonl.table").read_bytes()
        for damaged in (raw[:-25], raw[:-1]):
            path.write_bytes(damaged)
            with CacheStore(path, readonly=True) as store:
                assert len(store) == (2 if damaged == raw[:-25] else 3)
                with pytest.raises(CacheIntegrityError, match="read-only"):
                    store.put(block([output_for(5)]))
            assert path.read_bytes() == damaged
            assert sorted(os.listdir(tmp_path)) == listing
            assert path.with_name("cache.jsonl.table").read_bytes() == snapshot

    def test_bad_value_on_unterminated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        path.write_bytes(raw + _line_of(output_for(3), confidence=1.5).rstrip(b"\n"))
        with CacheStore(path) as store:
            assert len(store) == 3
        assert path.read_bytes() == raw


class TestLineChecks:
    def test_key_block_must_agree_with_output_block(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = line_to_dict(output_for(0), CREATED)
        bad = line_to_dict(output_for(1), CREATED)
        bad["key"]["disclosure_id"] = "d7"
        first = (json.dumps(good) + "\n").encode()
        path.write_bytes(first + (json.dumps(bad) + "\n").encode())
        with pytest.raises(CacheIntegrityError, match=f"byte offset {len(first)}"):
            CacheStore(path, readonly=True)

    def test_conflicting_lines_name_the_key_and_the_byte_offset(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = _line_of(output_for(0))
        path.write_bytes(first + _line_of(output_for(0), label="negative"))
        key = (
            "disclosure_id='d0', lens='performance', model_name='test-model', "
            f"prompt_hash='{'0' * 64}', seed=42"
        )
        with pytest.raises(CacheIntegrityError, match=rf"\({key}\) at byte offset {len(first)}$"):
            CacheStore(path, readonly=True)

    @pytest.mark.parametrize(
        "changes",
        [
            {"confidence": 1.5},
            {"confidence": -0.1},
            {"confidence_source": "fallback", "label": "positive", "confidence": 0.0},
            {"confidence_source": "fallback", "label": "neutral", "confidence": 0.3},
            {"retry_count": 2},
            {"label": "bullish"},
            {"seed": 42.0},
            {"retry_count": True},
            {"retry_count": 0.0},
            {"confidence": "0.8"},
            {"confidence": True},
            {"rationale": None},
            {"raw_json": 5},
        ],
    )
    def test_bad_output_value_names_byte_offset(self, tmp_path, changes):
        path = tmp_path / "cache.jsonl"
        first = _line_of(output_for(0))
        path.write_bytes(first + _line_of(output_for(1), **changes) + _line_of(output_for(2)))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {len(first)}"):
            CacheStore(path, readonly=True)

    def test_the_first_of_several_bad_lines_is_named(self, tmp_path):
        """A value rule is checked as its line is read, not after the whole file."""
        path = tmp_path / "cache.jsonl"
        lines = [_line_of(output_for(i)) for i in range(5)]
        lines[1] = _line_of(output_for(1), confidence=1.5)
        lines[3] = b'{"key": garbage}\n'
        path.write_bytes(b"".join(lines))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {len(lines[0])}: confidence"):
            CacheStore(path, readonly=True)

    @pytest.mark.parametrize(
        "key_changes, output_changes",
        [
            ({"seed": 42.25}, {"seed": 42.25}),
            ({"seed": 42.0}, {}),
            ({"model_name": 5}, {"model_name": 5}),
        ],
        ids=["seed-float-both-blocks", "seed-integral-float-in-key", "model-name-number"],
    )
    def test_key_value_of_the_wrong_json_type_names_byte_offset(
        self, tmp_path, key_changes, output_changes
    ):
        """The key block must agree with the output block, but 42.0 == 42."""
        path = tmp_path / "cache.jsonl"
        first = _line_of(output_for(0))
        bad = line_to_dict(output_for(1), CREATED)
        bad["key"].update(key_changes)
        bad["output"].update(output_changes)
        path.write_bytes(first + (json.dumps(bad) + "\n").encode() + _line_of(output_for(2)))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {len(first)}"):
            CacheStore(path, readonly=True)

class TestTable:
    def test_rows_and_judgments_follow_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        labels = [SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE]
        outputs = [
            make_output(lens=lens, label=label, confidence=0.1 * (i + 1), disclosure_id="d0")
            for i, (lens, label) in enumerate(zip(Lens, labels))
        ]
        with CacheStore(path) as store:
            for output in outputs:
                store.put(block([output]))
        with CacheStore(path, readonly=True) as store:
            keys = [CacheKey.for_output(outputs[2]), key_for(9), CacheKey.for_output(outputs[0])]
            rows = store.rows(digests(keys))
            # Rows are numbered in the order of the key digests, not the file's.
            assert rows.tolist() == [0, -1, 1]
            got_labels, got_conf = store.judgments(rows[[0, 2]])
            assert got_labels.tolist() == [-1, 1]
            assert got_conf.tolist() == [0.1 * 3, 0.1]
            assert [stored(store, o) for o in outputs] == list(map(payload, outputs))


class TestSingleWriter:
    def test_second_writer_is_refused_until_the_first_closes(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CacheStore(path)
        try:
            first.put(block([output_for(0)]))
            with pytest.raises(CacheIntegrityError, match="locked by another run"):
                CacheStore(path)
            with CacheStore(path, readonly=True) as reader:
                assert len(reader) == 1
        finally:
            first.close()
        with CacheStore(path) as second:
            assert len(second) == 1
            second.put(block([output_for(1)]))
        with CacheStore(path, readonly=True) as reader:
            assert len(reader) == 2

    def test_second_writer_is_refused_while_the_first_writes_its_snapshot(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "cache.jsonl"
        written = []
        write_stamped = store_module.write_stamped

        def write_while_locked(target, *args):
            with pytest.raises(CacheIntegrityError, match="locked by another run"):
                CacheStore(path)
            written.append(target.name)
            write_stamped(target, *args)

        monkeypatch.setattr(store_module, "write_stamped", write_while_locked)
        with CacheStore(path) as first:
            first.put(block([output_for(0)]))
        assert written == ["cache.jsonl.table"]
        with CacheStore(path) as second:
            assert len(second) == 1

    def test_failed_open_releases_the_lock(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(b"not json\n" + _line_of(output_for(0)))
        with pytest.raises(CacheCorruptionError):
            CacheStore(path)
        path.write_bytes(_line_of(output_for(0)))
        with CacheStore(path) as store:
            assert len(store) == 1


class TestEmptyFile:
    """A writer that closes on an empty cache removes it: an empty file holds
    no data, and readers treat "no file" as "run the earlier stage first"."""

    def test_writer_that_appends_nothing_leaves_no_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path):
            assert path.exists()
        assert not path.exists()
        with pytest.raises(RuntimeError):
            with CacheStore(path):
                raise RuntimeError("stage failed before its first append")
        assert not path.exists()

    def test_writer_that_appends_nothing_keeps_a_cache_with_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
        before = path.read_bytes()
        with CacheStore(path):
            pass
        assert path.read_bytes() == before

    def test_refused_writer_leaves_the_lock_holders_empty_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as first:
            with pytest.raises(CacheIntegrityError, match="locked by another run"):
                CacheStore(path)
            assert path.exists()
            first.put(block([output_for(0)]))
        with CacheStore(path, readonly=True) as reader:
            assert len(reader) == 1

    def test_writer_that_locks_a_removed_file_is_refused(self, tmp_path, monkeypatch):
        """The lock holder may remove its empty file between this writer's open
        and its lock; appending to the removed file would lose every line."""
        path = tmp_path / "cache.jsonl"
        flock = store_module.fcntl.flock

        def flock_after_removal(fd, operation):
            path.unlink()
            flock(fd, operation)

        monkeypatch.setattr(store_module.fcntl, "flock", flock_after_removal)
        with pytest.raises(CacheIntegrityError, match="locked by another run"):
            CacheStore(path)
        monkeypatch.undo()
        with CacheStore(path) as store:
            store.put(block([output_for(0)]))
        with CacheStore(path, readonly=True) as reader:
            assert len(reader) == 1

    def test_a_new_file_has_its_directory_synced(self, tmp_path, monkeypatch):
        synced = []
        fsync = os.fsync

        def recording_fsync(fd):
            synced.append(os.fstat(fd))
            fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        with CacheStore(tmp_path / "cache.jsonl") as store:
            assert [st.st_ino for st in synced if stat.S_ISDIR(st.st_mode)] == [
                tmp_path.stat().st_ino
            ]
            store.put(block([output_for(0)]))


class TestDigestIndex:
    def test_digests_ending_in_zero_bytes_are_found(self, tmp_path, monkeypatch):
        """numpy drops an S16 element's trailing zero bytes when it reads one out."""
        real = store_module.key_digest
        monkeypatch.setattr(store_module, "key_digest", lambda *f: real(*f)[:13] + b"\0\0\0")
        path = tmp_path / "cache.jsonl"
        outputs = [output_for(i, lens) for i in range(3) for lens in Lens]
        with CacheStore(path) as store:
            for output in outputs:
                store.put(block([output]))
        with CacheStore(path) as store:  # the index now comes from the snapshot
            assert store._covered == path.stat().st_size
            store.put(block([outputs[4]]))  # a no-op: found in the sorted index
            assert [stored(store, o) for o in outputs] == list(map(payload, outputs))
            rows = store.rows(digests(map(CacheKey.for_output, outputs)))
            assert rows.tolist() == [4, 7, 1, 8, 0, 2, 6, 3, 5]  # the digests' order
        assert len(path.read_bytes().splitlines()) == 9


class TestCacheBytesAndKeys:
    """The line ``put`` writes, and the key that finds it again, are pinned."""

    def test_put_writes_the_documented_bytes_and_expected_keys_find_the_row(self, tmp_path):
        from ensemble_judge.agents import AgentSpec, DecodingConfig, render_prompt
        from ensemble_judge.domain import AgentOutput, ConfidenceSource, DisclosureRecord
        from ensemble_judge.ingest import PreparedKeys

        disclosure = DisclosureRecord(
            id="d-é",
            timestamp=datetime(2024, 1, 2, tzinfo=timezone.utc),
            ticker="ACME",
            raw_text="Umsatz stieg — 5 % über Plan.",
            clean_text="Umsatz stieg — 5 % über Plan.",
            next_day_return=0.01,
        )
        spec = AgentSpec(Lens.GUIDANCE, "modèle-7b", "http://localhost:1/v1", False)
        decoding = DecodingConfig(seed=7, max_output_tokens=64)
        rationale = "Le chiffre d'affaires progresse — «confiant» ✓."
        output = AgentOutput(
            disclosure_id=disclosure.id,
            agent=spec.lens,
            label=SentimentLabel.POSITIVE,
            confidence=0.75,
            rationale=rationale,
            confidence_source=ConfidenceSource.SELF_REPORTED,
            model_name=spec.model_name,
            prompt_hash=prompt_hash(render_prompt(spec.lens, disclosure.clean_text)),
            seed=decoding.seed,
            raw_json=json.dumps(
                {"label": "positive", "rationale": rationale, "confidence": 0.75},
                ensure_ascii=False,
            ),
            retry_count=0,
        )
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(block([output]))
        created_at = datetime.fromisoformat(json.loads(path.read_bytes())["created_at"])
        assert path.read_bytes() == cache_line(output, created_at)

        # The pipeline's key digest of the pair, without rendering its prompt.
        (digest,) = PreparedKeys.of([disclosure], [spec], decoding.seed).keys.ravel().tolist()
        assert digest == CacheKey.for_output(output).digest()
        with CacheStore(path, readonly=True) as store:
            assert store.rows([digest]).tolist() == [0]
            assert stored(store, output) == payload(output)
            assert store.missing([digest]).tolist() == []


# Text JSON must escape or keep: quotes, backslashes, control characters,
# DEL, the line and paragraph separators and non-ASCII; lone surrogates
# cannot be encoded as UTF-8 at all.
texts = st.text(
    alphabet=st.one_of(
        st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "é"]),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=12,
)


@st.composite
def any_outputs(draw):
    source = draw(st.sampled_from(ConfidenceSource))
    fallback = source is ConfidenceSource.FALLBACK
    return AgentOutput(
        disclosure_id=draw(texts.filter(bool)),
        agent=draw(st.sampled_from(Lens)),
        label=SentimentLabel.NEUTRAL if fallback else draw(st.sampled_from(SentimentLabel)),
        confidence=(
            draw(st.sampled_from([0, 0.0]))
            if fallback
            else draw(st.one_of(st.integers(0, 1), st.floats(0.0, 1.0)))
        ),
        rationale=draw(texts),
        confidence_source=source,
        model_name=draw(texts),
        prompt_hash=draw(texts),
        seed=draw(st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([-1, 2**63, 2**64]))),
        raw_json=draw(texts),
        retry_count=draw(st.integers(0, 1)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(any_outputs(), min_size=1, max_size=5, unique_by=CacheKey.for_output))
def test_put_writes_the_oracle_bytes_for_any_output(outputs):
    """``put``'s fixed-layout line is ``json.dumps(..., ensure_ascii=False)``
    of the line's dicts, byte for byte; :func:`_parse_line` reads it back as
    the key digest and the payload a re-put compares, and ``get`` as the output.
    A block's confidence column is float64, so an integral confidence is
    written as the float every agent reports (``1.0``, not ``1``)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        with CacheStore(path) as store:
            for output in outputs:
                store.put(block([output]))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == len(outputs)
        with CacheStore(path, readonly=True) as store:
            for output, line in zip(outputs, lines):
                created_at = datetime.fromisoformat(json.loads(line)["created_at"])
                as_float = dataclasses.replace(output, confidence=float(output.confidence))
                assert line == cache_line(as_float, created_at)
                assert _parse_line(line) == (CacheKey.for_output(output).digest(), payload(output))
                assert stored(store, output) == payload(output)


@st.composite
def put_sequences(draw):
    """Distinct-key outputs, the order they are put in (a key may come back,
    with the same payload), and where that sequence is cut into blocks."""
    outputs = draw(st.lists(any_outputs(), min_size=1, max_size=6, unique_by=CacheKey.for_output))
    order = draw(st.lists(st.integers(0, len(outputs) - 1), min_size=1, max_size=12))
    cuts = draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
    blocks, current = [], []
    for index, cut in zip(order, cuts):
        if cut and current:
            blocks.append(current)
            current = []
        current.append(outputs[index])
    return outputs, order, [*blocks, current]


def _without_created_at(data: bytes) -> bytes:
    return re.sub(rb'"created_at": "[^"]*"', b"", data)


def _state(store, keys):
    rows = store.rows(digests(keys))
    return rows.tolist(), [x.tolist() for x in store.judgments(rows[rows >= 0])]


@settings(max_examples=60, deadline=None)
@given(put_sequences())
def test_blocks_write_what_per_pair_puts_write(sequence):
    """Blocks and one-row puts leave the same bytes (``created_at`` aside),
    rows and judgments; the table built from the blocks' digests is the one a
    full parse of the lines builds, so each digest is its line's key digest."""
    outputs, order, blocks = sequence
    keys = [CacheKey.for_output(o) for o in outputs]
    with tempfile.TemporaryDirectory() as tmp:
        per_pair, batched = Path(tmp) / "per-pair.jsonl", Path(tmp) / "batched.jsonl"
        with CacheStore(per_pair) as store:
            for index in order:
                store.put(block([outputs[index]]))
            expected = _state(store, keys)
        with CacheStore(batched) as store:
            for outputs_of_block in blocks:
                store.put(block(outputs_of_block))
            assert _state(store, keys) == expected
            table = store._digests.tobytes(), store._table.tobytes()
        first_seen = [outputs[i] for i in dict.fromkeys(order)]
        oracle = b"".join(
            cache_line(dataclasses.replace(o, confidence=float(o.confidence)), CREATED)
            for o in first_seen
        )
        assert _without_created_at(batched.read_bytes()) == _without_created_at(oracle)
        assert _without_created_at(per_pair.read_bytes()) == _without_created_at(oracle)
        batched.with_name("batched.jsonl.table").unlink()
        with CacheStore(batched, readonly=True) as store:
            assert (store._digests.tobytes(), store._table.tobytes()) == table
            assert _state(store, keys) == expected
