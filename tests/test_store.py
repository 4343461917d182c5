import json
import logging

import pytest

from ensemble_judge.domain import Lens, SentimentLabel
from ensemble_judge.store import (
    CacheCorruptionError,
    CacheIntegrityError,
    CacheKey,
    CacheRecord,
    CacheStore,
    make_record,
)
from tests.conftest import make_output


def key_for(i=0, lens=Lens.PERFORMANCE):
    return CacheKey(
        disclosure_id=f"d{i}",
        lens=lens,
        model_name="test-model",
        prompt_hash="0" * 64,
        seed=42,
    )


def record_for(i=0, lens=Lens.PERFORMANCE, label=SentimentLabel.POSITIVE):
    return make_record(make_output(lens=lens, label=label, disclosure_id=f"d{i}"))


class TestPutGet:
    def test_round_trip(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            rec = record_for()
            store.put(rec)
            got = store.get(rec.key)
            assert got is not None and got.output == rec.output

    def test_absent_key(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            assert store.get(key_for(99)) is None

    def test_idempotent_duplicate_is_noop(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            rec = record_for()
            store.put(rec)
            size = path.stat().st_size
            store.put(rec)
            assert path.stat().st_size == size
            assert len(store) == 1

    def test_conflicting_payload_is_integrity_error(self, tmp_path):
        with CacheStore(tmp_path / "cache.jsonl") as store:
            store.put(record_for(label=SentimentLabel.POSITIVE))
            with pytest.raises(CacheIntegrityError):
                store.put(record_for(label=SentimentLabel.NEGATIVE))

    def test_append_only_file_growth(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        sizes = []
        with CacheStore(path) as store:
            for i in range(5):
                store.put(record_for(i))
                sizes.append(path.stat().st_size)
        assert sizes == sorted(sizes)
        assert all(b > a for a, b in zip(sizes, sizes[1:]))


class TestPersistence:
    def test_reload_sees_all_records(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            for i in range(3):
                store.put(record_for(i))
        with CacheStore(path) as store:
            assert len(store) == 3
            assert store.get(record_for(1).key) is not None

    def test_truncated_final_line_dropped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            for i in range(3):
                store.put(record_for(i))
        raw = path.read_bytes()
        path.write_bytes(raw[:-25])  # chop inside the final record
        with caplog.at_level(logging.WARNING):
            with CacheStore(path) as store:
                assert len(store) == 2
        assert any("truncated final line" in m for m in caplog.messages)

    def test_corrupted_middle_line_names_byte_offset(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(record_for(0))
            offset = path.stat().st_size
            store.put(record_for(1))
        data = path.read_bytes().splitlines(keepends=True)
        data[1] = b'{"key": garbage}\n'
        path.write_bytes(b"".join(data))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {offset}"):
            CacheStore(path)

    def test_valid_unterminated_final_line_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(record_for(0))
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        with CacheStore(path) as store:
            assert len(store) == 1


class TestCoverage:
    def test_full_cache_has_no_missing(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            recs = [record_for(i, lens) for i in range(10) for lens in Lens]
            for r in recs:
                store.put(r)
            assert store.missing([r.key for r in recs]) == []

    def test_single_gap_reported(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            recs = [record_for(i, lens) for i in range(10) for lens in Lens]
            for r in recs[1:]:
                store.put(r)
            missing = store.missing([r.key for r in recs])
            assert missing == [recs[0].key]

    def test_prompt_change_invalidates_everything(self, tmp_path):
        with CacheStore(tmp_path / "c.jsonl") as store:
            recs = [record_for(i) for i in range(4)]
            for r in recs:
                store.put(r)
            changed = [
                CacheKey(
                    disclosure_id=k.disclosure_id,
                    lens=k.lens,
                    model_name=k.model_name,
                    prompt_hash="f" * 64,
                    seed=k.seed,
                )
                for k in (r.key for r in recs)
            ]
            assert len(store.missing(changed)) == 4


class TestSerialization:
    def test_key_field_order_is_stable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CacheStore(path) as store:
            store.put(record_for(0))
        line = json.loads(path.read_text().splitlines()[0])
        assert list(line) == ["key", "output", "created_at"]
        assert list(line["key"]) == ["disclosure_id", "lens", "model_name", "prompt_hash", "seed"]

    def test_record_round_trip(self):
        rec = record_for(7, Lens.RISK, SentimentLabel.NEGATIVE)
        assert CacheRecord.from_dict(rec.to_dict()) == rec


def _line_of(record, **output_changes):
    d = record.to_dict()
    d["output"].update(output_changes)
    return (json.dumps(d) + "\n").encode("utf-8")


class TestCrashTailRepair:
    def _three_records(self, path):
        with CacheStore(path) as store:
            for i in range(3):
                store.put(record_for(i))
        return path.read_bytes()

    def test_resume_after_truncated_tail(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        path.write_bytes(raw[:-25])
        with CacheStore(path) as store:
            assert len(store) == 2
            store.put(record_for(2))
            store.put(record_for(3))
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
            store.put(record_for(3))
            store.put(record_for(4))
        with CacheStore(path) as store:
            assert len(store) == 5
            assert store.get(record_for(2).key) is not None
        assert path.read_bytes().startswith(raw)

    def test_resume_after_a_cut_at_every_byte_of_the_last_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        for cut in range(last_start, len(raw)):
            path.write_bytes(raw[:cut])
            with CacheStore(path) as store:
                store.put(record_for(2))
                store.put(record_for(3))
            with CacheStore(path, readonly=True) as store:
                assert len(store) == 4, cut
                for i in range(4):
                    assert store.get(record_for(i).key) is not None
            assert path.read_bytes().startswith(raw[:last_start])

    def test_reader_never_modifies_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        for damaged in (raw[:-25], raw[:-1]):
            path.write_bytes(damaged)
            with CacheStore(path, readonly=True) as store:
                assert len(store) == (2 if damaged == raw[:-25] else 3)
                with pytest.raises(CacheIntegrityError, match="read-only"):
                    store.put(record_for(5))
            assert path.read_bytes() == damaged

    def test_bad_value_on_unterminated_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        raw = self._three_records(path)
        path.write_bytes(raw + _line_of(record_for(3), confidence=1.5).rstrip(b"\n"))
        with CacheStore(path) as store:
            assert len(store) == 3
        assert path.read_bytes() == raw


class TestLineChecks:
    def test_key_block_must_agree_with_output_block(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = record_for(0).to_dict()
        bad = record_for(1).to_dict()
        bad["key"]["disclosure_id"] = "d7"
        first = (json.dumps(good) + "\n").encode()
        path.write_bytes(first + (json.dumps(bad) + "\n").encode())
        with pytest.raises(CacheIntegrityError, match=f"byte offset {len(first)}"):
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
        ],
    )
    def test_bad_output_value_names_byte_offset(self, tmp_path, changes):
        path = tmp_path / "cache.jsonl"
        first = _line_of(record_for(0))
        path.write_bytes(first + _line_of(record_for(1), **changes) + _line_of(record_for(2)))
        with pytest.raises(CacheCorruptionError, match=f"byte offset {len(first)}"):
            CacheStore(path, readonly=True)

    def test_put_rejects_key_that_disagrees_with_output(self, tmp_path):
        rec = record_for(0)
        forged = CacheRecord(key=key_for(1), output=rec.output, created_at=rec.created_at)
        with CacheStore(tmp_path / "cache.jsonl") as store:
            with pytest.raises(CacheIntegrityError):
                store.put(forged)


class TestTable:
    def test_rows_and_judgments_follow_the_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        labels = [SentimentLabel.POSITIVE, SentimentLabel.NEUTRAL, SentimentLabel.NEGATIVE]
        recs = [
            make_record(
                make_output(lens=lens, label=label, confidence=0.1 * (i + 1), disclosure_id="d0")
            )
            for i, (lens, label) in enumerate(zip(Lens, labels))
        ]
        with CacheStore(path) as store:
            for rec in recs:
                store.put(rec)
        with CacheStore(path, readonly=True) as store:
            keys = [recs[2].key, key_for(9), recs[0].key]
            rows = store.rows(keys)
            assert rows.tolist() == [2, -1, 0]
            got_labels, got_conf = store.judgments(rows[[0, 2]])
            assert got_labels.tolist() == [-1, 1]
            assert got_conf.tolist() == [0.1 * 3, 0.1]
            assert [store.get(r.key).output for r in recs] == [r.output for r in recs]
            assert store.get(recs[1].key).output == recs[1].output


class TestSingleWriter:
    def test_second_writer_is_refused_until_the_first_closes(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = CacheStore(path)
        try:
            first.put(record_for(0))
            with pytest.raises(CacheIntegrityError, match="locked by another run"):
                CacheStore(path)
            with CacheStore(path, readonly=True) as reader:
                assert len(reader) == 1
        finally:
            first.close()
        with CacheStore(path) as second:
            assert len(second) == 1
            second.put(record_for(1))
        with CacheStore(path, readonly=True) as reader:
            assert len(reader) == 2

    def test_failed_open_releases_the_lock(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(b"not json\n" + _line_of(record_for(0)))
        with pytest.raises(CacheCorruptionError):
            CacheStore(path)
        path.write_bytes(_line_of(record_for(0)))
        with CacheStore(path) as store:
            assert len(store) == 1


class TestCacheBytesAndKeys:
    """The line ``put`` writes, and the key that finds it again, are pinned."""

    def test_put_writes_the_documented_bytes_and_expected_keys_find_the_row(self, tmp_path):
        from datetime import datetime, timezone

        from ensemble_judge.agents import (
            AgentSpec,
            DecodingConfig,
            expected_cache_keys,
            prompt_hash,
            render_prompt,
        )
        from ensemble_judge.domain import AgentOutput, ConfidenceSource, DisclosureRecord

        disclosure = DisclosureRecord(
            id="d-é",
            timestamp=datetime(2024, 1, 2, tzinfo=timezone.utc),
            ticker="ACME",
            raw_text="Umsatz stieg — 5 % über Plan.",
            clean_text="Umsatz stieg — 5 % über Plan.",
            next_day_return=0.01,
            binary_target=1,
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
        record = make_record(output)
        path = tmp_path / "cache.jsonl"
        with CacheStore(path) as store:
            store.put(record)
        expected = (json.dumps(record.to_dict(), ensure_ascii=False) + "\n").encode("utf-8")
        assert path.read_bytes() == expected

        (key,) = expected_cache_keys([disclosure], [spec], decoding)
        assert key == record.key
        with CacheStore(path, readonly=True) as store:
            assert key in store
            assert store.rows([key]).tolist() == [0]
            assert store.get(key) == record
            assert store.missing([key]) == []
