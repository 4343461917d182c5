import json
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge.config import RunConfig
from ensemble_judge.domain import DisclosureRecord, Split, target_from_return
from ensemble_judge.ingest import (
    CorpusFormatError,
    PreprocessConfig,
    chronological_split,
    load_corpus,
    load_split,
    parse_rfc3339,
    preprocess,
    preprocess_corpus,
    sort_records,
    write_corpus,
    write_split,
)

CFG = PreprocessConfig(max_tokens=2048)
FRACTIONS = RunConfig.split_fractions


def corpus_line(i, ts="2020-01-01T00:00:00Z", ret=0.01, rid=None, text="Revenue rose."):
    return json.dumps(
        {
            "id": rid or f"r{i}",
            "timestamp": ts,
            "ticker": "ACME",
            "text": text,
            "next_day_return": ret,
        }
    )


def record(rid, ts, ret=0.01):
    return DisclosureRecord(
        id=rid,
        timestamp=ts,
        ticker="T",
        raw_text="body text",
        clean_text="body text",
        next_day_return=ret,
        binary_target=target_from_return(ret),
    )


class TestLoadCorpus:
    def test_valid_file_count(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(corpus_line(i) for i in range(3)) + "\n")
        records = load_corpus(p)
        assert len(records) == 3
        assert all(r.clean_text == "" for r in records)
        assert records[0].binary_target == 1

    def test_duplicate_id_cites_the_id(self, tmp_path):
        lines = [corpus_line(i) for i in range(5)]
        lines[1] = corpus_line(1, rid="X1")
        lines[4] = corpus_line(4, rid="X1")
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match=r"'X1'.*lines 2 and 5"):
            load_corpus(p)

    def test_nan_return_rejected(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(corpus_line(0, ret="NaN") + "\n")
        with pytest.raises(CorpusFormatError, match="line 1"):
            load_corpus(p)

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(corpus_line(0) + "\n{not json\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_extra_key_rejected(self, tmp_path):
        obj = json.loads(corpus_line(0))
        obj["sector"] = "tech"
        p = tmp_path / "c.jsonl"
        p.write_text(json.dumps(obj) + "\n")
        with pytest.raises(CorpusFormatError, match="keys exactly"):
            load_corpus(p)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("text", None),
            ("text", 5),
            ("ticker", None),
            ("timestamp", 20180102),
            ("timestamp", None),
        ],
    )
    def test_string_fields_must_be_json_strings(self, tmp_path, key, value):
        lines = [json.loads(corpus_line(i)) for i in range(3)]
        lines[1][key] = value
        p = tmp_path / "c.jsonl"
        p.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        with pytest.raises(CorpusFormatError, match=rf"line 2: {key} must be a string"):
            load_corpus(p)

    def test_round_trip_through_write_corpus(self, tmp_path):
        ts = datetime(2021, 3, 4, 9, 30, tzinfo=timezone.utc)
        records = [record(f"a{i}", ts + timedelta(days=i)) for i in range(4)]
        p = tmp_path / "c.jsonl"
        write_corpus(records, p)
        loaded = load_corpus(p)
        assert [r.id for r in loaded] == [r.id for r in records]
        assert loaded[0].timestamp == ts


class TestParseRfc3339:
    def test_z_suffix(self):
        dt = parse_rfc3339("2020-06-01T12:00:00Z")
        assert dt.tzinfo is not None and dt.utcoffset().total_seconds() == 0

    def test_offset_normalized_to_utc(self):
        dt = parse_rfc3339("2020-06-01T12:00:00+02:00")
        assert dt.hour == 10

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_rfc3339("June 1st 2020")


class TestPreprocess:
    def test_dedupe_then_normalize(self):
        assert preprocess("A\nA\nB", CFG) == "A B"

    def test_whitespace_collapse(self):
        assert preprocess("Revenue  rose   5%", CFG) == "Revenue rose 5%"

    def test_numbers_dates_terms_preserved(self):
        text = "EPS of $1.23 on 2024-02-01, EBITDA up 4.5%"
        assert preprocess(text, CFG) == text

    def test_metadata_ticker_lowercased(self):
        text = "TICKER: IBM\nDATE: 2024-02-01\n\nIBM beat GAAP EPS estimates."
        out = preprocess(text, CFG)
        assert out == "TICKER: ibm DATE: 2024-02-01 IBM beat GAAP EPS estimates."

    def test_no_blank_line_means_no_metadata_block(self):
        out = preprocess("TICKER: IBM\nIBM beat estimates.", CFG)
        assert out == "TICKER: IBM IBM beat estimates."

    def test_truncation_respects_character_budget(self):
        # Oracle: output length within floor(max_tokens * chars_per_token),
        # ending at a word boundary of the normalized text.
        words = " ".join(f"w{i:04d}" for i in range(2000))
        assert len(words) >= 10_000
        cfg = PreprocessConfig(max_tokens=100, chars_per_token=4.0)
        out = preprocess(words, cfg)
        assert len(out) <= 400
        assert not out[-1].isspace()
        assert words.startswith(out)
        assert words[len(out)] == " "

    def test_truncation_hard_cut_without_boundary(self):
        cfg = PreprocessConfig(max_tokens=1, chars_per_token=4.0)
        assert preprocess("abcdefghij", cfg) == "abcd"

    def test_empty_input(self):
        assert preprocess("", CFG) == ""

    @given(st.text(max_size=400), st.integers(min_value=1, max_value=120))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text, max_tokens):
        cfg = PreprocessConfig(max_tokens=max_tokens, chars_per_token=4.0)
        once = preprocess(text, cfg)
        assert preprocess(once, cfg) == once

    def test_preprocess_corpus_populates_clean_text(self, tmp_path):
        ts = datetime(2020, 1, 1, tzinfo=timezone.utc)
        records = [record("a", ts)]
        out = preprocess_corpus(records, CFG)
        assert out[0].clean_text == "body text"

    @pytest.mark.parametrize("text", ["", "   ", "\n\t\n"])
    def test_preprocess_corpus_refuses_text_that_cleans_to_nothing(self, text):
        ts = datetime(2020, 1, 1, tzinfo=timezone.utc)
        records = [record("a", ts), replace(record("b", ts), raw_text=text, clean_text="")]
        with pytest.raises(ValueError, match="'b' has no text"):
            preprocess_corpus(records, CFG)


class TestChronologicalSplit:
    def _records(self, n, same_day=False):
        base = datetime(2019, 1, 1, tzinfo=timezone.utc)
        return [
            record(f"r{i:03d}", base if same_day else base + timedelta(days=i))
            for i in range(n)
        ]

    def test_ten_records_six_two_two(self):
        split = chronological_split(self._records(10), FRACTIONS)
        assert [len(split[s]) for s in (Split.TRAIN, Split.DEV, Split.TEST)] == [6, 2, 2]

    def test_paper_scale_test_count(self):
        split = chronological_split(self._records(18_420), FRACTIONS)
        assert len(split[Split.TEST]) == 3_684

    def test_time_order_respected(self):
        records = self._records(10)
        split = chronological_split(records, FRACTIONS)
        order = {r.id: i for i, r in enumerate(sort_records(records))}
        max_train = max(order[i] for i in split[Split.TRAIN])
        min_dev = min(order[i] for i in split[Split.DEV])
        min_test = min(order[i] for i in split[Split.TEST])
        assert max_train < min_dev < min_test

    def test_identical_timestamps_deterministic(self, tmp_path):
        records = self._records(17, same_day=True)
        first = chronological_split(records, FRACTIONS)
        second = chronological_split(list(reversed(records)), FRACTIONS)
        assert first == second
        # ties broken by id ascending
        train_ids = first[Split.TRAIN]
        assert train_ids and train_ids == sorted(train_ids)
        # serialized assignments are bitwise identical across runs
        write_split(first, tmp_path / "a.json")
        write_split(second, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_too_few_records(self):
        with pytest.raises(ValueError, match="at least 5"):
            chronological_split(self._records(4), FRACTIONS)

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="fractions"):
            chronological_split(self._records(10), fractions=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize(
        "fractions, n, empty",
        [
            ((0.995, 0.0025, 0.0025), 100, "dev"),
            ((0.1, 0.45, 0.45), 5, "train"),
            ((0.05, 0.05, 0.9), 5, "train and dev"),
        ],
    )
    def test_fractions_that_leave_a_split_empty(self, fractions, n, empty):
        with pytest.raises(ValueError, match=f"leave the {empty} split empty at {n} records"):
            chronological_split(self._records(n), fractions=fractions)

    def test_split_file_round_trip(self, tmp_path):
        split = chronological_split(self._records(12), FRACTIONS)
        p = tmp_path / "split.json"
        write_split(split, p)
        loaded = load_split(p)
        assert loaded == split

    def test_load_split_rejects_double_assignment(self, tmp_path):
        p = tmp_path / "split.json"
        p.write_text(json.dumps({"train": ["a"], "dev": ["a"], "test": ["b"]}))
        with pytest.raises(ValueError, match="more than one"):
            load_split(p)
