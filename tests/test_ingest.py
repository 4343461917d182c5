import json
import random
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import pipeline
from ensemble_judge.agents import AgentSpec
from ensemble_judge.artifacts import InputError
from ensemble_judge.cli import main
from ensemble_judge.config import RunConfig
from ensemble_judge.domain import LENS_ORDER, DisclosureRecord, Split
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
    write_split,
)
from tests import oracles
from tests.conftest import AWKWARD_CHARACTERS

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

    @pytest.mark.parametrize("value", [" 1_0 ", "0.01", "1e3", None, [0.01], True])
    def test_return_must_be_a_json_number(self, tmp_path, value):
        lines = [corpus_line(0), corpus_line(1, ret=value)]
        p = tmp_path / "c.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusFormatError, match="line 2: expected a finite number"):
            load_corpus(p)

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(corpus_line(0) + "\n{not json\n")
        with pytest.raises(CorpusFormatError, match="line 2"):
            load_corpus(p)

    def test_line_nested_past_the_recursion_limit_names_line_number(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text(corpus_line(0) + "\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(CorpusFormatError, match="line 2: malformed JSON"):
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
        oracles.write_corpus(records, p)
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

    # Code points at the edges of what counts as whitespace: the separators
    # \x1c-\x1f, NEL, LINE SEPARATOR and the ideographic space are whitespace;
    # zero-width space, the Mongolian vowel separator and the BOM are not.
    @given(
        st.text(
            st.sampled_from("aB: .\t\n\r\x0b\x0c\xa0\x1c\x1d\x1e\x1f\x85\u2028\u2029\u3000"
                            "\u200b\u180e\ufeff") | st.characters(),
            max_size=300,
        ),
        st.integers(min_value=1, max_value=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_whitespace_rule_is_the_regex_rule(self, text, max_tokens):
        cfg = PreprocessConfig(max_tokens=max_tokens, chars_per_token=4.0)
        assert preprocess(text, cfg) == oracles.preprocess(text, cfg)

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


SPECS = tuple(AgentSpec(lens, f"model-{lens.value}", "http://localhost:1/v1") for lens in LENS_ORDER)
INGESTED = ("prepared.jsonl", "prepared.jsonl.keys", "split.json")


def ingest_config(tmp_path, lines, newline="\n", **overrides):
    """A run config whose corpus file, outside the workdir, holds ``lines``."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes("".join(line + newline for line in lines).encode())
    return RunConfig(workdir=tmp_path / "run", corpus_path=corpus, agents=SPECS, **overrides)


def assert_nothing_written(config):
    assert not config.workdir.exists()


class TestIngestRefusalOrder:
    """Which refusal the stage gives when a corpus breaks several rules, and
    that it leaves no file behind: a line's, in file order, before an empty
    text's, before the split's."""

    def test_a_bad_line_after_an_empty_text_is_refused_first(self, tmp_path):
        lines = [corpus_line(i) for i in range(10)]
        lines[3] = corpus_line(3, text="")
        lines[6] = "{not json"
        config = ingest_config(tmp_path, lines)
        with pytest.raises(CorpusFormatError, match="line 7: malformed JSON"):
            pipeline.stage_ingest(config)
        assert_nothing_written(config)

    def test_the_first_empty_text_in_file_order_is_named(self, tmp_path):
        # Latest first, so d5 sorts before d3.
        lines = [
            corpus_line(i, ts=f"2020-01-{20 - i:02d}T00:00:00Z", rid=f"d{i}",
                        text="" if i in (3, 5) else "Revenue rose.")
            for i in range(10)
        ]
        config = ingest_config(tmp_path, lines)
        with pytest.raises(InputError, match="^disclosure 'd3' has no text after preprocessing$"):
            pipeline.stage_ingest(config)
        assert_nothing_written(config)

    def test_an_empty_text_is_refused_before_too_few_records(self, tmp_path):
        config = ingest_config(tmp_path, [corpus_line(0), corpus_line(1, text=" \t ")])
        with pytest.raises(InputError, match="'r1' has no text"):
            pipeline.stage_ingest(config)
        assert_nothing_written(config)

    @pytest.mark.parametrize(
        "n, fractions, message",
        [
            (4, (0.6, 0.2, 0.2), "at least 5 records"),
            (100, (0.995, 0.0025, 0.0025), "leave the dev split empty at 100 records"),
        ],
    )
    def test_a_split_refusal_writes_nothing(self, tmp_path, n, fractions, message):
        config = ingest_config(
            tmp_path, [corpus_line(i) for i in range(n)], split_fractions=fractions
        )
        with pytest.raises(InputError, match=message):
            pipeline.stage_ingest(config)
        assert_nothing_written(config)


# A corpus of each kind of ingest refusal, and the start of its error line.
REFUSED_CORPORA = {
    "malformed-line-2": ([corpus_line(0), "{not json", corpus_line(2)], "corpus.jsonl: line 2:"),
    "empty-text": (
        [corpus_line(i, text=" " if i == 3 else "Up.") for i in range(9)], "disclosure 'r3'"
    ),
    "too-few-records": ([corpus_line(i) for i in range(4)], "need at least 5 records"),
}


@pytest.mark.parametrize("workdir", ["run", "a/b/run"])
@pytest.mark.parametrize("corpus", REFUSED_CORPORA)
def test_a_refused_ingest_leaves_no_new_directory(tmp_path, monkeypatch, capsys, workdir, corpus):
    lines, message = REFUSED_CORPORA[corpus]
    monkeypatch.chdir(tmp_path)
    Path("corpus.jsonl").write_text("".join(line + "\n" for line in lines))
    Path("config.json").write_text(json.dumps({
        "workdir": workdir, "corpus_path": "corpus.jsonl", "latents_path": "latents.jsonl",
        "stub_agents": {"enabled": True},
    }))
    before = sorted(tmp_path.rglob("*"))
    assert main(["ingest", "--config", "config.json"]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert sorted(tmp_path.rglob("*")) == before


# Offsets that move a valid time past datetime's range once it is taken to UTC.
@pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-23:59", "0001-01-01T00:00:00+23:59"])
def test_a_timestamp_past_datetimes_range_is_refused(tmp_path, monkeypatch, capsys, stamp):
    monkeypatch.chdir(tmp_path)
    lines = [corpus_line(i, ts=stamp if i == 2 else "2020-01-01T00:00:00Z") for i in range(9)]
    Path("corpus.jsonl").write_text("".join(line + "\n" for line in lines))
    Path("config.json").write_text(json.dumps({
        "workdir": "run", "corpus_path": "corpus.jsonl", "latents_path": "latents.jsonl",
        "stub_agents": {"enabled": True},
    }))
    assert main(["ingest", "--config", "config.json"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: corpus.jsonl: line 3: invalid RFC 3339 timestamp: {stamp!r}"
    ]
    assert not Path("run").exists()


def _awkward_corpus() -> list[str]:
    """Lines that the one-pass ingest must order, clean and encode exactly as
    the whole-list chain does: tied instants written with different offsets,
    fractional seconds, non-ASCII and Unicode whitespace, CRLF inside texts, a
    metadata block and duplicated lines, in shuffled file order."""
    stamps = [
        "2021-03-04T09:30:00Z", "2021-03-04T11:30:00+02:00", "2021-03-04T04:30:00-05:00",
        "2021-03-04T09:30:00.250000+00:00", "2020-12-31T23:59:59.999999-01:00",
        "2021-01-01T00:59:59.999999+00:00", "2021-03-04 09:30:00", "1999-07-01T12:00:00+14:00",
    ]
    texts = [
        "TICKER: BRK.B\r\nDATE: 2021-03-04\r\n\r\nRevenue rose\u3000sharply.",
        "Umsatz stieg um 5\u00a0% \u2014 Gewinn \u2713\u2028Ausblick stabil.",
        "\u8425\u6536\u589e\u957f\x85\u98ce\u9669\u4e0b\u964d",
        "Guidance cut.\nGuidance cut.\nGuidance cut.\x1c\x1dLitigation risk rose.",
        "  \t Margins widened\x1e\x1f to 12%.\u2029 ",
        "Caf\u00e9 chain beat \"consensus\" by $0.03\u200b.",
    ]
    lines = [
        json.dumps(
            {
                "id": f"d{i:02d}" if i % 7 else f"\u00e9-{i}",
                "timestamp": stamps[i % len(stamps)],
                "ticker": "ACME",
                "text": texts[i % len(texts)] + f" Item {i}.",
                "next_day_return": (i % 5 - 2) / 100,
            },
            ensure_ascii=i % 2 == 0,
        )
        for i in range(48)
    ]
    random.Random(7).shuffle(lines)
    return lines


def test_ingest_writes_what_the_whole_list_chain_writes(tmp_path):
    (tmp_path / "one").mkdir()
    (tmp_path / "chain").mkdir()
    one_pass = ingest_config(tmp_path / "one", _awkward_corpus(), newline="\r\n")
    chain = ingest_config(tmp_path / "chain", _awkward_corpus(), newline="\r\n")
    assert pipeline.stage_ingest(one_pass) == oracles.stage_ingest(chain)
    for name in INGESTED:
        assert (one_pass.workdir / name).read_bytes() == (chain.workdir / name).read_bytes(), name
    assert sorted(p.name for p in one_pass.workdir.iterdir()) == sorted(INGESTED)


def test_ingest_heap_does_not_grow_with_text_length(tmp_path):
    """The stage keeps columns, not texts: padding every text by 2,000
    characters grows its heap peak by under a tenth of what the padding adds
    to the prepared file."""
    padding = " ".join(["padding"] * 250)

    def ingest(name, pad):
        (tmp_path / name).mkdir()
        lines = [corpus_line(i, ts=f"2020-01-01T00:{i // 60 % 60:02d}:{i % 60:02d}Z",
                             text=f"Revenue rose {i}%. {pad}") for i in range(1000)]
        config = ingest_config(tmp_path / name, lines)
        tracemalloc.start()
        try:
            pipeline.stage_ingest(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, (config.workdir / "prepared.jsonl").stat().st_size

    ingest("warm-up", "")
    plain_peak, plain_bytes = ingest("plain", "")
    padded_peak, padded_bytes = ingest("padded", padding)
    assert padded_bytes - plain_bytes > 1000 * 2 * len(padding)  # text and clean_text
    assert padded_peak - plain_peak < 0.1 * (padded_bytes - plain_bytes)


def test_prepared_lines_are_the_dict_forms_bytes(tmp_path):
    """Each prepared line is the oracle's json.dumps of its record's dict
    form, for ids, tickers and texts holding every awkward character and
    returns written as 1, 1e-07 and -0.0."""
    lines = [
        '{"id": %s, "timestamp": "2021-03-04T09:%02d:00Z", "ticker": %s, "text": %s, '
        '"next_day_return": %s}' % (
            json.dumps(f"d{i}{char}", ensure_ascii=False), i,
            json.dumps(f"T{char}", ensure_ascii=i % 2 == 0),
            json.dumps(f"TICKER: X{char}\n\nRevenue {char} rose {i}.", ensure_ascii=False),
            ("1", "1e-07", "-0.0")[i % 3],
        )
        for i, char in enumerate(AWKWARD_CHARACTERS * 2)
    ]
    config = ingest_config(tmp_path, lines)
    pipeline.stage_ingest(config)
    records = sort_records(preprocess_corpus(load_corpus(config.corpus_path), config.preprocess))
    assert {r.next_day_return for r in records} == {1.0, 1e-07, -0.0}
    assert all(r.id[-1] in r.clean_text for r in records)
    assert config.prepared_path.read_text(encoding="utf-8") == "".join(
        oracles.json_line(oracles.corpus_row(r, clean_text=r.clean_text)) for r in records
    )
