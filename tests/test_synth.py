import dataclasses
import hashlib
import itertools
import json
import re
import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from ensemble_judge import pipeline, synth
from ensemble_judge.agents import AgentSpec, render_prompt
from ensemble_judge.artifacts import ArtifactError, write_text
from ensemble_judge.cli import main
from ensemble_judge.config import load_config
from ensemble_judge.domain import LENS_ORDER, ConfidenceSource, Lens, SentimentLabel
from ensemble_judge.ingest import PreparedKeys, PreprocessConfig, preprocess_corpus
from ensemble_judge.store import CacheBlock
from ensemble_judge.synth import (
    LABEL_DEAD_ZONE,
    LatentDisclosure,
    RETURN_WEIGHTS,
    load_latents,
    stub_agent,
    stub_blocks,
)
from tests import oracles

CFG = PreprocessConfig(max_tokens=2048)


def prepared(n=120, seed=7, **kwargs):
    records, latents = oracles.generate_corpus(n, seed, **kwargs)
    return preprocess_corpus(records, CFG), latents


def _parsed(blocks):
    """The JSON value of each line of rendered blocks of lines."""
    return [json.loads(line) for line in "".join(blocks).split("\n")[:-1]]


def drawn(n, seed):
    """The corpus and latents line objects ``synth`` writes for ``n`` and ``seed``."""
    signals, returns = synth.draw_corpus(n, seed)
    return _parsed(synth.corpus_lines(signals, returns)), _parsed(synth.latents_lines(signals, seed))


class TestGenerateCorpus:
    """What ``synth`` draws and writes."""

    def test_deterministic_across_calls(self):
        assert drawn(150, seed=9) == drawn(150, seed=9)

    def test_different_seeds_differ(self):
        assert drawn(150, seed=1)[0] != drawn(150, seed=2)[0]

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError, match="n >= 100"):
            synth.draw_corpus(99, seed=1)

    def test_positive_rate_in_band_seed_42(self, tmp_path):
        rate = pipeline.stage_synth(load_config(_stub_config(tmp_path)), 1000, 42)["positive_rate"]
        assert 0.4 <= rate <= 0.6
        assert rate == pytest.approx(0.467, abs=1e-12)  # frozen from the first run

    def test_zero_noise_makes_target_deterministic(self, monkeypatch):
        monkeypatch.setattr(synth, "RETURN_NOISE_SCALE", 0.0)
        corpus, latents = drawn(200, seed=5)
        w_p, w_g, w_r = RETURN_WEIGHTS
        for line, lat in zip(corpus, latents, strict=True):
            assert line["id"] == lat["id"]
            expected = (
                w_p * lat["performance_signal"]
                + w_g * lat["guidance_signal"]
                - w_r * lat["risk_signal"]
            )
            assert line["next_day_return"] == pytest.approx(expected, abs=1e-15)

    def test_timestamps_strictly_increasing(self):
        corpus, _ = drawn(300, seed=3)
        stamps = [datetime.fromisoformat(line["timestamp"]) for line in corpus]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))

    def test_signals_bounded(self):
        _, latents = drawn(500, seed=11)
        for lat in latents:
            for key in ("performance_signal", "guidance_signal", "risk_signal"):
                assert -1.0 <= lat[key] <= 1.0


# sha256 of corpus.jsonl and latents.jsonl from `synth --n 300` at each seed,
# recorded when each disclosure was still built as a record object.
PINNED_SYNTH_SHA256 = {
    42: ("c0cae720fda62ee3a30167abe39fb300fa66f9f8534de4a0add507577c82bfd8",
         "03fdccd3177573993a7445333bf29aad61f0fa38bd802ff94f97d823cad80d1c"),
    7: ("00b21c608e2ae05e43e6a5bb11e327037fb8471b4d6fc299f9d0ad6a11736d66",
        "910724a1077a1f4bd8ff498ed09d4fb0b6aa4807d27fe0ca3e1d1ea94368363a"),
}


class TestSynthFiles:
    @pytest.mark.parametrize("seed", sorted(PINNED_SYNTH_SHA256))
    def test_synth_bytes_are_pinned(self, tmp_path, seed):
        path = _stub_config(tmp_path)
        assert main(["synth", "--config", str(path), "--n", "300", "--seed", str(seed)]) == 0
        config = load_config(path)
        written = (config.corpus_path, config.latents_path)
        assert tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in written) == (
            PINNED_SYNTH_SHA256[seed]
        )

    @pytest.mark.parametrize("n", [100, 2 * synth.SYNTH_BLOCK, 2 * synth.SYNTH_BLOCK + 1, 1000])
    def test_synth_writes_what_the_record_lists_write(self, tmp_path, n):
        (tmp_path / "lists").mkdir()
        arrays = load_config(_stub_config(tmp_path))
        lists = load_config(_stub_config(tmp_path / "lists"))
        assert pipeline.stage_synth(arrays, n, 42) == oracles.stage_synth(lists, n, 42)
        for written, expected in ((arrays.corpus_path, lists.corpus_path),
                                  (arrays.latents_path, lists.latents_path)):
            assert written.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize(
        "edge", ["2018-01-03T00:00", "2018-01-31T23:59", "2020-02-29T00:00", "2020-03-01T00:00",
                 "2018-12-31T23:59", "2019-01-01T00:00"],
    )
    def test_release_times_are_the_isoformat_of_their_minute(self, monkeypatch, edge):
        """Across a midnight, a month end, the leap day and a year end, each
        line's timestamp and release date are those of the datetime ``i``
        minutes after the first release."""
        monkeypatch.setattr(synth, "_FIRST_RELEASE", np.datetime64(edge, "m") - 200)
        start = datetime.fromisoformat(edge + "+00:00") - timedelta(minutes=200)
        lines = _parsed(synth.corpus_lines(*synth.draw_corpus(400, 1)))
        expected = [start + timedelta(minutes=i) for i in range(400)]
        assert [line["timestamp"] for line in lines] == [t.isoformat() for t in expected]
        assert [line["text"].split("\n")[1] for line in lines] == [
            f"RELEASE: {t.date().isoformat()}" for t in expected
        ]

    def test_the_heap_grows_by_the_drawn_arrays_alone(self, tmp_path):
        """Per disclosure the stage holds its drawn arrays (about 54 bytes at
        their peak, each draw folded into the signals as it is drawn), not a
        record and a latent object: from n = 500 to n = 2,000 its heap peak
        grows by under 100 bytes a disclosure. The record lists' form grows
        by about 960, and the four draws held at once by 160."""
        config = load_config(_stub_config(tmp_path))

        def peak(n):
            tracemalloc.start()
            try:
                pipeline.stage_synth(config, n, 42)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(500)  # warm-up
        assert peak(2000) - peak(500) < 100 * 1500


@pytest.fixture
def no_stub_noise(monkeypatch):
    monkeypatch.setattr(synth, "DEFAULT_STUB_NOISE", dict.fromkeys(Lens, 0.0))


class TestStubAgent:
    def _latents_for(self, record_id, perf=0.0, guid=0.0, risk=0.0):
        return {
            record_id: LatentDisclosure(
                performance_signal=perf,
                guidance_signal=guid,
                risk_signal=risk,
                noise_seed=123,
            )
        }

    def test_strong_performance_signal(self, no_stub_noise):
        records, _ = prepared()
        latents = self._latents_for(records[0].id, perf=0.9)
        out = stub_agent(Lens.PERFORMANCE, records[0], latents)
        assert out.label is SentimentLabel.POSITIVE
        assert out.confidence == pytest.approx(0.9)

    def test_dead_zone_is_neutral(self, no_stub_noise):
        records, _ = prepared()
        latents = self._latents_for(records[0].id, perf=0.05)
        out = stub_agent(Lens.PERFORMANCE, records[0], latents)
        assert out.label is SentimentLabel.NEUTRAL
        assert out.confidence == pytest.approx(0.05)

    def test_risk_signal_reads_as_negative_sentiment(self, no_stub_noise):
        records, _ = prepared()
        latents = self._latents_for(records[0].id, risk=0.8)
        out = stub_agent(Lens.RISK, records[0], latents)
        assert out.label is SentimentLabel.NEGATIVE
        assert out.confidence == pytest.approx(0.8)

    def test_deterministic_with_noise(self):
        records, latents = prepared()
        a = stub_agent(Lens.GUIDANCE, records[0], latents)
        b = stub_agent(Lens.GUIDANCE, records[0], latents)
        assert a == b

    def test_confidence_clipped_to_one(self, no_stub_noise):
        records, _ = prepared()
        latents = self._latents_for(records[0].id, guid=1.0)
        out = stub_agent(Lens.GUIDANCE, records[0], latents)
        assert out.confidence == 1.0

    def test_threshold_matches_dead_zone_constant(self, no_stub_noise):
        records, _ = prepared()
        latents = self._latents_for(records[0].id, perf=LABEL_DEAD_ZONE)
        out = stub_agent(Lens.PERFORMANCE, records[0], latents)
        assert out.label is SentimentLabel.NEUTRAL  # strict inequality at the edge

    def test_output_provenance(self):
        records, latents = prepared()
        out = stub_agent(Lens.RISK, records[0], latents)
        assert out.model_name == "stub-agent"
        assert out.seed == latents[records[0].id].noise_seed
        assert out.confidence_source is ConfidenceSource.SELF_REPORTED
        assert out.retry_count == 0
        assert len(out.prompt_hash) == 64

    def test_requires_latents(self):
        records, latents = prepared()
        with pytest.raises(KeyError):
            stub_agent(Lens.RISK, records[0], {})

    def test_requires_clean_text(self):
        records, latents = oracles.generate_corpus(100, seed=2)
        with pytest.raises(ValueError, match="clean_text"):
            stub_agent(Lens.RISK, records[0], latents)


class TestAgainstTheStubOracle:
    """The package's stub paths give the outputs of one default_rng per pair
    and json.dumps of each answer (``tests.oracles.stub_agent``)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        records, latents = oracles.generate_corpus(300, seed=7)
        return preprocess_corpus(records, CFG), latents

    def test_stub_agent_matches_the_oracle_on_every_pair(self, corpus):
        records, latents = corpus
        for record in records:
            for lens in LENS_ORDER:
                assert stub_agent(lens, record, latents) == oracles.stub_agent(
                    lens, record, latents
                )

    @staticmethod
    def _pairs(records):
        """The stub specs, the key table of the run seed 42, the prepared rows
        of ``records`` and the positions of all their (row, spec column)
        pairs, row-major."""
        specs = [AgentSpec(lens, synth.STUB_MODEL_NAME, synth.STUB_ENDPOINT) for lens in LENS_ORDER]
        keys = PreparedKeys.of(records, specs, 42)
        return specs, keys, np.arange(len(records)), np.arange(3 * len(records))

    @pytest.mark.parametrize("chunk", [None, 7])
    def test_batch_path_yields_the_oracle_outputs(self, corpus, tmp_path, monkeypatch, chunk):
        records, latents = corpus
        if chunk is not None:
            monkeypatch.setattr(synth, "NOISE_CHUNK", chunk)
        specs, keys, rows, todo = self._pairs(records)
        path = tmp_path / "latents.jsonl"
        oracles.write_latents(latents, path)
        blocks = list(stub_blocks(path, keys, rows, todo, specs, 42))
        triples = [
            (record.id, lens, oracles.prompt_hash(render_prompt(lens, record.clean_text)))
            for record in records
            for lens in LENS_ORDER
        ]
        expected = list(oracles.stub_outputs(triples, latents, 42))
        assert len(expected) == 900
        assert [len(b.digests) for b in blocks[:-1]] == [synth.NOISE_CHUNK] * (len(blocks) - 1)
        # Row for row, the columns equal those of the oracle's outputs under
        # the digests of their own keys.
        assert _block_rows(blocks) == _block_rows([oracles.block(expected)])

    def test_batch_path_needs_each_disclosures_latents(self, corpus, tmp_path):
        records, latents = corpus
        path = tmp_path / "latents.jsonl"
        oracles.write_latents({r.id: latents[r.id] for r in records[1:]}, path)
        specs, keys, rows, todo = self._pairs(records)
        with pytest.raises(ArtifactError, match=f"no latent signals for 1 disclosures.*{records[0].id}"):
            next(stub_blocks(path, keys, rows, todo, specs, 42))
        # Pairs of the disclosures that have latents need nothing more, be
        # they the pairs to judge of all rows or all pairs of some rows.
        assert next(stub_blocks(path, keys, rows, todo[3:], specs, 42))
        (block,) = stub_blocks(path, keys, rows[1:], todo[3:] - 3, specs, 42)
        assert block.digests.tolist() == keys.keys[1:].ravel().tolist()


class TestStubHeads:
    """The stub renders each head from its draws in one pass; ``CacheBlock.of``
    renders the heads of outputs. The two producers of a line agree."""

    @staticmethod
    def _agree(records, latents, seed, path):
        specs = [AgentSpec(lens, synth.STUB_MODEL_NAME, synth.STUB_ENDPOINT) for lens in LENS_ORDER]
        keys = PreparedKeys.of(records, specs, seed)
        oracles.write_latents(latents, path)
        todo = np.arange(3 * len(records))
        blocks = list(stub_blocks(path, keys, np.arange(len(records)), todo, specs, seed))
        # stub_agent's output carries the latent seed; a cache line the run's.
        outputs = [
            dataclasses.replace(stub_agent(spec.lens, record, latents), seed=seed)
            for record in records
            for spec in specs
        ]
        assert _block_rows(blocks) == _block_rows([CacheBlock.of(keys.keys.ravel(), outputs)])

    @pytest.mark.parametrize("seed, chunk", [(42, None), (7, None), (42, 7)])
    def test_the_stub_heads_are_those_of_its_outputs(self, tmp_path, monkeypatch, seed, chunk):
        if chunk is not None:
            monkeypatch.setattr(synth, "NOISE_CHUNK", chunk)
        self._agree(*prepared(2000, seed), seed, tmp_path / "latents.jsonl")

    def test_ids_that_need_json_escapes(self, tmp_path):
        records, latents = prepared(100, 3)
        renamed = ['q"uote', "back\\slash", "tab\t", "é ✓", "line\u2028", "nul\x00"]
        records = [
            dataclasses.replace(record, id=f"{new}-{i}")
            for i, (record, new) in enumerate(zip(records, itertools.cycle(renamed)))
        ]
        latents = {record.id: lat for record, lat in zip(records, latents.values())}
        self._agree(records, latents, 42, tmp_path / "latents.jsonl")

    def test_a_stub_pass_builds_each_specs_head_pieces_once(self, tmp_path, monkeypatch):
        """However many blocks a cold stub ``run-agents`` appends (172 here,
        and more than one of the default size), each agent spec's head pieces
        are built once."""
        config = load_config(_stub_config(tmp_path))
        pipeline.stage_synth(config, 400, 42)
        pipeline.stage_ingest(config)
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        built, head_pieces = [], synth._head_pieces
        monkeypatch.setattr(
            synth, "_head_pieces", lambda spec, seed: built.append(spec) or head_pieces(spec, seed)
        )
        assert pipeline.stage_run_agents(config)["fetched"] == 1200
        assert built == list(config.agent_specs())


def test_the_cold_stub_run_agents_heap_grows_by_its_tables_alone(tmp_path):
    """Per pair a cold stub ``run-agents`` holds its share of the key table
    (about 78 bytes), the cache table (34, and 18 more while a put merges a
    block), the latents (13) and the pairs to judge (8), beside one block of
    pairs: from n = 500 to n = 2,000 its heap peak grows by under 150 bytes a
    pair (148 here, the peak falling while a put merges a block). Whole-run
    copies of each pair's row, column and key digest grow it by 167."""

    def cold_run(n, name):
        config = load_config(_stub_config(tmp_path / name))
        pipeline.stage_synth(config, n, 42)
        pipeline.stage_ingest(config)
        return lambda: pipeline.stage_run_agents(config)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Untraced, so that the interpreter's free lists (of the 2,000 latents
    # rows' tuples among them) are full before the first traced run.
    cold_run(2000, "warm-up")()
    assert peak(cold_run(2000, "large")) - peak(cold_run(500, "small")) < 150 * 3 * 1500


def _block_rows(blocks) -> list[tuple]:
    return [
        row
        for block in blocks
        for row in zip(*(c.tolist() if isinstance(c, np.ndarray) else list(c) for c in block))
    ]


def _stub_config(tmp_path):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "workdir": "run",
                "corpus_path": "run/corpus.jsonl",
                "latents_path": "run/latents.jsonl",
                "seed": 42,
                "stub_agents": {"enabled": True},
            }
        )
    )
    return path


class TestLatentsSidecar:
    def test_round_trip(self, tmp_path):
        _, latents = oracles.generate_corpus(120, seed=4)
        path = tmp_path / "latents.jsonl"
        oracles.write_latents(latents, path)
        assert load_latents(path) == latents

    @staticmethod
    def _written(tmp_path, n):
        """A latents file of ``n`` disclosures, and its ids in file order."""
        _, latents = oracles.generate_corpus(max(n, 100), seed=4)
        latents = dict(list(latents.items())[:n])
        path = tmp_path / f"latents-{n}.jsonl"
        oracles.write_latents(latents, path)
        return path, list(latents)

    def test_the_stream_reads_what_the_whole_file_read_reads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        path, ids = self._written(tmp_path, 120)
        # Another order than the file's; two ids lack a line, ten lines an id.
        wanted = ids[::-1][10:] + ["absent-1", "absent-2"]
        signals, seeds, lines = synth.read_latents(path, wanted)
        expected_signals, expected_seeds, expected_lines = oracles.read_latents(path, wanted)
        assert np.array_equal(signals, expected_signals)
        assert seeds.dtype == np.uint64 and seeds.tolist() == expected_seeds
        assert np.array_equal(lines, expected_lines) and lines[-2:].tolist() == [0, 0]

    @pytest.mark.parametrize("seed", [42, 7])
    def test_the_fixed_layout_reads_what_the_json_path_reads(self, tmp_path, monkeypatch, seed):
        """``synth``'s own lines all take the fixed layout; with the layout
        refused, every line is decoded as JSON, to the same arrays."""
        path = tmp_path / "latents.jsonl"
        write_text(path, synth.latents_lines(synth.draw_corpus(2000, seed)[0], seed))
        ids = [f"syn-{i:06d}" for i in range(2000)][::-3] + ["absent"]
        with monkeypatch.context() as patched:
            patched.setattr(synth, "parse_lines", None)  # a line decoded as JSON fails
            fixed = synth.read_latents(path, ids)
        monkeypatch.setattr(synth, "_LATENT_LINE", re.compile(b"(?!)"))
        decoded = synth.read_latents(path, ids)
        assert fixed[0].tobytes() == decoded[0].tobytes()
        assert fixed[1].dtype == decoded[1].dtype == np.uint64
        assert np.array_equal(fixed[1], decoded[1]) and np.array_equal(fixed[2], decoded[2])

    @staticmethod
    def _spy_on_placed(monkeypatch) -> list[bool]:
        """What each call of ``synth._placed`` returns, in order."""
        placed, place = [], synth._placed

        def spy(*args):
            placed.append(place(*args))
            return placed[-1]

        monkeypatch.setattr(synth, "_placed", spy)
        return placed

    @pytest.mark.parametrize("seed", [42, 7])
    def test_the_array_path_reads_what_the_line_loop_reads(self, tmp_path, monkeypatch, seed):
        """A block of ``synth``'s own lines whose ids are all wanted is placed
        as arrays, to the arrays the per-line loop gives."""
        path = tmp_path / "latents.jsonl"
        write_text(path, synth.latents_lines(synth.draw_corpus(2000, seed)[0], seed))
        ids = ["absent", *(f"syn-{i:06d}" for i in range(2000))][::-1]
        placed = self._spy_on_placed(monkeypatch)
        arrays = synth.read_latents(path, ids)
        assert placed == [True, True]
        monkeypatch.setattr(synth, "_placed", lambda *args: False)
        looped = synth.read_latents(path, ids)
        assert arrays[0].tobytes() == looped[0].tobytes()
        assert arrays[1].dtype == looped[1].dtype == np.uint64
        assert np.array_equal(arrays[1], looped[1]) and np.array_equal(arrays[2], looped[2])
        assert arrays[2][0] == 2000 and arrays[2][-1] == 0  # syn-001999, then "absent"

    @pytest.mark.parametrize(
        "edits, message",
        [
            ({3: {"performance_signal": 1.5}}, "line 3: performance_signal 1.5 outside [-1, 1]"),
            ({12: {"id": "syn-000009"}}, "duplicate id 'syn-000009' on lines 10 and 12"),
            ({9: {"id": "elsewhere"}, 16: {"id": "elsewhere"}},
             "duplicate id 'elsewhere' on lines 9 and 16"),
        ],
        ids=["signal-1.5", "repeated-id", "repeated-id-outside-ids"],
    )
    def test_a_fixed_layout_block_that_fails_an_array_test_keeps_its_refusal(
        self, tmp_path, monkeypatch, edits, message
    ):
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        path, ids = self._written(tmp_path, 20)
        lines = path.read_text().splitlines()
        for lineno, edit in edits.items():
            lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **edit})
            assert synth._LATENT_LINE.fullmatch(lines[lineno - 1].encode())  # still the layout
        path.write_text("\n".join(lines) + "\n")
        placed = self._spy_on_placed(monkeypatch)
        with pytest.raises(ArtifactError) as expected:
            oracles.read_latents(path, ids)
        with pytest.raises(ArtifactError) as refused:
            synth.read_latents(path, ids)
        assert str(refused.value) == str(expected.value) == f"{path}: {message}"
        assert False in placed

    @pytest.mark.parametrize(
        "line",
        [
            # Off the layout, decoded as JSON:
            '{"performance_signal": 0.5, "id": "syn-000003", "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": 7}',
            '{"id": "syn-000003",  "performance_signal": 0.5, "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": 7}',
            '{"id":"syn-000003","performance_signal":0.5,"guidance_signal":-0.25,'
            '"risk_signal":0.75,"noise_seed":7}',
            '{"id": "syn-00000\\u0033", "performance_signal": 0.5, "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": 7}',
            '{"id": "syn-000003", "performance_signal": -0, "guidance_signal": 1, '
            '"risk_signal": 0.75, "noise_seed": 7}',
            '{"id": "syn-000003", "performance_signal": 0.5, "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": -3}',
            '{"id": "syn-000003", "performance_signal": 0.5, "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": 18446744073709551616}',
            '{"id": "syn-000003", "performance_signal": 0.5, "guidance_signal": -0.25, '
            '"risk_signal": 0.75, "noise_seed": 7} ',
            # On it:
            '{"id": "syn-000003", "performance_signal": -0.0, "guidance_signal": 1e-05, '
            '"risk_signal": -7.5E-1, "noise_seed": 18446744073709551615}',
        ],
        ids=["key-order", "spacing", "compact", "escape", "integer-signals", "negative-seed",
             "seed-2**64", "trailing-space", "on-layout-numbers"],
    )
    def test_a_line_off_the_layout_reads_as_the_whole_file_read(
        self, tmp_path, monkeypatch, line
    ):
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        path, ids = self._written(tmp_path, 20)
        lines = path.read_text().splitlines()
        lines[ids.index("syn-000003")] = line
        path.write_text("\n".join(lines) + "\n")
        signals, seeds, found = synth.read_latents(path, ids)
        expected_signals, expected_seeds, expected_found = oracles.read_latents(path, ids)
        assert signals.tobytes() == expected_signals.tobytes()
        assert seeds.tolist() == expected_seeds and np.array_equal(found, expected_found)

    def test_a_seed_beyond_uint64_is_kept_as_written(self, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        path, ids = self._written(tmp_path, 20)
        lines = path.read_text().splitlines()
        for at, seed in ((9, -3), (15, 2**70)):
            lines[at] = json.dumps({**json.loads(lines[at]), "noise_seed": seed})
        path.write_text("\n".join(lines) + "\n")
        _, seeds, _ = synth.read_latents(path, ids)
        assert seeds.tolist() == oracles.read_latents(path, ids)[1]
        assert seeds.tolist()[9] == -3 and seeds.tolist()[15] == 2**70

    @pytest.mark.parametrize(
        "edits, named",
        [
            ({5: {"risk_signal": 2.0}, 30: "5"}, "line 30: "),
            ({20: {"id": 3}, 35: {"noise_seed": 1.5}}, "line 35: "),
            ({20: {"id": 3}, 12: {"id": 10}}, "on lines 10 and 12"),
            ({4: {"id": 2}}, "on lines 2 and 4"),
            ({38: {"id": "elsewhere"}, 39: {"id": "elsewhere"}}, "'elsewhere' on lines 38 and 39"),
        ],
        ids=["malformed-after-bad-value", "bad-value-after-repeat", "first-second-line",
             "repeat-in-one-block", "repeat-outside-the-table"],
    )
    def test_refusals_keep_the_whole_file_reads_order(self, tmp_path, monkeypatch, edits, named):
        """A malformed line comes first, then the first line that breaks a
        value rule, then the first repeated id, however the blocks fall.
        Edits are by line number; an ``id`` edit copies that line's id."""
        monkeypatch.setattr(synth, "NOISE_CHUNK", 7)
        path, ids = self._written(tmp_path, 40)
        lines = path.read_text().splitlines()
        for lineno, edit in edits.items():
            if isinstance(edit, str):
                lines[lineno - 1] = edit
                continue
            if isinstance(edit.get("id"), int):
                edit = {"id": ids[edit["id"] - 1]}
            lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **edit})
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactError) as expected:
            oracles.read_latents(path, ids)
        with pytest.raises(ArtifactError, match=named) as refused:
            synth.read_latents(path, ids)
        assert str(refused.value) == str(expected.value)

    def test_the_read_heap_grows_under_half_as_fast_as_the_whole_file_reads(
        self, tmp_path, monkeypatch
    ):
        """Per line the read keeps only array entries and the id's row: from
        n = 1,000 to n = 4,000 its heap peak grows by under half of what the
        whole-file read's grows. Blocks of 100 lines, so that both sizes read
        several and the growth is that of the per-line state, not of a block."""
        monkeypatch.setattr(synth, "NOISE_CHUNK", 100)

        def peak(read, n):
            path, ids = self._written(tmp_path, n)
            tracemalloc.start()
            try:
                read(path, ids)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(synth.read_latents, 1000)  # warm-up
        growth = {
            read: peak(read, 4000) - peak(read, 1000)
            for read in (synth.read_latents, oracles.read_latents)
        }
        assert growth[synth.read_latents] < 0.5 * growth[oracles.read_latents]
