import functools
import hashlib
import importlib
import json
import math
import os
import re
import threading
import time

import pytest

from ensemble_judge import agents as agents_module
from ensemble_judge import ingest as ingest_module
from ensemble_judge import pipeline as pipeline_module
from ensemble_judge import store as store_module
from ensemble_judge.agents import render_prompt
from ensemble_judge.artifacts import Refusal
from ensemble_judge.cli import main
from ensemble_judge.domain import Lens
from tests.conftest import agent_json, completion_body


def write_config(tmp_path, **overrides):
    workdir = tmp_path / "run"
    cfg = {
        "workdir": str(workdir),
        "corpus_path": str(workdir / "corpus.jsonl"),
        "latents_path": str(workdir / "latents.jsonl"),
        "seed": 42,
        "stub_agents": {"enabled": True},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, workdir


def run(cfg_path, *args):
    return main([args[0], "--config", str(cfg_path), *args[1:]])


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def pipeline(tmp_path):
    cfg_path, workdir = write_config(tmp_path)
    assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
    assert run(cfg_path, "ingest") == 0
    assert run(cfg_path, "run-agents") == 0
    assert run(cfg_path, "build-features") == 0
    assert run(cfg_path, "train") == 0
    assert run(cfg_path, "evaluate") == 0
    return cfg_path, workdir


class TestFullPipeline:
    def test_all_artifacts_exist(self, pipeline):
        _, workdir = pipeline
        for name in (
            "corpus.jsonl",
            "latents.jsonl",
            "prepared.jsonl",
            "split.json",
            "cache.jsonl",
            "features_train.jsonl",
            "features_dev.jsonl",
            "features_test.jsonl",
            "model.json",
            "report.json",
            "report.txt",
        ):
            assert (workdir / name).exists(), name

    def test_split_proportions(self, pipeline):
        _, workdir = pipeline
        split = json.loads((workdir / "split.json").read_text())
        assert (len(split["train"]), len(split["dev"]), len(split["test"])) == (180, 60, 60)

    def test_report_shape(self, pipeline):
        _, workdir = pipeline
        report = json.loads((workdir / "report.json").read_text())
        assert len(report["methods"]) == 6
        assert sum(v["count"] for v in report["regimes"].values()) == 60

    def test_report_command_formats(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        assert run(cfg_path, "report", "--format", "json") == 0
        out = capsys.readouterr().out
        assert json.loads(out)["test_size"] == 60
        assert run(cfg_path, "report", "--format", "text") == 0
        assert "aggregator" in capsys.readouterr().out

    def test_rerun_stages_byte_identical(self, pipeline):
        cfg_path, workdir = pipeline
        tracked = [
            "prepared.jsonl",
            "split.json",
            "features_train.jsonl",
            "features_dev.jsonl",
            "features_test.jsonl",
            "model.json",
            "report.json",
            "report.txt",
        ]
        before = {name: sha(workdir / name) for name in tracked}
        cache_before = sha(workdir / "cache.jsonl")
        for stage in ("ingest", "run-agents", "build-features", "train", "evaluate"):
            assert run(cfg_path, stage) == 0
        after = {name: sha(workdir / name) for name in tracked}
        assert after == before
        assert sha(workdir / "cache.jsonl") == cache_before

    def test_run_agents_resumable(self, pipeline, capsys):
        cfg_path, _ = pipeline
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 0
        out = capsys.readouterr().out
        assert "900 cached, 0 fetched" in out

    def test_ingest_corpus_flag_overrides_config(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        moved = tmp_path / "elsewhere.jsonl"
        (workdir / "corpus.jsonl").rename(moved)
        assert run(cfg_path, "ingest") == 2  # config path no longer exists
        capsys.readouterr()
        assert run(cfg_path, "ingest", "--corpus", str(moved)) == 0
        assert "300 records" in capsys.readouterr().out

    def test_run_agents_split_restriction(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        partial = json.loads((workdir / "split.json").read_text())
        restricted = {
            "train": partial["train"][:10],
            "dev": partial["dev"][:5],
            "test": partial["test"][:5],
        }
        split_path = tmp_path / "subset.json"
        split_path.write_text(json.dumps(restricted))
        capsys.readouterr()
        assert run(cfg_path, "run-agents", "--split", str(split_path)) == 0
        assert "60/60 pairs" in capsys.readouterr().out
        assert len((workdir / "cache.jsonl").read_text().splitlines()) == 60

    def test_run_agents_split_with_unknown_ids_exits_1(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        split = json.loads((workdir / "split.json").read_text())
        subset = tmp_path / "subset.json"
        subset.write_text(json.dumps({"train": split["train"][:10], "dev": [], "test": []}))
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 0
        cache, snapshot = workdir / "cache.jsonl", workdir / "cache.jsonl.table"
        before = [(p.read_bytes(), p.stat().st_mtime_ns) for p in (cache, snapshot)]
        subset.write_text(json.dumps({"train": ["no-such-id"], "dev": [], "test": []}))
        capsys.readouterr()
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 1
        captured = capsys.readouterr()
        assert "split references unknown ids, e.g. ['no-such-id']" in captured.err
        assert len(captured.err.strip().splitlines()) == 1 and "coverage" not in captured.out
        assert [(p.read_bytes(), p.stat().st_mtime_ns) for p in (cache, snapshot)] == before

    def test_stale_model_detected(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        model["prompt_hash_digest"] = "0" * 64
        (workdir / "model.json").write_text(json.dumps(model))
        assert run(cfg_path, "evaluate") == 3
        assert "different prompts" in capsys.readouterr().err

    def test_stale_split_detected(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        split = json.loads((workdir / "split.json").read_text())
        split["train"] = split["train"][1:]  # drop one corpus id from the split
        (workdir / "split.json").write_text(json.dumps(split))
        assert run(cfg_path, "build-features") == 1
        assert "stale split" in capsys.readouterr().err


class TestStageOrdering:
    def test_evaluate_before_train_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        assert run(cfg_path, "run-agents") == 0
        assert run(cfg_path, "evaluate") == 2
        assert "model file missing" in capsys.readouterr().err

    def test_train_before_features_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        assert run(cfg_path, "run-agents") == 0
        assert run(cfg_path, "train") == 2
        assert "feature file missing" in capsys.readouterr().err

    def test_ingest_without_corpus_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "ingest") == 2
        assert "corpus file missing" in capsys.readouterr().err

    def test_build_features_with_missing_coverage_exits_3(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        assert run(cfg_path, "run-agents") == 0
        cache = workdir / "cache.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        cache.write_text("".join(lines[:-10]))
        assert run(cfg_path, "build-features") == 3
        assert "missing 10 agent outputs" in capsys.readouterr().err

    def test_train_refuses_incomplete_train_coverage(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        assert run(cfg_path, "run-agents") == 0
        assert run(cfg_path, "build-features") == 0
        cache = workdir / "cache.jsonl"
        lines = cache.read_text().splitlines(keepends=True)
        # the first cached line belongs to the earliest record, i.e. train split
        cache.write_text("".join(lines[1:]))
        assert run(cfg_path, "train") == 3
        assert "missing" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_command_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == 1

    def test_synth_too_small_exits_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "50", "--seed", "1") == 1
        assert "n >= 100" in capsys.readouterr().err

    def test_synth_with_a_negative_seed_exits_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "100", "--seed", "-1") == 1
        assert _single_error_line(capsys.readouterr().err, "seed >= 0")

    def test_report_before_evaluate_exits_2(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert run(cfg_path, "report") == 2

    def test_config_without_agents_or_stubs_exits_1(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, stub_agents={"enabled": False})
        assert run(cfg_path, "ingest") == 1
        assert "agent" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("text", "   ", "has no text"),
            ("text", "", "has no text"),
            ("text", None, "line 3"),
            ("ticker", None, "line 3"),
            ("timestamp", 20180102, "line 3"),
            ("next_day_return", " 1_0 ", "line 3"),
            ("next_day_return", "0.01", "line 3"),
        ],
    )
    def test_ingest_refuses_non_string_fields_and_empty_text(
        self, tmp_path, capsys, key, value, named
    ):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "3") == 0
        corpus = workdir / "corpus.jsonl"
        lines = corpus.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        row[key] = value
        lines[2] = json.dumps(row) + "\n"
        corpus.write_text("".join(lines))
        capsys.readouterr()
        assert run(cfg_path, "ingest") == 1
        err = capsys.readouterr().err
        assert _single_error_line(err, named)
        if named == "has no text":
            assert row["id"] in err
        assert not (workdir / "prepared.jsonl").exists()
        assert not (workdir / "split.json").exists()


def lens_answer(prompt, i):
    """A valid answer whose label depends only on the prompt's lens."""
    if "realized operating performance" in prompt:
        label = "positive"
    elif "forward guidance" in prompt:
        label = "neutral"
    else:
        label = "negative"
    return 200, completion_body(agent_json(label, confidence=0.75))


LENSES = ("performance", "guidance", "risk")


def http_run(tmp_path, ep, n=100, max_in_flight=2):
    """A synthesized and ingested run whose three agents use ``ep``; its
    config path, workdir and prepared records' ``(id, clean_text)``."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    agents = [
        {"lens": lens, "model_name": f"m-{lens}", "endpoint_url": ep.url, "supports_logprobs": False}
        for lens in LENSES
    ]
    cfg_path, workdir = write_config(
        tmp_path, stub_agents={"enabled": False}, agents=agents, max_in_flight=max_in_flight
    )
    assert run(cfg_path, "synth", "--n", str(n), "--seed", "42") == 0
    assert run(cfg_path, "ingest") == 0
    prepared = [json.loads(line) for line in (workdir / "prepared.jsonl").read_text().splitlines()]
    return cfg_path, workdir, [(row["id"], row["clean_text"]) for row in prepared]


def cached_pairs(workdir):
    """The (disclosure id, lens) of each cache line, in file order."""
    outputs = [json.loads(line)["output"] for line in (workdir / "cache.jsonl").read_text().splitlines()]
    return [(output["disclosure_id"], output["agent"]) for output in outputs]


def without_created_at(workdir):
    return re.sub(rb'"created_at": "[^"]*"', b"", (workdir / "cache.jsonl").read_bytes())


class TestHttpAgentsViaCli:
    def test_pipeline_with_mock_endpoint(self, tmp_path, chat_endpoint):
        # All three lenses served by one scripted endpoint.
        ep = chat_endpoint(lens_answer)
        cfg_path, workdir, _ = http_run(tmp_path, ep, n=300, max_in_flight=3)
        assert run(cfg_path, "run-agents") == 0
        cache_lines = (workdir / "cache.jsonl").read_text().splitlines()
        assert len(cache_lines) == 900
        assert run(cfg_path, "build-features") == 0
        rows = [json.loads(l) for l in (workdir / "features_train.jsonl").read_text().splitlines()]
        assert all(row["features"][:3] == [1.0, 0.0, -1.0] for row in rows)

    @pytest.mark.parametrize(
        "spelled, rationale, written",
        [
            ("\ud83d", "Results beat plan \ud83d", b"Results beat plan \\ud83d"),
            ("\ud83d\\ude00", "Results beat plan \U0001f600", "Results beat plan \U0001f600".encode()),
        ],
        ids=["lone", "split-pair"],
    )
    def test_an_answer_with_a_lone_surrogate_is_cached_as_its_escape(
        self, tmp_path, chat_endpoint, spelled, rationale, written
    ):
        """A lone surrogate escape is valid JSON (here an emoji pair cut to
        its first half). UTF-8 cannot encode it, so the cache writes it back
        as the same escape; a rerun reads it and sends no request. A high
        surrogate the envelope spells and a low one the answer's own escape
        spells are two characters side by side, which JSON cannot write
        apart: they are read as the one character the pair encodes."""
        answer = agent_json("positive", rationale="Results beat plan \x00", confidence=0.75)
        answer = answer.replace("\\u0000", spelled)
        ep = chat_endpoint(lambda prompt, i: (200, completion_body(answer)))
        cfg_path, workdir, prepared = http_run(tmp_path, ep)
        assert run(cfg_path, "run-agents") == 0
        data = (workdir / "cache.jsonl").read_bytes()
        assert data.count(b'"rationale": "' + written + b'"') == 3 * len(prepared)
        outputs = [json.loads(line)["output"] for line in data.decode("utf-8").splitlines()]
        assert {output["rationale"] for output in outputs} == {rationale}
        sent = len(ep.requests)
        assert run(cfg_path, "run-agents") == 0
        assert len(ep.requests) == sent
        assert (workdir / "cache.jsonl").read_bytes() == data
        assert run(cfg_path, "build-features") == 0

    def test_a_response_that_is_not_utf8_is_a_malformed_envelope(
        self, tmp_path, chat_endpoint, capsys
    ):
        """An encoded surrogate (ED A0 80) is refused like every file input."""
        body = json.dumps(completion_body(agent_json("positive", rationale="Beat @@"))).encode()
        ep = chat_endpoint(lambda prompt, i: (200, body.replace(b"@@", b"\xed\xa0\x80")))
        cfg_path, _, _ = http_run(tmp_path, ep)
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 1
        err = capsys.readouterr().err
        assert _single_error_line(err, "error:") and "malformed chat-completions envelope" in err


class TestHttpRunAgentsFailure:
    def test_a_failure_ends_the_backoffs_of_the_pairs_in_flight(
        self, tmp_path, chat_endpoint, capsys
    ):
        """Pair 1 is refused while pair 2 waits out a 503's ``Retry-After: 5``:
        the run fails at once instead of after pair 2's three waits."""
        first = {"text": None}
        backing_off = threading.Event()

        def script(prompt, i):
            if first["text"] and prompt.endswith(first["text"]):
                if "realized operating performance" in prompt:
                    backing_off.wait(timeout=2)
                    return 401, {"error": "no auth"}
                if "forward guidance" in prompt:
                    backing_off.set()
                    return 503, {"error": "busy"}, {"Retry-After": "5"}
            return lens_answer(prompt, i)

        ep = chat_endpoint(script)
        cfg_path, _, prepared = http_run(tmp_path, ep)
        first["text"] = prepared[0][1]
        capsys.readouterr()
        started = time.monotonic()
        assert run(cfg_path, "run-agents") == 1
        assert time.monotonic() - started < 2
        err = capsys.readouterr().err
        assert _single_error_line(err, "error:") and "401" in err


class TestHttpRunAgentsWindow:
    """The HTTP run-agents contract: at most ``max_in_flight`` requests on the
    wire, answers appended in submission order, a backoff that leaves its
    request slot to other pairs, and an fsync at least every
    ``HTTP_SYNC_EVERY`` answers."""

    def test_no_more_than_max_in_flight_requests_at_once(self, tmp_path, chat_endpoint):
        def script(prompt, i):
            time.sleep(0.002)
            return lens_answer(prompt, i)

        ep = chat_endpoint(script)
        cfg_path, workdir, prepared = http_run(tmp_path, ep, max_in_flight=3)
        assert run(cfg_path, "run-agents") == 0
        assert 2 <= ep.peak_in_service <= 3
        assert cached_pairs(workdir) == [(rid, lens) for rid, _ in prepared for lens in LENSES]

    def test_other_pairs_use_the_slot_while_one_backs_off(self, tmp_path, chat_endpoint, monkeypatch):
        monkeypatch.setattr(agents_module, "BACKOFF_BASE_S", 0.1)
        held = {}

        def script(prompt, i):
            if prompt == held.get("prompt") and i == 0:
                return 503, {"error": "busy"}
            return lens_answer(prompt, i)

        ep = chat_endpoint(script)
        cfg_path, workdir, prepared = http_run(tmp_path, ep, max_in_flight=1)
        held["prompt"] = render_prompt(Lens.GUIDANCE, prepared[0][1])
        assert run(cfg_path, "run-agents") == 0
        prompts = [request["messages"][0]["content"] for request in ep.requests]
        first, retry = (i for i, prompt in enumerate(prompts) if prompt == held["prompt"])
        assert retry - first > 1  # other prompts were sent between the 503 and its retry
        assert cached_pairs(workdir) == [(rid, lens) for rid, _ in prepared for lens in LENSES]

    def test_a_backoff_at_the_head_leaves_a_full_window_on_the_wire(
        self, tmp_path, chat_endpoint, monkeypatch
    ):
        """While the pair at the window's head waits out a 503, the window's
        other pairs go out: more than 63 of them at one transport thread.
        The backoff base is raised past any time sending them could take,
        and the wait ends once 64 have been served, so no timing sets the
        count."""
        monkeypatch.setattr(agents_module, "BACKOFF_BASE_S", 30.0)
        head, others = {}, []
        enough = threading.Event()

        def script(prompt, i):
            time.sleep(0.005)
            if prompt == head.get("prompt"):
                if i == 0:
                    return 503, {"error": "busy"}
            elif i == 0 and head.get("prompt") in ep.calls_by_prompt:
                others.append(prompt)
                if len(others) > 63:
                    enough.set()
            return lens_answer(prompt, i)

        client = pipeline_module.ChatCompletionsClient
        monkeypatch.setattr(
            pipeline_module, "ChatCompletionsClient", functools.partial(client, sleep=enough.wait)
        )
        ep = chat_endpoint(script)
        cfg_path, workdir, prepared = http_run(tmp_path, ep, max_in_flight=1)
        head["prompt"] = render_prompt(Lens.PERFORMANCE, prepared[0][1])
        assert run(cfg_path, "run-agents") == 0
        prompts = [request["messages"][0]["content"] for request in ep.requests]
        first, retry = (i for i, prompt in enumerate(prompts) if prompt == head["prompt"])
        assert retry - first - 1 > 63
        assert cached_pairs(workdir) == [(rid, lens) for rid, _ in prepared for lens in LENSES]

    def test_the_window_size_changes_no_cache_byte(self, tmp_path, chat_endpoint, monkeypatch):
        """One 503 and one schema violation: the cache a one-pair-a-thread
        window writes equals the default window's, apart from created_at."""
        monkeypatch.setattr(agents_module, "BACKOFF_BASE_S", 0.01)
        texts = {}

        def script(prompt, i):
            if i == 0 and prompt == render_prompt(Lens.GUIDANCE, texts["busy"]):
                return 503, {"error": "busy"}
            if i == 0 and prompt == render_prompt(Lens.RISK, texts["violating"]):
                return 200, completion_body("no JSON here")
            return lens_answer(prompt, i)

        workdirs = []
        for window in (1, pipeline_module.WINDOW_PER_THREAD):
            monkeypatch.setattr(pipeline_module, "WINDOW_PER_THREAD", window)
            ep = chat_endpoint(script)
            cfg_path, workdir, prepared = http_run(tmp_path / str(window), ep)
            texts.update(busy=prepared[3][1], violating=prepared[5][1])
            assert run(cfg_path, "run-agents") == 0
            assert len(ep.requests) == 3 * len(prepared) + 2
            workdirs.append(workdir)
        assert b'"retry_count": 1' in without_created_at(workdirs[0])
        assert without_created_at(workdirs[0]) == without_created_at(workdirs[1])

    def test_an_error_keeps_the_answers_before_it_and_a_rerun_completes(
        self, tmp_path, chat_endpoint, capsys
    ):
        refused = {"text": None}

        def script(prompt, i):
            if refused["text"] and "forward guidance" in prompt and prompt.endswith(refused["text"]):
                return 401, {"error": "no auth"}
            return lens_answer(prompt, i)

        ep = chat_endpoint(script)
        clean_cfg, clean_dir, prepared = http_run(tmp_path / "clean", ep)
        assert run(clean_cfg, "run-agents") == 0
        cfg_path, workdir, _ = http_run(tmp_path / "failing", ep)
        refused["text"] = prepared[40][1]  # the guidance pair of the 41st record: pair k = 3 * 40 + 2
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 1
        err = capsys.readouterr().err
        assert _single_error_line(err, "error:") and "401" in err
        submitted = [(rid, lens) for rid, _ in prepared for lens in LENSES]
        assert cached_pairs(workdir) == submitted[: 3 * 40 + 1]

        refused["text"] = None
        assert run(cfg_path, "run-agents") == 0
        assert without_created_at(workdir) == without_created_at(clean_dir)

    def test_only_the_records_of_missing_pairs_are_read(
        self, tmp_path, chat_endpoint, monkeypatch, capsys
    ):
        ep = chat_endpoint(lens_answer)
        cfg_path, workdir, prepared = http_run(tmp_path, ep)
        split = json.loads((workdir / "split.json").read_text())
        subset = workdir / "subset.json"
        subset.write_text(json.dumps({"train": split["train"][::2], "dev": [], "test": []}))
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 0
        sent_before = len(ep.requests)

        def refuse(*args):
            raise AssertionError("the full-parse fallback ran")

        monkeypatch.setattr(pipeline_module.PreparedKeys, "of", refuse)
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 0
        cached = set(split["train"][::2])
        missing = [text for rid, text in prepared if rid not in cached]
        sent = [request["messages"][0]["content"] for request in ep.requests[sent_before:]]
        assert sorted(sent) == sorted(render_prompt(lens, text) for text in missing for lens in Lens)
        assert "0 fallbacks" in capsys.readouterr().out

    def test_no_more_than_sync_every_answers_go_without_an_fsync(
        self, tmp_path, chat_endpoint, monkeypatch
    ):
        monkeypatch.setattr(pipeline_module, "HTTP_SYNC_EVERY", 100)
        ep = chat_endpoint(lens_answer)
        cfg_path, workdir, _ = http_run(tmp_path, ep, n=300)
        cache = workdir / "cache.jsonl"
        synced, fsync = [], os.fsync

        def recording_fsync(fd):
            fsync(fd)
            if cache.exists() and os.path.samestat(os.fstat(fd), os.stat(cache)):
                synced.append(cache.read_bytes().count(b"\n"))

        monkeypatch.setattr(os, "fsync", recording_fsync)
        assert run(cfg_path, "run-agents") == 0
        assert synced[-1] == 900
        assert max(b - a for a, b in zip([0, *synced], synced)) <= 100

    def _recording_puts(self, monkeypatch):
        """The row count of each ``CacheStore.put`` from now on."""
        sizes, put = [], pipeline_module.CacheStore.put

        def recording_put(store, block):
            sizes.append(len(block.digests))
            return put(store, block)

        monkeypatch.setattr(pipeline_module.CacheStore, "put", recording_put)
        return sizes

    def test_one_append_per_sync_every_answers(self, tmp_path, chat_endpoint, monkeypatch):
        monkeypatch.setattr(pipeline_module, "HTTP_SYNC_EVERY", 100)
        ep = chat_endpoint(lens_answer)
        cfg_path, workdir, prepared = http_run(tmp_path, ep, n=300)
        sizes = self._recording_puts(monkeypatch)
        assert run(cfg_path, "run-agents") == 0
        assert sizes == [100] * 9
        assert cached_pairs(workdir) == [(rid, lens) for rid, _ in prepared for lens in LENSES]

    def test_any_error_keeps_exactly_the_answers_before_it(
        self, tmp_path, chat_endpoint, monkeypatch
    ):
        """Not only a ``TransportError``: whatever ``run_agent`` raises at
        pair k, the k answers before it are appended, in the blocks they
        filled and one shorter block, and nothing after it."""
        monkeypatch.setattr(pipeline_module, "HTTP_SYNC_EVERY", 50)
        ep = chat_endpoint(lens_answer)
        cfg_path, workdir, prepared = http_run(tmp_path, ep)
        failing_id, agent = prepared[40][0], pipeline_module.run_agent

        def failing_run_agent(spec, decoding, record, **kwargs):
            if record.id == failing_id and spec.lens is Lens.GUIDANCE:
                raise RuntimeError("judge crashed")
            return agent(spec, decoding, record, **kwargs)

        monkeypatch.setattr(pipeline_module, "run_agent", failing_run_agent)
        sizes = self._recording_puts(monkeypatch)
        with pytest.raises(RuntimeError, match="judge crashed"):
            run(cfg_path, "run-agents")
        k = 3 * 40 + 1
        assert sizes == [50, 50, k - 100]
        assert cached_pairs(workdir) == [(rid, lens) for rid, _ in prepared for lens in LENSES][:k]


class TestRunAgentsFsyncs:
    """``run-agents`` fsyncs the cache once per HTTP block and once when the
    store closes, and at no other point."""

    @staticmethod
    def _cache_fsyncs(monkeypatch, cache_path):
        """A list that grows by one per ``os.fsync`` of ``cache_path``."""
        synced, fsync = [], os.fsync

        def counting_fsync(fd):
            if cache_path.exists() and os.path.samestat(os.fstat(fd), os.stat(cache_path)):
                synced.append(fd)
            return fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return synced

    def test_a_stub_run_fsyncs_once(self, tmp_path, monkeypatch):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        synced = self._cache_fsyncs(monkeypatch, workdir / "cache.jsonl")
        assert run(cfg_path, "run-agents") == 0
        assert len(synced) == 1

    def test_an_http_run_fsyncs_once_per_block_and_once_at_close(
        self, tmp_path, chat_endpoint, monkeypatch
    ):
        monkeypatch.setattr(pipeline_module, "HTTP_SYNC_EVERY", 100)
        cfg_path, workdir, _ = http_run(tmp_path, chat_endpoint(lens_answer), n=300)
        synced = self._cache_fsyncs(monkeypatch, workdir / "cache.jsonl")
        assert run(cfg_path, "run-agents") == 0
        assert len(synced) == 9 + 1


class TestArtifactChecks:
    def test_train_rejects_stale_feature_files(self, pipeline, tmp_path, capsys):
        cfg_path, workdir = pipeline
        write_config(tmp_path, split_fractions=[0.5, 0.25, 0.25])
        assert run(cfg_path, "ingest") == 0
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert "features_train.jsonl" in err and len(err.strip().splitlines()) == 1
        assert run(cfg_path, "build-features") == 0
        assert run(cfg_path, "train") == 0

    def test_reordered_feature_rows_are_stale(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        path = workdir / "features_dev.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[1:] + lines[:1]))
        assert run(cfg_path, "train") == 3
        assert "features_dev.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        ["target-string", "target-true", "target-float", "feature-strings", "feature-true",
         "extra-key"],
    )
    def test_feature_lines_of_the_wrong_type_exit_3(self, pipeline, capsys, edit):
        """numpy would cast each of these to the stored value; the line must hold
        the JSON types the writer writes."""
        cfg_path, workdir = pipeline
        path = workdir / "features_train.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lineno, row = next(
            (i, row) for i, row in enumerate(map(json.loads, lines), start=1) if row["target"] == 1
        )
        if edit == "target-string":
            row["target"] = "1"
        elif edit == "target-true":
            row["target"] = True
        elif edit == "target-float":
            row["target"] = 1.0
        elif edit == "feature-strings":
            row["features"] = [repr(v) for v in row["features"]]
        elif edit == "feature-true":
            row["features"][row["features"].index(1.0, 12)] = True  # the one-hot agent
        else:
            row["note"] = "x"
        lines[lineno - 1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        model_before = sha(workdir / "model.json")
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "features_train.jsonl") and f"line {lineno}" in err
        assert sha(workdir / "model.json") == model_before

    @pytest.mark.parametrize(
        "where, value",
        [
            (("optimizer_report", "tolerance"), "nan"),
            (("optimizer_report", "final_gradient_norm"), "0"),
            (("optimizer_report", "iterations"), "5"),
            (("optimizer_report", "iterations"), 5.0),
            (("n_outputs",), True),
        ],
        ids=["string-tolerance", "string-gradient-norm", "string-iterations", "float-iterations",
             "boolean-outputs"],
    )
    def test_model_optimizer_fields_must_have_their_json_types(
        self, pipeline, capsys, where, value
    ):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        parent = model
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = value
        (workdir / "model.json").write_text(json.dumps(model))
        report_before = sha(workdir / "report.json")
        capsys.readouterr()
        assert run(cfg_path, "evaluate") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "model.json")
        assert sha(workdir / "report.json") == report_before

    def test_model_without_optimizer_report_exits_3(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        del model["optimizer_report"]
        (workdir / "model.json").write_text(json.dumps(model))
        assert run(cfg_path, "evaluate") == 3
        err = capsys.readouterr().err
        assert "model.json" in err and len(err.strip().splitlines()) == 1

    def test_split_without_dev_exits_3(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        split = json.loads((workdir / "split.json").read_text())
        del split["dev"]
        (workdir / "split.json").write_text(json.dumps(split))
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert "split.json" in err and len(err.strip().splitlines()) == 1

    def test_unconverged_fit_exits_3(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, train={"max_iter": 1})
        for stage in (("synth", "--n", "300", "--seed", "42"), ("ingest",), ("run-agents",),
                      ("build-features",)):
            assert run(cfg_path, *stage) == 0
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert "features_train.jsonl" in err and len(err.strip().splitlines()) == 1

    def test_cache_key_output_disagreement_exits_3(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        cache = workdir / "cache.jsonl"
        lines = cache.read_bytes().splitlines(keepends=True)
        entry = json.loads(lines[1])
        entry["key"]["disclosure_id"] = json.loads(lines[4])["key"]["disclosure_id"]
        lines[1] = (json.dumps(entry) + "\n").encode()
        cache.write_bytes(b"".join(lines))
        assert run(cfg_path, "evaluate") == 3
        assert f"byte offset {len(lines[0])}" in capsys.readouterr().err

    def test_reader_stages_leave_cache_untouched(self, pipeline):
        cfg_path, workdir = pipeline
        cache = workdir / "cache.jsonl"
        before = (cache.read_bytes(), cache.stat().st_size, cache.stat().st_mtime_ns)
        for stage in ("build-features", "train", "evaluate"):
            assert run(cfg_path, stage) == 0
        assert (cache.read_bytes(), cache.stat().st_size, cache.stat().st_mtime_ns) == before

    def test_resume_does_not_need_the_latents_sidecar(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        (workdir / "latents.jsonl").unlink()
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 0
        assert "900 cached, 0 fetched" in capsys.readouterr().out

    def test_interrupted_append_resumes_cleanly(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        cache = workdir / "cache.jsonl"
        raw = cache.read_bytes()
        cache.write_bytes(raw[:-25])
        assert run(cfg_path, "run-agents") == 0
        assert "1 fetched" in capsys.readouterr().out
        assert run(cfg_path, "run-agents") == 0
        assert "900 cached, 0 fetched" in capsys.readouterr().out

    def test_model_without_its_prompt_digest_exits_3(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        for key in ("prompt_hash_digest", "n_outputs"):
            model = json.loads((workdir / "model.json").read_text())
            saved = model.pop(key)
            (workdir / "model.json").write_text(json.dumps(model))
            capsys.readouterr()
            assert run(cfg_path, "evaluate") == 3
            err = capsys.readouterr().err
            assert _single_error_line(err, "model.json") and key in err
            model[key] = saved
            (workdir / "model.json").write_text(json.dumps(model))

    def test_model_with_an_empty_prompt_digest_is_stale(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        model["prompt_hash_digest"] = ""
        (workdir / "model.json").write_text(json.dumps(model))
        report_before = sha(workdir / "report.json")
        capsys.readouterr()
        assert run(cfg_path, "evaluate") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "model.json") and "different prompts" in err
        assert sha(workdir / "report.json") == report_before

    @pytest.mark.parametrize(
        "where, value",
        [
            (("weights",), ["x"] * 15),
            (("standardizer", "stds", 3), math.nan),
            (("weights", 0), math.inf),
        ],
        ids=["string-weights", "nan-std", "infinite-weight"],
    )
    def test_model_numbers_must_be_finite(self, pipeline, capsys, where, value):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        parent = model
        for step in where[:-1]:
            parent = parent[step]
        parent[where[-1]] = value
        (workdir / "model.json").write_text(json.dumps(model))  # NaN/Infinity tokens
        report_before = sha(workdir / "report.json")
        capsys.readouterr()
        assert run(cfg_path, "evaluate") == 3
        assert _single_error_line(capsys.readouterr().err, "model.json")
        assert sha(workdir / "report.json") == report_before

    @pytest.mark.parametrize(
        "mask, stds6",
        [
            ([False] * 15, 0.0),
            ([1, "x", None, True] + [False] * 11, 1.0),
            ([True] * 15, 1.0),
            (None, 0.0),
        ],
        ids=["all-false-zero-std", "not-booleans", "all-true", "right-mask-zero-std"],
    )
    def test_model_standardizer_must_mark_the_standardized_positions(
        self, pipeline, capsys, mask, stds6
    ):
        cfg_path, workdir = pipeline
        model = json.loads((workdir / "model.json").read_text())
        if mask is not None:
            model["standardizer"]["mask"] = mask
        model["standardizer"]["stds"][6] = stds6
        (workdir / "model.json").write_text(json.dumps(model))
        report_before = sha(workdir / "report.json")
        capsys.readouterr()
        assert run(cfg_path, "evaluate") == 3
        assert _single_error_line(capsys.readouterr().err, "model.json")
        assert sha(workdir / "report.json") == report_before

    def test_run_agents_refuses_latents_that_lack_a_disclosure(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",)):
            assert run(cfg_path, *args) == 0
        split = json.loads((workdir / "split.json").read_text())
        subset = tmp_path / "subset.json"
        subset.write_text(json.dumps({"train": split["train"][:10], "dev": [], "test": []}))
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 0
        # The last disclosure in corpus order: every other pair would be fetched first.
        last_id = json.loads((workdir / "prepared.jsonl").read_text().splitlines()[-1])["id"]
        latents = workdir / "latents.jsonl"
        kept = [line for line in latents.read_text().splitlines(keepends=True)
                if json.loads(line)["id"] != last_id]
        latents.write_text("".join(kept))
        cache_before = sha(workdir / "cache.jsonl")
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "latents.jsonl") and last_id in err
        assert sha(workdir / "cache.jsonl") == cache_before

    @pytest.fixture
    def ingested(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",)):
            assert run(cfg_path, *args) == 0
        capsys.readouterr()
        return cfg_path, workdir

    @pytest.mark.parametrize(
        "key, value",
        [
            ("clean_text", 5),
            ("clean_text", ""),
            ("id", 5),
            ("ticker", 5),
            ("text", None),
            ("timestamp", 5),
            ("next_day_return", True),
        ],
    )
    @pytest.mark.parametrize("stage", ["run-agents", "build-features"])
    def test_prepared_values_of_the_wrong_type_exit_3(self, ingested, capsys, key, value, stage):
        cfg_path, workdir = ingested
        path = workdir / "prepared.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[key] = value
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        assert run(cfg_path, stage) == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "prepared.jsonl") and "line 2" in err

    @pytest.mark.parametrize(
        "train", ["abc", 5, [5], None], ids=["string", "number", "array-of-number", "missing"]
    )
    @pytest.mark.parametrize("stage", ["build-features", "run-agents --split"])
    def test_split_lists_must_be_arrays_of_id_strings(self, ingested, capsys, train, stage):
        cfg_path, workdir = ingested
        path = workdir / "split.json"
        split = json.loads(path.read_text())
        if train is None:
            del split["train"]
        else:
            split["train"] = train
        path.write_text(json.dumps(split))
        args = ("run-agents", "--split", str(path)) if stage == "run-agents --split" else (stage,)
        assert run(cfg_path, *args) == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "split.json") and "malformed split file" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_seed", 1.5), ("noise_seed", True), ("performance_signal", True),
            ("guidance_signal", "0.5"), ("risk_signal", None), ("risk_signal", 1.5),
            ("performance_signal", 10**400), ("performance_signal", [0.5]),
            ("extra_signal", 0.5),
        ],
    )
    def test_latent_values_of_the_wrong_type_exit_3(self, ingested, capsys, key, value):
        cfg_path, workdir = ingested
        split = json.loads((workdir / "split.json").read_text())
        subset = workdir / "subset.json"
        subset.write_text(json.dumps({"train": split["train"][:10], "dev": [], "test": []}))
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 0
        path = workdir / "latents.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[-1])
        row[key] = value
        lines[-1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        cache_before = sha(workdir / "cache.jsonl")
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "latents.jsonl") and f"line {len(lines)}" in err
        assert sha(workdir / "cache.jsonl") == cache_before

    def test_latents_with_a_repeated_id_exit_3(self, ingested, capsys):
        cfg_path, workdir = ingested
        split = json.loads((workdir / "split.json").read_text())
        subset = workdir / "subset.json"
        subset.write_text(json.dumps({"train": split["train"][:10], "dev": [], "test": []}))
        assert run(cfg_path, "run-agents", "--split", str(subset)) == 0
        path = workdir / "latents.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[-1])
        for key in ("performance_signal", "guidance_signal", "risk_signal"):
            row[key] = -row[key]
        path.write_text("".join(lines) + json.dumps(row) + "\n")
        cache_before = sha(workdir / "cache.jsonl")
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "latents.jsonl")
        assert f"{row['id']!r} on lines {len(lines)} and {len(lines) + 1}" in err
        assert sha(workdir / "cache.jsonl") == cache_before

    @pytest.mark.parametrize("line", ["5", '"x"', "null", "id 7"])
    def test_latents_line_that_is_not_an_object_with_a_string_id_exit_3(
        self, ingested, capsys, line
    ):
        cfg_path, workdir = ingested
        path = workdir / "latents.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        if line == "id 7":
            line = json.dumps({**json.loads(lines[1]), "id": 7})
        lines[1] = line + "\n"
        path.write_text("".join(lines))
        assert run(cfg_path, "run-agents") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "latents.jsonl") and "line 2:" in err
        assert not (workdir / "cache.jsonl").exists()  # nothing appended

    def test_failed_run_agents_leaves_no_cache(self, ingested, capsys):
        """A run that appended nothing must not turn the next stage's "agent
        cache missing" (exit 2) into a coverage failure (exit 3)."""
        cfg_path, workdir = ingested
        assert run(cfg_path, "build-features") == 2
        assert "agent cache missing" in capsys.readouterr().err
        path = workdir / "latents.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = "5\n"
        path.write_text("".join(lines))
        assert run(cfg_path, "run-agents") == 3
        capsys.readouterr()
        assert run(cfg_path, "build-features") == 2
        assert _single_error_line(capsys.readouterr().err, "agent cache missing")

    @pytest.mark.parametrize("case", ["repeated-line", "extra-key"])
    @pytest.mark.parametrize("stage", ["run-agents", "build-features", "train", "evaluate"])
    def test_prepared_line_repeated_or_with_an_extra_key_exits_3(
        self, pipeline, capsys, case, stage
    ):
        cfg_path, workdir = pipeline
        path = workdir / "prepared.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        if case == "repeated-line":
            row["clean_text"] = "a different text"
            row["next_day_return"] = -row["next_day_return"]
            lines.insert(2, json.dumps(row) + "\n")
            named = f"line 3: duplicate id {row['id']!r} on lines 2 and 3"
        else:
            row["sector"] = "tech"
            lines[1] = json.dumps(row) + "\n"
            named = "line 2: must carry keys exactly"
        path.write_text("".join(lines))
        before = {name: sha(workdir / name) for name in ARTIFACTS}
        capsys.readouterr()
        assert run(cfg_path, stage) == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "prepared.jsonl") and named in err
        assert {name: sha(workdir / name) for name in ARTIFACTS} == before


def test_cli_imports_nothing_but_the_stdlib_and_numpy():
    """Every top-level module the CLI import loads is stdlib, numpy or the package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ensemble_judge

    src = str(Path(ensemble_judge.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import ensemble_judge.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = {name.partition(".")[0] for name in out.stdout.split()}
    assert "ensemble_judge" in loaded and "numpy" in loaded
    assert loaded - sys.stdlib_module_names - {"numpy", "ensemble_judge"} == set()


def test_cli_import_does_not_load_numpy_random():
    """Only stub runs draw noise; no other stage pays for numpy.random."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ensemble_judge

    src = str(Path(ensemble_judge.__file__).resolve().parents[1])
    code = "import sys, ensemble_judge.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def _single_error_line(err, name):
    lines = err.strip().splitlines()
    return len(lines) == 1 and name in lines[0] and "Traceback" not in err


class TestMalformedInternalArtifacts:
    @pytest.mark.parametrize(
        "name, key, stage",
        [
            ("prepared.jsonl", "clean_text", "train"),
            ("features_train.jsonl", "target", "train"),
            ("latents.jsonl", "noise_seed", "run-agents"),
        ],
    )
    def test_row_missing_a_key_exits_3(self, tmp_path, capsys, name, key, stage):
        cfg_path, workdir = write_config(tmp_path)
        stages = [("synth", "--n", "300", "--seed", "42"), ("ingest",)]
        if stage == "train":
            stages += [("run-agents",), ("build-features",)]
        for args in stages:
            assert run(cfg_path, *args) == 0
        path = workdir / name
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        del row[key]
        lines[1] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(cfg_path, stage) == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, name) and "line 2" in err

    @pytest.mark.parametrize(
        "name, key, stage, code",
        [("prepared.jsonl", "clean_text", "run-agents", 3), ("corpus.jsonl", "text", "ingest", 1)],
    )
    def test_a_lone_surrogate_is_refused_naming_its_line(
        self, tmp_path, capsys, name, key, stage, code
    ):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        if stage != "ingest":
            assert run(cfg_path, "ingest") == 0
        path = workdir / name
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[1])
        row[key] += "\ud800"
        lines[1] = json.dumps(row) + "\n"  # written as the escape \ud800
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(cfg_path, stage) == code
        err = capsys.readouterr().err
        assert _single_error_line(err, name) and "line 2" in err and "surrogate" in err

    @pytest.mark.parametrize("bad", [b"\xff", b"\xed\xa0\x80"], ids=["0xff", "encoded-surrogate"])
    @pytest.mark.parametrize(
        "name, stage, code, named",
        [
            ("corpus.jsonl", ("ingest",), 1, "line 2: "),
            ("prepared.jsonl", ("run-agents",), 3, "line 2: "),
            ("latents.jsonl", ("run-agents",), 3, "line 2: "),
            ("cache.jsonl", ("build-features",), 3, "byte offset"),
            ("report.json", ("report", "--format", "json"), 3, "malformed report file"),
            ("split.json", ("build-features",), 3, "malformed split file"),
            ("model.json", ("evaluate",), 3, "malformed model file"),
            ("config.json", ("ingest",), 1, "invalid JSON"),
        ],
    )
    def test_bytes_that_are_not_utf8_are_refused_naming_the_file(
        self, tmp_path, capsys, bad, name, stage, code, named
    ):
        """Every input is decoded as strict UTF-8 inside the check that names
        it: a byte that starts no character (0xff) and a surrogate encoded as
        if it were a character (ED A0 80), put inside the first string on
        line 2, or on the config's one line."""
        cfg_path, workdir = write_config(tmp_path)
        stages = [("synth", "--n", "300", "--seed", "42"), ("ingest",), ("run-agents",)]
        stages += [("build-features",), ("train",), ("evaluate",)]
        before = {"ingest": 1, "run-agents": 2, "build-features": 3, "evaluate": 5, "report": 6}[stage[0]]
        for args in stages[:before]:
            assert run(cfg_path, *args) == 0
        (workdir / "cache.jsonl.table").unlink(missing_ok=True)  # so every cache line is read
        path = cfg_path if name == "config.json" else workdir / name
        data = path.read_bytes()
        at = data.index(b'"', data.find(b"\n") + 1) + 1
        path.write_bytes(data[:at] + bad + data[at:])
        capsys.readouterr()
        assert run(cfg_path, *stage) == code
        err = capsys.readouterr().err
        assert _single_error_line(err, name) and named in err
        assert "'utf-8' codec can't decode" in err


class TestTrainChecksFeatureValues:
    def test_edited_confidence_exits_3(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        path = workdir / "features_train.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[3])
        row["features"][4] = 0.5 if row["features"][4] != 0.5 else 0.25
        lines[3] = json.dumps(row) + "\n"
        path.write_text("".join(lines))
        model_before = sha(workdir / "model.json")
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "features_train.jsonl") and "agent cache" in err
        assert sha(workdir / "model.json") == model_before
        assert run(cfg_path, "build-features") == 0
        assert run(cfg_path, "train") == 0

    @pytest.mark.parametrize("edit", ["keys-reordered", "integer-feature"])
    def test_same_values_in_other_bytes_exit_3(self, pipeline, capsys, edit):
        """The file must hold the bytes build-features writes, not just values
        that parse to the same row."""
        cfg_path, workdir = pipeline
        path = workdir / "features_train.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        row = json.loads(lines[2])
        if edit == "keys-reordered":
            line = json.dumps(dict(reversed(row.items())))
        else:
            features = row["features"]
            features[features.index(1.0, 12)] = 1  # the one-hot agent, written as 1.0
            line = json.dumps(row)
        assert line + "\n" != lines[2] and json.loads(line) == json.loads(lines[2])
        lines[2] = line + "\n"
        path.write_text("".join(lines))
        model_before = sha(workdir / "model.json")
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "features_train.jsonl") and "line 3 differs" in err
        assert sha(workdir / "model.json") == model_before

    def test_coverage_is_checked_before_the_feature_files(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",), ("run-agents",)):
            assert run(cfg_path, *args) == 0
        cache = workdir / "cache.jsonl"
        cache.write_text("".join(cache.read_text().splitlines(keepends=True)[1:]))
        capsys.readouterr()
        assert run(cfg_path, "train") == 3
        assert "missing 1 agent outputs" in capsys.readouterr().err

    def test_empty_dev_split_is_refused(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path, split_fractions=[0.995, 0.0025, 0.0025])
        assert run(cfg_path, "synth", "--n", "100", "--seed", "42") == 0
        capsys.readouterr()
        assert run(cfg_path, "ingest") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and _single_error_line(err, "dev split empty at 100 records")
        assert not (workdir / "prepared.jsonl").exists()
        assert not (workdir / "split.json").exists()

    def test_train_refuses_a_split_file_with_an_empty_train_list(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "100", "--seed", "42"), ("ingest",), ("run-agents",)):
            assert run(cfg_path, *args) == 0
        split = json.loads((workdir / "split.json").read_text())
        split["dev"] += split["train"]
        split["train"] = []
        (workdir / "split.json").write_text(json.dumps(split))
        assert run(cfg_path, "build-features") == 0
        capsys.readouterr()
        assert run(cfg_path, "train") == 1
        err = capsys.readouterr().err
        assert _single_error_line(err, "split.json") and "train split holds zero examples" in err
        assert not (workdir / "model.json").exists()

    def test_train_refuses_a_split_file_with_an_empty_dev_list(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "100", "--seed", "42"), ("ingest",), ("run-agents",)):
            assert run(cfg_path, *args) == 0
        split = json.loads((workdir / "split.json").read_text())
        split["train"] += split["dev"]
        split["dev"] = []
        (workdir / "split.json").write_text(json.dumps(split))
        assert run(cfg_path, "build-features") == 0
        assert (workdir / "features_dev.jsonl").read_text() == ""
        capsys.readouterr()
        assert run(cfg_path, "train") == 1
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "zero examples" in err
        assert not (workdir / "model.json").exists()

    def test_evaluate_refuses_a_split_file_with_an_empty_test_list(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",), ("run-agents",),
                     ("build-features",), ("train",)):
            assert run(cfg_path, *args) == 0
        split = json.loads((workdir / "split.json").read_text())
        split["dev"] += split["test"]
        split["test"] = []
        (workdir / "split.json").write_text(json.dumps(split))
        capsys.readouterr()
        assert run(cfg_path, "evaluate") == 1
        err = capsys.readouterr().err
        assert _single_error_line(err, "split.json") and "test split holds zero examples" in err
        assert not (workdir / "report.json").exists()


ARTIFACTS = (
    "corpus.jsonl",
    "latents.jsonl",
    "prepared.jsonl",
    "split.json",
    "cache.jsonl",
    "features_train.jsonl",
    "features_dev.jsonl",
    "features_test.jsonl",
    "model.json",
    "report.json",
    "report.txt",
)


def _stamp(path):
    return path.read_bytes(), path.stat().st_mtime_ns


class TestCacheSnapshot:
    """``cache.jsonl.table`` is derived: only a writer that appended writes it,
    and with or without it every artifact has the same bytes."""

    def test_reader_stages_leave_the_workdir_and_the_snapshot_as_they_were(self, pipeline):
        cfg_path, workdir = pipeline
        snapshot = workdir / "cache.jsonl.table"
        listing = sorted(p.name for p in workdir.iterdir())
        before = _stamp(snapshot)
        for stage in ("build-features", "train", "evaluate"):
            assert run(cfg_path, stage) == 0
        assert sorted(p.name for p in workdir.iterdir()) == listing
        assert _stamp(snapshot) == before

    def test_resume_that_appends_nothing_leaves_the_snapshot_as_it_was(self, pipeline, capsys):
        cfg_path, workdir = pipeline
        snapshot = workdir / "cache.jsonl.table"
        before = _stamp(snapshot)
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 0
        assert "900 cached, 0 fetched" in capsys.readouterr().out
        assert _stamp(snapshot) == before

    def test_deleting_the_snapshot_changes_no_artifact_byte(self, pipeline):
        cfg_path, workdir = pipeline
        snapshot = workdir / "cache.jsonl.table"
        before = {name: sha(workdir / name) for name in ARTIFACTS}
        snapshot_bytes = snapshot.read_bytes()
        snapshot.unlink()
        for stage in ("build-features", "train", "evaluate"):
            assert run(cfg_path, stage) == 0
        assert not snapshot.exists()
        assert {name: sha(workdir / name) for name in ARTIFACTS} == before
        assert run(cfg_path, "run-agents") == 0
        assert snapshot.read_bytes() == snapshot_bytes

    def test_cache_without_a_snapshot_replays_byte_identically(self, pipeline):
        """A cache written before snapshots existed: resume, then the readers."""
        cfg_path, workdir = pipeline
        before = {name: sha(workdir / name) for name in ARTIFACTS}
        (workdir / "cache.jsonl.table").unlink()
        for name in ("features_train.jsonl", "features_dev.jsonl", "features_test.jsonl",
                     "model.json", "report.json", "report.txt"):
            (workdir / name).unlink()
        for stage in ("run-agents", "build-features", "train", "evaluate"):
            assert run(cfg_path, stage) == 0
        assert {name: sha(workdir / name) for name in ARTIFACTS} == before


# sha256 of a fresh `synth --n 300 --seed 7` -> `ingest` -> `run-agents`
# cache.jsonl with every created_at value blanked, recorded before the stub
# noise was drawn in batches and the store wrote its lines itself.
PINNED_CACHE_SHA256 = "6ef6dc5bba50ecea40dfa92c177a2c33f636c1d386086fe224ed6b0596fe9568"


def test_cold_stub_cache_bytes_are_pinned(tmp_path):
    """The stub noise stream and the cache line bytes, in about a second."""
    cfg_path, workdir = write_config(tmp_path)
    for args in (("synth", "--n", "300", "--seed", "7"), ("ingest",), ("run-agents",)):
        assert run(cfg_path, *args) == 0
    blanked = re.sub(rb'"created_at": "[^"]*"', b'"created_at": ""',
                     (workdir / "cache.jsonl").read_bytes())
    assert blanked.count(b'"created_at": ""') == 900
    assert hashlib.sha256(blanked).hexdigest() == PINNED_CACHE_SHA256


# Deep enough to pass the interpreter's recursion limit inside ``json.loads``.
NESTED = "[" * 100_000 + "]" * 100_000


class TestJsonNestedPastTheRecursionLimit:
    """Every JSON reader turns a RecursionError into its file's documented
    exit code and one ``error:`` line."""

    def test_config_exits_1(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(NESTED)
        assert run(path, "ingest") == 1
        assert _single_error_line(capsys.readouterr().err, "config.json")

    @pytest.mark.parametrize(
        "name, stage",
        [("cache.jsonl", "build-features"), ("split.json", "build-features"),
         ("model.json", "evaluate")],
    )
    def test_stage_input_exits_3(self, pipeline, capsys, name, stage):
        cfg_path, workdir = pipeline
        path = workdir / name
        if name == "cache.jsonl":  # the second line, its rationale nested
            lines = path.read_text().splitlines(keepends=True)
            lines[1] = re.sub(r'"rationale": "[^"]*"', f'"rationale": {NESTED}', lines[1])
            path.write_text("".join(lines))
        else:
            path.write_text(NESTED)
        capsys.readouterr()
        assert run(cfg_path, stage) == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, name)
        if name == "cache.jsonl":
            assert "corrupted line at byte offset" in err

    def test_latents_line_exits_3(self, tmp_path, capsys):
        cfg_path, workdir = write_config(tmp_path)
        for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",)):
            assert run(cfg_path, *args) == 0
        path = workdir / "latents.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = NESTED + "\n"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(cfg_path, "run-agents") == 3
        err = capsys.readouterr().err
        assert _single_error_line(err, "latents.jsonl") and "line 2:" in err


# The exit code README documents for each public refusal, by where it is imported from.
EXIT_CODES = [
    ("pipeline", "MissingArtifactError", 2),
    ("artifacts", "ArtifactError", 3),
    ("pipeline", "CoverageError", 3),
    ("pipeline", "StaleModelError", 3),
    ("store", "CacheIntegrityError", 3),
    ("store", "CacheCorruptionError", 3),
    ("meta", "ConvergenceError", 3),
    ("artifacts", "InputError", 1),
    ("ingest", "CorpusFormatError", 1),
    ("agents", "TransportError", 1),
]


@pytest.mark.parametrize("module, name, code", EXIT_CODES, ids=[name for _, name, _ in EXIT_CODES])
def test_each_refusal_carries_its_documented_exit_code(module, name, code):
    refusal = getattr(importlib.import_module(f"ensemble_judge.{module}"), name)
    assert issubclass(refusal, Refusal) and refusal.exit_code == code


class TestDefectsAreNotRefusals:
    """Only a refusal raised on purpose prints as one ``error:`` line: a check
    that fails by a defect of its own raises out of the CLI, however its
    exception is named."""

    def test_a_defect_in_the_disclosure_check_propagates_from_ingest(self, tmp_path, monkeypatch):
        cfg_path, workdir = write_config(tmp_path)
        assert run(cfg_path, "synth", "--n", "100", "--seed", "42") == 0

        def broken_check(keys):
            def check(obj):
                raise TypeError("injected defect")

            return check

        monkeypatch.setattr(ingest_module, "_disclosure_check", broken_check)
        with pytest.raises(TypeError, match="injected defect"):
            run(cfg_path, "ingest")
        assert not (workdir / "prepared.jsonl").exists()

    @pytest.mark.parametrize("stage", ["build-features", "evaluate"])
    def test_a_defect_in_the_cache_line_parser_propagates_from_a_reader_stage(
        self, pipeline, monkeypatch, stage
    ):
        cfg_path, workdir = pipeline
        (workdir / "cache.jsonl.table").unlink()  # so every cache line is parsed

        def broken_parse(line):
            raise TypeError("injected defect")

        monkeypatch.setattr(store_module, "_parse_line", broken_parse)
        with pytest.raises(TypeError, match="injected defect"):
            run(cfg_path, stage)
