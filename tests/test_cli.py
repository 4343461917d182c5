import hashlib
import json
import math
import re

import pytest

from ensemble_judge.cli import main
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


class TestHttpAgentsViaCli:
    def test_pipeline_with_mock_endpoint(self, tmp_path, chat_endpoint):
        # All three lenses served by one scripted endpoint with logprobs.
        def script(prompt, i):
            if "realized operating performance" in prompt:
                label = "positive"
            elif "forward guidance" in prompt:
                label = "neutral"
            else:
                label = "negative"
            content = agent_json(label, confidence=0.75)
            return 200, completion_body(content)

        ep = chat_endpoint(script)
        agents = [
            {"lens": lens, "model_name": f"m-{lens}", "endpoint_url": ep.url, "supports_logprobs": False}
            for lens in ("performance", "guidance", "risk")
        ]
        cfg_path, workdir = write_config(
            tmp_path, stub_agents={"enabled": False}, agents=agents, max_in_flight=3
        )
        assert run(cfg_path, "synth", "--n", "300", "--seed", "42") == 0
        assert run(cfg_path, "ingest") == 0
        assert run(cfg_path, "run-agents") == 0
        cache_lines = (workdir / "cache.jsonl").read_text().splitlines()
        assert len(cache_lines) == 900
        assert run(cfg_path, "build-features") == 0
        rows = [json.loads(l) for l in (workdir / "features_train.jsonl").read_text().splitlines()]
        assert all(row["features"][:3] == [1.0, 0.0, -1.0] for row in rows)


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
        [("noise_seed", 1.5), ("noise_seed", True), ("performance_signal", True)],
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


def test_cli_import_does_not_load_requests():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ensemble_judge

    src = str(Path(ensemble_judge.__file__).resolve().parents[1])
    code = "import sys, ensemble_judge.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


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
