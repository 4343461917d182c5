"""Config loading: defaults stated once (dataclasses and the functions they feed), bad sections."""

import inspect
import json

import pytest

from ensemble_judge.config import EvalConfig, RunConfig, StubConfig, TrainConfig, load_config
from ensemble_judge.evaluation import evaluate_judgments
from ensemble_judge.ingest import chronological_split
from ensemble_judge.meta import train_meta_model


def _defaults(fn):
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not inspect.Parameter.empty
    }


def test_minimal_config_takes_the_dataclass_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "workdir": "run",
                "corpus_path": "corpus.jsonl",
                "latents_path": "latents.jsonl",
                "stub_agents": {"enabled": True},
            }
        )
    )
    assert load_config(path) == RunConfig(
        workdir=tmp_path / "run",
        corpus_path=tmp_path / "corpus.jsonl",
        latents_path=tmp_path / "latents.jsonl",
        stub=StubConfig(enabled=True),
    )


def test_config_defaults_match_the_stage_function_defaults():
    train = _defaults(train_meta_model)
    assert (train["grid"], train["tol"], train["max_iter"]) == (
        TrainConfig.grid,
        TrainConfig.tol,
        TrainConfig.max_iter,
    )
    evaluate = _defaults(evaluate_judgments)
    assert (evaluate["delta"], evaluate["sensitivity_deltas"]) == (
        EvalConfig.delta,
        EvalConfig.sensitivity_deltas,
    )
    assert _defaults(chronological_split)["fractions"] == RunConfig.split_fractions


def test_null_section_is_a_config_error(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {"workdir": "run", "corpus_path": "c", "latents_path": "l",
             "stub_agents": {"enabled": True}, "train": None}
        )
    )
    with pytest.raises(ValueError, match="bad or missing config field"):
        load_config(path)
