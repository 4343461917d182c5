"""Config loading: defaults stated once (in the dataclasses), bad sections."""

import json
import re

import pytest

from ensemble_judge.config import RunConfig, StubConfig, load_config


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


def _write(tmp_path, **fields):
    cfg = {
        "workdir": "run",
        "corpus_path": "corpus.jsonl",
        "latents_path": "latents.jsonl",
        "stub_agents": {"enabled": True},
    }
    cfg.update(fields)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _http_agents(**extra):
    return [
        {"lens": lens, "model_name": "m", "endpoint_url": "http://localhost:1/v1", **extra}
        for lens in ("performance", "guidance", "risk")
    ]


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"sed": 7}, "sed"),
        ({"allow_extra_keys": True}, "allow_extra_keys"),
        ({"stub_agents": {"enabled": True, "noise": 0.1}}, "stub_agents.noise"),
        ({"preprocess": {"max_token": 512}}, "preprocess.max_token"),
        ({"train": {"grid": [1.0], "tolerance": 1e-6}}, "train.tolerance"),
        ({"eval": {"deltas": [0.1]}}, "eval.deltas"),
        (
            {"stub_agents": {"enabled": False}, "agents": _http_agents(logprobs=True)},
            "agents[0].logprobs",
        ),
    ],
)
def test_unknown_key_is_a_config_error_naming_it(tmp_path, fields, key):
    with pytest.raises(ValueError, match=rf"unknown config key {re.escape(key)}$"):
        load_config(_write(tmp_path, **fields))


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"stub_agents": {"enabled": "false"}}, "stub_agents.enabled"),
        ({"stub_agents": {"enabled": 1}}, "stub_agents.enabled"),
        ({"seed": 42.9}, "seed"),
        ({"seed": 42.0}, "seed"),
        ({"seed": "42"}, "seed"),
        ({"max_in_flight": True}, "max_in_flight"),
        ({"max_output_tokens": 12.5}, "max_output_tokens"),
        ({"preprocess": {"max_tokens": False}}, "preprocess.max_tokens"),
        ({"train": {"max_iter": 1.5}}, "train.max_iter"),
        (
            {"stub_agents": {"enabled": False}, "agents": _http_agents(supports_logprobs="no")},
            "agents[0].supports_logprobs",
        ),
    ],
)
def test_bools_and_ints_must_have_their_json_type(tmp_path, fields, key):
    with pytest.raises(ValueError, match=rf"bad or missing config field: {re.escape(key)}: "):
        load_config(_write(tmp_path, **fields))


def test_strict_values_of_the_right_type_load(tmp_path):
    config = load_config(
        _write(
            tmp_path,
            seed=7,
            max_in_flight=2,
            stub_agents={"enabled": False},
            agents=_http_agents(supports_logprobs=True),
            train={"max_iter": 10},
        )
    )
    assert (config.seed, config.max_in_flight, config.stub.enabled) == (7, 2, False)
    assert config.train.max_iter == 10
    assert all(spec.supports_logprobs for spec in config.agents)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"max_output_tokens": 0}, "max_output_tokens"),
        ({"train": {"tol": 0}}, "train.tol"),
        ({"train": {"max_iter": 0}}, "train.max_iter"),
        ({"train": {"grid": []}}, "train.grid"),
        ({"train": {"grid": [-1]}}, "train.grid"),
    ],
)
def test_a_value_out_of_range_is_refused_at_load_naming_its_key(tmp_path, capsys, fields, key):
    """Checked as the config loads, not where the value is first used, so
    every command exits 1 before it reads anything else."""
    from ensemble_judge.cli import main

    assert main(["ingest", "--config", str(_write(tmp_path, **fields))]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key} must be")


def test_cli_reports_an_unknown_key_on_one_line(tmp_path, capsys):
    from ensemble_judge.cli import main

    assert main(["ingest", "--config", str(_write(tmp_path, sed=7))]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].endswith("unknown config key sed")


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"train": {"tol": True}}, "train.tol"),
        ({"train": {"tol": float("nan")}}, "train.tol"),
        ({"train": {"tol": float("inf")}}, "train.tol"),
        ({"train": {"tol": 10**400}}, "train.tol"),
        ({"train": {"grid": "15"}}, "train.grid"),
        ({"train": {"grid": [1, "10"]}}, "train.grid"),
        ({"preprocess": {"chars_per_token": "4"}}, "preprocess.chars_per_token"),
        ({"eval": {"delta": "0.1"}}, "eval.delta"),
        ({"eval": {"sensitivity_deltas": [0.1, False]}}, "eval.sensitivity_deltas"),
        ({"split_fractions": "1"}, "split_fractions"),
        ({"split_fractions": [0.6, 0.2, True]}, "split_fractions"),
        (
            {"stub_agents": {"enabled": False}, "agents": _http_agents(model_name=5)},
            "agents[0].model_name",
        ),
        (
            {"stub_agents": {"enabled": False}, "agents": _http_agents(endpoint_url=["http://x"])},
            "agents[0].endpoint_url",
        ),
    ],
)
def test_numbers_arrays_and_strings_must_have_their_json_type(tmp_path, fields, key):
    with pytest.raises(ValueError, match=rf"bad or missing config field: {re.escape(key)}: "):
        load_config(_write(tmp_path, **fields))


def test_integers_load_as_numbers(tmp_path):
    config = load_config(
        _write(tmp_path, train={"grid": [1, 10], "tol": 1},
               eval={"delta": 0, "sensitivity_deltas": []})
    )
    assert (config.train.grid, config.train.tol) == ((1.0, 10.0), 1.0)
    assert (config.eval.delta, config.eval.sensitivity_deltas) == (0.0, ())
    assert all(type(v) is float for v in (*config.train.grid, config.train.tol, config.eval.delta))


def test_cli_reports_a_bad_number_on_one_line(tmp_path, capsys):
    from ensemble_judge.cli import main

    assert main(["ingest", "--config", str(_write(tmp_path, train={"tol": True}))]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "bad or missing config field: train.tol: " in err[0]


BAD_ENDPOINT_URLS = [
    "localhost:8000/v1/chat/completions",
    "ftp://x/y",
    "http:///nohost",
    "http://host:port/v1",
    "http://host/v1/chat completions",
    "http://host/v1/caf\u00e9",
    "",
]


@pytest.mark.parametrize("url", BAD_ENDPOINT_URLS)
def test_endpoint_url_must_be_http_or_https_with_a_host(tmp_path, url):
    agents = _http_agents()
    agents[1]["endpoint_url"] = url
    with pytest.raises(
        ValueError, match=r"bad or missing config field: agents\[1\]\.endpoint_url: "
    ):
        load_config(_write(tmp_path, stub_agents={"enabled": False}, agents=agents))


def test_http_and_https_endpoint_urls_load(tmp_path):
    urls = ["https://api.example.com/v1/chat/completions", "http://[::1]:8000/v1", "http://h/v1?x=1"]
    agents = [{**agent, "endpoint_url": url} for agent, url in zip(_http_agents(), urls)]
    config = load_config(_write(tmp_path, stub_agents={"enabled": False}, agents=agents))
    assert [spec.endpoint_url for spec in config.agents] == urls


@pytest.mark.parametrize("url", BAD_ENDPOINT_URLS[:3])
def test_cli_refuses_a_bad_endpoint_url_on_one_line(tmp_path, capsys, url):
    from ensemble_judge.cli import main

    agents = _http_agents()
    agents[0]["endpoint_url"] = url
    path = _write(tmp_path, stub_agents={"enabled": False}, agents=agents)
    assert main(["run-agents", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "bad or missing config field: agents[0].endpoint_url: " in err[0]
