"""Single-file JSON run configuration.

One config holds endpoints, decoding, preprocessing, tuning grid, regime
delta, and artifact paths, so archiving that one file (plus the corpus and
cache) reproduces a run end to end. The dataclasses below are the one place
each run default is stated; the stage functions take every value from them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from .agents import AgentSpec, DecodingConfig, http_url
from .artifacts import finite_number, finite_numbers
from .domain import LENS_ORDER, Lens, Split
from .ingest import PreprocessConfig
from .synth import STUB_ENDPOINT, STUB_MODEL_NAME


@dataclass(frozen=True)
class StubConfig:
    """Stub agents read hidden latents instead of calling an endpoint."""

    enabled: bool = False


@dataclass(frozen=True)
class TrainConfig:
    grid: tuple[float, ...] = (0.01, 0.1, 1.0, 10.0, 100.0)
    tol: float = 1e-8
    max_iter: int = 1000


@dataclass(frozen=True)
class EvalConfig:
    delta: float = 0.1
    sensitivity_deltas: tuple[float, ...] = (0.05, 0.1, 0.2)


@dataclass(frozen=True)
class RunConfig:
    workdir: Path
    corpus_path: Path
    seed: int = 42
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    max_output_tokens: int = 128
    agents: tuple[AgentSpec, ...] = ()
    stub: StubConfig = field(default_factory=StubConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    max_in_flight: int = 4
    split_fractions: tuple[float, float, float] = (0.6, 0.2, 0.2)
    latents_path: Path | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")
        if self.train.max_iter < 1:
            raise ValueError("train.max_iter must be >= 1")
        if not self.train.tol > 0:
            raise ValueError("train.tol must be positive")
        if not self.train.grid or min(self.train.grid) <= 0:
            raise ValueError("train.grid must be one or more positive values")
        if not self.stub.enabled:
            if len(self.agents) != len(LENS_ORDER):
                raise ValueError("config must name exactly one agent per lens (or enable stubs)")
            lenses = {spec.lens for spec in self.agents}
            if lenses != set(LENS_ORDER):
                raise ValueError(f"agents must cover every lens exactly once, got {sorted(l.value for l in lenses)}")
        if self.stub.enabled and self.latents_path is None:
            raise ValueError("stub agents need a latents_path")

    # Artifact layout under the working directory.
    @property
    def prepared_path(self) -> Path:
        return self.workdir / "prepared.jsonl"

    @property
    def split_path(self) -> Path:
        return self.workdir / "split.json"

    @property
    def cache_path(self) -> Path:
        return self.workdir / "cache.jsonl"

    def features_path(self, split: Split) -> Path:
        return self.workdir / f"features_{split.value}.jsonl"

    @property
    def model_path(self) -> Path:
        return self.workdir / "model.json"

    @property
    def report_json_path(self) -> Path:
        return self.workdir / "report.json"

    @property
    def report_text_path(self) -> Path:
        return self.workdir / "report.txt"

    def decoding(self) -> DecodingConfig:
        return DecodingConfig(seed=self.seed, max_output_tokens=self.max_output_tokens)

    def agent_specs(self) -> tuple[AgentSpec, ...]:
        if self.stub.enabled:
            return tuple(AgentSpec(lens, STUB_MODEL_NAME, STUB_ENDPOINT) for lens in LENS_ORDER)
        return tuple(sorted(self.agents, key=lambda s: LENS_ORDER.index(s.lens)))


def _exactly(kind: type, what: str) -> Callable[[object], Any]:
    """A cast that passes a value of one JSON type through; ``true`` is not an integer."""

    def cast(value: object) -> Any:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise TypeError(f"expected {what}, got {value!r}")
        return value

    return cast


_bool = _exactly(bool, "true or false")
_int = _exactly(int, "an integer")
_str = _exactly(str, "a string")
_float, _floats = finite_number, finite_numbers


class _FieldError(Exception):
    """An unknown config key, or a value its cast rejects, named by its key."""


def _given(raw: object, where: str, **casts: Callable[[Any], object]) -> dict:
    """Each key ``raw`` sets, converted by its cast; absent keys are left out."""
    if not isinstance(raw, dict):
        raise _FieldError(f"bad or missing config field: {where or 'config'} is not an object")
    given = {}
    for name, value in raw.items():
        key = f"{where}.{name}" if where else name
        if name not in casts:
            raise _FieldError(f"unknown config key {key}")
        try:
            given[name] = casts[name](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _FieldError(f"bad or missing config field: {key}: {exc}") from None
    return given


def _section(
    cls: Callable[..., object], where: str, **casts: Callable[[Any], object]
) -> Callable[[Any], object]:
    """A cast that builds ``cls`` from the keys a JSON object sets."""
    return lambda raw: cls(**_given(raw, where, **casts))


def _endpoint_url(value: object) -> str:
    """An http(s) URL with a host; the check lives here, not in ``AgentSpec``,
    because the stub agents' spec names a ``stub://`` endpoint."""
    url = _str(value)
    http_url(url)
    return url


def _agents(entries: Iterable[object]) -> tuple[AgentSpec, ...]:
    return tuple(
        _section(
            AgentSpec, f"agents[{i}]", lens=Lens, model_name=_str, endpoint_url=_endpoint_url,
            supports_logprobs=_bool,
        )(entry)
        for i, entry in enumerate(entries)
    )


def load_config(path: str | Path) -> RunConfig:
    """The run config in ``path``; its relative paths resolve against its directory.

    Keys the file leaves out take the dataclass defaults. An unknown key or
    a value of the wrong JSON type is a ``ValueError`` naming the key.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"{path}: invalid JSON: {exc}") from None

    def _resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else path.parent / candidate

    try:
        given = _given(
            raw,
            "",
            workdir=_resolve,
            corpus_path=_resolve,
            latents_path=_resolve,
            seed=_int,
            max_output_tokens=_int,
            max_in_flight=_int,
            split_fractions=_floats,
            preprocess=_section(
                PreprocessConfig, "preprocess", max_tokens=_int, chars_per_token=_float
            ),
            agents=_agents,
            stub_agents=_section(StubConfig, "stub_agents", enabled=_bool),
            train=_section(TrainConfig, "train", grid=_floats, tol=_float, max_iter=_int),
            eval=_section(EvalConfig, "eval", delta=_float, sensitivity_deltas=_floats),
        )
        if "stub_agents" in given:
            given["stub"] = given.pop("stub_agents")
        return RunConfig(**given)
    except _FieldError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: bad or missing config field: {exc}") from None
