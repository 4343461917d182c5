"""Single-file JSON run configuration.

One config holds endpoints, decoding, preprocessing, tuning grid, regime
delta, and artifact paths, so archiving that one file (plus the corpus and
cache) reproduces a run end to end. The dataclasses below are the one place
each run default is stated; the stage functions take every value from them.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable

from .agents import AgentSpec, DecodingConfig, http_url
from .artifacts import InputError, finite_number, finite_numbers
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
            raise InputError("max_in_flight must be >= 1")
        if self.max_output_tokens < 1:
            raise InputError("max_output_tokens must be >= 1")
        if self.train.max_iter < 1:
            raise InputError("train.max_iter must be >= 1")
        if not self.train.tol > 0:
            raise InputError("train.tol must be positive")
        if not self.train.grid or min(self.train.grid) <= 0:
            raise InputError("train.grid must be one or more positive values")
        keys: dict[str, float] = {}  # each delta by its key in the report's delta_sensitivity
        for d in self.eval.sensitivity_deltas:
            if f"{d:g}" in keys:
                raise InputError(f"eval.sensitivity_deltas {keys[f'{d:g}']!r} and {d!r} "
                                 f"share the report key {d:g}")
            keys[f"{d:g}"] = d
        if not self.stub.enabled:
            if len(self.agents) != len(LENS_ORDER):
                raise InputError("config must name exactly one agent per lens (or enable stubs)")
            lenses = {spec.lens for spec in self.agents}
            if lenses != set(LENS_ORDER):
                raise InputError(f"agents must cover every lens exactly once, got {sorted(l.value for l in lenses)}")
        if self.stub.enabled and self.latents_path is None:
            raise InputError("stub agents need a latents_path")

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


def _named(check: Callable[[Any], Any]) -> Callable[[Any, str], Any]:
    """The cast of a value by ``check``: it takes the JSON value and its key,
    which names the value when ``check`` refuses it."""

    def cast(value: object, key: str) -> Any:
        try:
            return check(value)
        except InputError as exc:
            raise InputError(f"bad or missing config field: {key}: {exc}") from None

    return cast


def _exactly(kind: type, what: str) -> Callable[[object], Any]:
    """A check that passes a value of one JSON type through; ``true`` is not an integer."""

    def check(value: object) -> Any:
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise InputError(f"expected {what}, got {value!r}")
        return value

    return check


_str = _exactly(str, "a string")
_bool = _named(_exactly(bool, "true or false"))
_int = _named(_exactly(int, "an integer"))
_float, _floats = _named(finite_number), _named(finite_numbers)


def _given(raw: object, where: str, cls: type, **casts: Callable[[Any, str], Any]) -> dict:
    """Each key ``raw`` sets, converted by its cast (see :func:`_named`); a key
    it leaves out takes the default of its field in ``cls``, and a field
    without one must be set."""
    if not isinstance(raw, dict):
        raise InputError(f"bad or missing config field: {where or 'config'} is not an object")
    given = {}
    for name, value in raw.items():
        key = f"{where}.{name}" if where else name
        if name not in casts:
            raise InputError(f"unknown config key {key}")
        given[name] = casts[name](value, key)
    for f in fields(cls):
        if f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            key = f"{where}.{f.name}" if where else f.name
            raise InputError(f"bad or missing config field: {key} is missing")
    return given


def _section(cls: type, **casts: Callable[[Any, str], Any]) -> Callable[[Any, str], Any]:
    """A cast that builds ``cls`` from the keys a JSON object sets."""
    build = _named(lambda given: cls(**given))  # a rule of cls's own, named by the section
    return lambda raw, where: build(_given(raw, where, cls, **casts), where)


@_named
def _lens(value: object) -> Lens:
    names = [lens.value for lens in Lens]
    if value not in names:
        raise InputError(f"expected one of {names}, got {value!r}")
    return Lens(value)


@_named
def _endpoint_url(value: object) -> str:
    """An http(s) URL with a host; the check lives here, not in ``AgentSpec``,
    because the stub agents' spec names a ``stub://`` endpoint."""
    url = _str(value)
    http_url(url)
    return url


_agent = _section(
    AgentSpec, lens=_lens, model_name=_named(_str), endpoint_url=_endpoint_url,
    supports_logprobs=_bool,
)


def _agents(entries: object, key: str) -> tuple[AgentSpec, ...]:
    if not isinstance(entries, list):
        raise InputError(f"bad or missing config field: {key}: expected an array, got {entries!r}")
    return tuple(_agent(entry, f"{key}[{i}]") for i, entry in enumerate(entries))


def load_config(path: str | Path) -> RunConfig:
    """The run config in ``path``; its relative paths resolve against its directory.

    Keys the file leaves out take the dataclass defaults. Each refusal is an
    :class:`InputError` whose message starts with the path: a file that is
    not JSON, an unknown key, a missing key or a value of the wrong JSON type
    (named by its key), and a rule of :class:`RunConfig` as a whole.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_bytes().decode("utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except (ValueError, RecursionError) as exc:  # the decoder's own refusals
        raise InputError(f"{path}: invalid JSON: {exc}") from None

    @_named
    def _resolve(p: object) -> Path:
        candidate = Path(_str(p))
        return candidate if candidate.is_absolute() else path.parent / candidate

    try:
        given = _given(
            raw,
            "",
            RunConfig,
            workdir=_resolve,
            corpus_path=_resolve,
            latents_path=_resolve,
            seed=_int,
            max_output_tokens=_int,
            max_in_flight=_int,
            split_fractions=_floats,
            preprocess=_section(PreprocessConfig, max_tokens=_int, chars_per_token=_float),
            agents=_agents,
            stub_agents=_section(StubConfig, enabled=_bool),
            train=_section(TrainConfig, grid=_floats, tol=_float, max_iter=_int),
            eval=_section(EvalConfig, delta=_float, sensitivity_deltas=_floats),
        )
        if "stub_agents" in given:
            given["stub"] = given.pop("stub_agents")
        return RunConfig(**given)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
