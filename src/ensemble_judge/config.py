"""Single-file JSON run configuration.

One config holds endpoints, decoding, preprocessing, tuning grid, regime
delta, and artifact paths, so archiving that one file (plus the corpus and
cache) reproduces a run end to end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from .agents import AgentSpec, DecodingConfig
from .domain import LENS_ORDER, Lens, Split
from .evaluation import DEFAULT_REGIME_DELTA, DEFAULT_SENSITIVITY_DELTAS
from .ingest import DEFAULT_SPLIT_FRACTIONS, PreprocessConfig
from .meta import DEFAULT_GRID, DEFAULT_MAX_ITER, DEFAULT_TOL
from .synth import STUB_ENDPOINT, STUB_MODEL_NAME


@dataclass(frozen=True)
class StubConfig:
    """Stub agents read hidden latents instead of calling an endpoint.

    ``noise`` may be one scale for all lenses or one per lens; unset means
    the tuned per-lens defaults from the synthetic generator.
    """

    enabled: bool = False
    noise: tuple[float, float, float] | None = None

    def noise_for(self, lens: Lens) -> float | None:
        return None if self.noise is None else self.noise[LENS_ORDER.index(lens)]


@dataclass(frozen=True)
class TrainConfig:
    grid: tuple[float, ...] = DEFAULT_GRID
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER


@dataclass(frozen=True)
class EvalConfig:
    delta: float = DEFAULT_REGIME_DELTA
    sensitivity_deltas: tuple[float, ...] = DEFAULT_SENSITIVITY_DELTAS


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
    allow_extra_keys: bool = False
    split_fractions: tuple[float, float, float] = DEFAULT_SPLIT_FRACTIONS
    latents_path: Path | None = None

    def __post_init__(self) -> None:
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
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
            return tuple(
                AgentSpec(
                    lens=lens,
                    model_name=STUB_MODEL_NAME,
                    endpoint_url=STUB_ENDPOINT,
                    supports_logprobs=False,
                )
                for lens in LENS_ORDER
            )
        return tuple(sorted(self.agents, key=lambda s: LENS_ORDER.index(s.lens)))


def _stub_noise(value: object) -> tuple[float, float, float] | None:
    if value is None:
        return None
    if isinstance(value, (int, float)):
        return (float(value),) * 3
    if isinstance(value, dict):
        return tuple(float(value[lens.value]) for lens in LENS_ORDER)
    raise ValueError(f"stub noise must be a number or per-lens object, got {value!r}")


def _floats(values: Iterable[object]) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _given(raw: dict, **casts: Callable[[Any], object]) -> dict:
    """Each named key present in ``raw``, converted by its cast."""
    return {name: cast(raw[name]) for name, cast in casts.items() if name in raw}


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None

    base = path.parent

    def _resolve(p: str) -> Path:
        candidate = Path(p)
        return candidate if candidate.is_absolute() else base / candidate

    try:
        agents = tuple(
            AgentSpec(
                lens=Lens(a["lens"]),
                model_name=a["model_name"],
                endpoint_url=a["endpoint_url"],
                supports_logprobs=bool(a.get("supports_logprobs", False)),
            )
            for a in raw.get("agents", [])
        )
        stub = raw.get("stub_agents", {})
        # Absent keys are left out, so the dataclass defaults apply.
        return RunConfig(
            workdir=_resolve(raw["workdir"]),
            corpus_path=_resolve(raw["corpus_path"]),
            preprocess=PreprocessConfig(
                **_given(raw.get("preprocess", {}), max_tokens=int, chars_per_token=float)
            ),
            agents=agents,
            stub=StubConfig(
                **_given(stub, enabled=bool),
                noise=_stub_noise(stub.get("noise")),
            ),
            train=TrainConfig(**_given(raw.get("train", {}), grid=_floats, tol=float, max_iter=int)),
            eval=EvalConfig(**_given(raw.get("eval", {}), delta=float, sensitivity_deltas=_floats)),
            latents_path=_resolve(raw["latents_path"]) if "latents_path" in raw else None,
            **_given(
                raw,
                seed=int,
                max_output_tokens=int,
                max_in_flight=int,
                allow_extra_keys=bool,
                split_fractions=_floats,
            ),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: bad or missing config field: {exc}") from None
