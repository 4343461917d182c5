"""Stage orchestration: ingest, run-agents, build-features, train, evaluate.

Stages communicate only through files under the run's working directory, so
every stage is resumable and a rerun with unchanged inputs rewrites
byte-identical artifacts. Training and evaluation refuse to run until the
cache fully covers the records they consume.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path
from typing import Callable, Container, Iterator, Sequence, TypeVar

import numpy as np

from .agents import (
    AgentSpec,
    ChatCompletionsClient,
    DecodingConfig,
    expected_cache_keys,
    run_agent,
)
from .artifacts import ArtifactError, finite_number, read_jsonl, write_jsonl
from .config import RunConfig
from .domain import (
    AgentOutput,
    ConfidenceSource,
    DisclosureRecord,
    Split,
    target_from_return,
)
from .evaluation import EvalReport, evaluate_judgments, write_report
from .features import feature_matrix, read_feature_file, write_feature_file
from .ingest import (
    chronological_split,
    corpus_row,
    load_corpus,
    load_split,
    parse_rfc3339,
    preprocess_corpus,
    sort_records,
    write_corpus,
    write_split,
)
from .meta import ConvergenceError, MetaModel, train_meta_model
from .store import CacheKey, CacheStore
from .synth import generate_corpus, load_latents, stub_outputs, write_latents

T = TypeVar("T")


class MissingArtifactError(RuntimeError):
    """A prerequisite stage output does not exist yet."""


class StaleModelError(RuntimeError):
    """The model was trained on different prompts than the current run uses."""


class CoverageError(RuntimeError):
    """The cache does not cover every (disclosure, agent) pair a stage needs."""

    def __init__(self, missing: Sequence[CacheKey]):
        self.missing = list(missing)
        preview = ", ".join(
            f"{k.disclosure_id}/{k.lens.value}" for k in self.missing[:10]
        )
        suffix = f" (+{len(self.missing) - 10} more)" if len(self.missing) > 10 else ""
        super().__init__(
            f"cache is missing {len(self.missing)} agent outputs: {preview}{suffix}"
        )


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(f"{what} missing: {path} (run the earlier stage first)")
    return path


def stage_synth(config: RunConfig, n: int, seed: int) -> dict:
    """Write a synthetic corpus and its latent sidecar."""
    if config.latents_path is None:
        raise ValueError("config needs latents_path to hold the synthetic signals")
    records, latents = generate_corpus(n, seed)
    write_corpus(records, config.corpus_path)
    write_latents(latents, config.latents_path)
    positives = sum(r.binary_target for r in records)
    return {"n": n, "seed": seed, "positive_rate": positives / n}


def stage_ingest(config: RunConfig) -> dict:
    """Load the corpus, preprocess, split chronologically, persist both."""
    _require(config.corpus_path, "corpus file")
    records = load_corpus(config.corpus_path)
    prepared = preprocess_corpus(records, config.preprocess)
    split = chronological_split(prepared, config.split_fractions)
    _write_prepared(prepared, config.prepared_path)
    write_split(split, config.split_path)
    return {"records": len(prepared), **{s.value: len(ids) for s, ids in split.items()}}


def _write_prepared(records: Sequence[DisclosureRecord], path: Path) -> None:
    write_jsonl(path, (corpus_row(r, clean_text=r.clean_text) for r in sort_records(records)))


def _prepared_record(obj: dict) -> DisclosureRecord:
    for key in ("id", "timestamp", "ticker", "text", "clean_text"):
        if not isinstance(obj[key], str):
            raise TypeError(f"{key} must be a string, got {obj[key]!r}")
    if not obj["clean_text"]:
        raise ValueError("clean_text is empty")
    next_day_return = finite_number(obj["next_day_return"])
    return DisclosureRecord(
        id=obj["id"],
        timestamp=parse_rfc3339(obj["timestamp"]),
        ticker=obj["ticker"],
        raw_text=obj["text"],
        clean_text=obj["clean_text"],
        next_day_return=next_day_return,
        binary_target=target_from_return(next_day_return),
    )


def load_prepared(path: str | Path) -> list[DisclosureRecord]:
    return read_jsonl(path, _prepared_record)


def _load_checked(path: Path, load: Callable[[Path], T], what: str) -> T:
    """``load(path)``, with a malformed file reported as :class:`ArtifactError`."""
    try:
        return load(path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"{path}: malformed {what} file: {exc!r}") from None


def _assigned_ids(split: dict[Split, list[str]], known: Container[str]) -> dict[str, None]:
    """The ids ``split`` assigns, in split order; each must be ``known``."""
    assigned = dict.fromkeys(rid for ids in split.values() for rid in ids)
    unknown = [rid for rid in assigned if rid not in known]
    if unknown:
        raise ValueError(f"split references unknown ids, e.g. {unknown[:3]}")
    return assigned


def _split_records(config: RunConfig) -> dict[Split, list[DisclosureRecord]]:
    """The prepared records of each split, in split order.

    The split file must assign every prepared record and nothing else.
    """
    records = load_prepared(_require(config.prepared_path, "preprocessed corpus"))
    split = _load_checked(_require(config.split_path, "split file"), load_split, "split")
    by_id = {r.id: r for r in records}
    assigned = _assigned_ids(split, by_id)
    unassigned = [rid for rid in by_id if rid not in assigned]
    if unassigned:
        raise ValueError(
            f"split does not cover the corpus (stale split file?), "
            f"e.g. {unassigned[:3]}"
        )
    return {s: [by_id[rid] for rid in ids] for s, ids in split.items()}


_Pair = tuple[DisclosureRecord, AgentSpec, CacheKey]


def _pairs(
    records: Sequence[DisclosureRecord], specs: Sequence[AgentSpec], decoding: DecodingConfig
) -> list[_Pair]:
    keys = expected_cache_keys(records, specs, decoding)
    combos = [(record, spec) for record in records for spec in specs]
    return [(record, spec, key) for (record, spec), key in zip(combos, keys)]


# HTTP runs fsync the cache every this many appends, so a machine crash loses
# at most this many paid-for answers; stub runs, which can regenerate theirs,
# fsync at the end only.
HTTP_SYNC_EVERY = 256


def _stub_outputs(config: RunConfig, todo: Sequence[_Pair]) -> Iterator[AgentOutput]:
    if not todo:
        return  # nothing to fetch: the latents are not needed
    latents = load_latents(_require(config.latents_path, "latents sidecar"))
    lacking = sorted({record.id for record, _, _ in todo if record.id not in latents})
    if lacking:
        raise ArtifactError(
            f"{config.latents_path}: no latent signals for {len(lacking)} disclosures, "
            f"e.g. {lacking[:3]}"
        )
    yield from stub_outputs(
        ((spec.lens, record, key.prompt_hash, key.seed) for record, spec, key in todo), latents
    )


def _http_outputs(config: RunConfig, todo: Sequence[_Pair]) -> Iterator[AgentOutput]:
    """Outputs in submission order from at most ``max_in_flight`` concurrent calls."""
    decoding = config.decoding()
    local = threading.local()

    def _call(task: _Pair) -> AgentOutput:
        record, spec, _ = task
        clients = getattr(local, "clients", None)
        if clients is None:
            clients = local.clients = {}
        client_key = (spec.endpoint_url, spec.model_name)
        client = clients.get(client_key)
        if client is None:
            client = clients[client_key] = ChatCompletionsClient(
                spec.endpoint_url, spec.model_name
            )
        return run_agent(spec, decoding, record, client=client)

    with ThreadPoolExecutor(max_workers=config.max_in_flight) as pool:
        yield from pool.map(_call, todo)


def stage_run_agents(config: RunConfig, split_path: Path | None = None) -> dict:
    """Populate the cache for every (disclosure, agent) pair not yet stored.

    Resumable: pairs whose key is already cached are skipped. Stub agents run
    inline; HTTP agents run through a bounded thread pool. Either way the
    single cache appender takes the outputs in deterministic submission order.
    """
    records = load_prepared(_require(config.prepared_path, "preprocessed corpus"))
    if split_path is not None:
        split = _load_checked(split_path, load_split, "split")
        wanted = _assigned_ids(split, {r.id for r in records})
        records = [r for r in records if r.id in wanted]
    pairs = _pairs(records, config.agent_specs(), config.decoding())

    fetched = 0
    fallbacks = 0
    with CacheStore(config.cache_path) as store:
        todo = [pair for pair in pairs if pair[2] not in store]
        if config.stub.enabled:
            outputs, sync_every = _stub_outputs(config, todo), 0
        else:
            outputs, sync_every = _http_outputs(config, todo), HTTP_SYNC_EVERY
        with closing(outputs):
            for output in outputs:
                store.put(output)
                fetched += 1
                if output.confidence_source is ConfidenceSource.FALLBACK:
                    fallbacks += 1
                if sync_every and fetched % sync_every == 0:
                    store.sync()
        store.sync()
        still_missing = len(store.missing(key for _, _, key in pairs))

    return {
        "pairs": len(pairs),
        "already_cached": len(pairs) - len(todo),
        "fetched": fetched,
        "fallbacks": fallbacks,
        "missing": still_missing,
    }


def _cached_judgments(
    config: RunConfig, records: Sequence[DisclosureRecord]
) -> tuple[list[CacheKey], np.ndarray, np.ndarray]:
    """The records' cache keys and their ``(n, 3)`` label codes and confidences.

    Keys are record-major in lens order. The cache must exist (else
    :class:`MissingArtifactError`) and hold every key (else
    :class:`CoverageError` naming each missing one).
    """
    keys = expected_cache_keys(records, config.agent_specs(), config.decoding())
    with CacheStore(_require(config.cache_path, "agent cache"), readonly=True) as store:
        rows = store.rows(keys)
        if (rows < 0).any():
            raise CoverageError([key for key, row in zip(keys, rows) if row < 0])
        labels, confidences = store.judgments(rows)
    return keys, labels.reshape(-1, 3), confidences.reshape(-1, 3)


def stage_build_features(config: RunConfig) -> dict:
    """Export one audit feature file per split, in sorted split order."""
    by_split = _split_records(config)
    records = [r for split_records in by_split.values() for r in split_records]
    _keys, labels, confidences = _cached_judgments(config, records)
    X = feature_matrix(labels, confidences)
    bounds = np.cumsum([len(split_records) for split_records in by_split.values()])[:-1]
    for (split, split_records), X_split in zip(by_split.items(), np.split(X, bounds)):
        write_feature_file(
            config.features_path(split),
            [r.id for r in split_records],
            X_split,
            [r.binary_target for r in split_records],
        )
    return {split.value: len(split_records) for split, split_records in by_split.items()}


def _split_features(
    path: Path, records: Sequence[DisclosureRecord], expected: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feature matrix and targets of one split's file, checked against the split.

    ``expected`` is the split's feature matrix rebuilt from the cache; the
    file must hold exactly those values (JSON floats round-trip exactly).
    """
    ids, X, y = read_feature_file(path)
    if ids != [r.id for r in records] or not np.array_equal(y, [r.binary_target for r in records]):
        raise ArtifactError(
            f"{path}: ids or targets differ from the current split "
            "(stale features? re-run build-features)"
        )
    if not np.array_equal(X, expected):
        raise ArtifactError(
            f"{path}: feature values differ from the agent cache "
            "(stale features? re-run build-features)"
        )
    return X, y


def _train_prompt_digest(keys: Sequence[CacheKey]) -> str:
    hashes = sorted(key.prompt_hash for key in keys)
    return hashlib.sha256("\n".join(hashes).encode("ascii")).hexdigest()


def stage_train(config: RunConfig) -> dict:
    """Tune C on dev, fit the aggregator on train, persist the model file.

    Refuses to run unless the cache covers the train and dev splits: all
    model outputs must exist before the aggregator learns from any of them.
    The feature files must hold exactly the current split's ids, targets and
    the feature values the cache yields for them.
    """
    by_split = _split_records(config)
    train_records, dev_records = by_split[Split.TRAIN], by_split[Split.DEV]
    keys, labels, confidences = _cached_judgments(config, train_records + dev_records)
    X = feature_matrix(labels, confidences)

    paths = {split: config.features_path(split) for split in (Split.TRAIN, Split.DEV)}
    for split, path in paths.items():
        _require(path, f"{split.value} feature file")
    n_train = len(train_records)
    train = _split_features(paths[Split.TRAIN], train_records, X[:n_train])
    dev = _split_features(paths[Split.DEV], dev_records, X[n_train:])
    n_outputs = 3 * n_train

    try:
        model, dev_scores = train_meta_model(
            train,
            dev,
            grid=config.train.grid,
            tol=config.train.tol,
            max_iter=config.train.max_iter,
            prompt_hash_digest=_train_prompt_digest(keys[:n_outputs]),
            n_outputs=n_outputs,
        )
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"{paths[Split.TRAIN]}: aggregator fit failed: {exc}", exc.report
        ) from None
    model.save(config.model_path)
    return {
        "chosen_C": model.inverse_reg_strength,
        "dev_balanced_accuracy": dev_scores,
        "iterations": model.optimizer_report.iterations,
        "final_gradient_norm": model.optimizer_report.final_gradient_norm,
    }


def stage_evaluate(config: RunConfig) -> EvalReport:
    """Score every method on the test split and write both report files.

    The model file's prompt digest is checked against the prompts the current
    config would render, so a model trained before a prompt or preprocessing
    change cannot be silently scored against mismatched agent outputs.
    """
    by_split = _split_records(config)
    _require(config.cache_path, "agent cache")
    model = _load_checked(_require(config.model_path, "model file"), MetaModel.load, "model")
    if model.prompt_hash_digest != _train_prompt_digest(
        expected_cache_keys(by_split[Split.TRAIN], config.agent_specs(), config.decoding())
    ):
        raise StaleModelError(
            f"{config.model_path} was trained under different prompts or "
            "preprocessing than this run; re-run the train stage"
        )
    test_records = by_split[Split.TEST]
    _keys, labels, confidences = _cached_judgments(config, test_records)
    report = evaluate_judgments(
        [r.id for r in test_records],
        np.array([r.binary_target for r in test_records]),
        labels,
        confidences,
        model,
        delta=config.eval.delta,
        sensitivity_deltas=config.eval.sensitivity_deltas,
    )
    write_report(report, config.report_json_path, config.report_text_path)
    return report


def stage_report(config: RunConfig, fmt: str) -> str:
    """Re-emit the persisted report in the requested format."""
    if fmt == "json":
        return _require(config.report_json_path, "report file").read_text(encoding="utf-8")
    if fmt == "text":
        return _require(config.report_text_path, "report file").read_text(encoding="utf-8")
    raise ValueError(f"unknown report format {fmt!r} (expected text or json)")
