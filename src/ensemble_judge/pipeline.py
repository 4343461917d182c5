"""Stage orchestration: ingest, run-agents, build-features, train, evaluate.

Stages communicate only through files under the run's working directory, so
every stage is resumable and a rerun with unchanged inputs rewrites
byte-identical artifacts. Training and evaluation refuse to run until the
cache fully covers the records they consume.

The stages after ``ingest`` match disclosures to cached judgments as arrays
of per-pair digests (:class:`ingest.PreparedKeys`), read from the prepared
file's key table when its stamp matches, else built as ``ingest`` builds
the table, from the prepared records as they are parsed, holding no text.
Only ``run-agents`` with HTTP agents and pairs to fetch keeps disclosure
text: that of the pairs in flight. The list form ``load_prepared`` stays
importable here, for the benchmark's mock endpoint.

Beyond those arrays, the cache table and a split's feature matrix, a stage
holds no whole-run copy: the stub latents, the feature lines written and
compared, and the model's prompt digest all stream a block at a time, and
``train`` lets the key table go before the fit.
"""

from __future__ import annotations

import hashlib
from collections import deque
from contextlib import closing
from itertools import groupby, islice, zip_longest
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .agents import AgentSpec, ChatCompletionsClient, Transport, run_agent
from .artifacts import ArtifactError, InputError, MissingArtifactError, write_jsonl
from .config import RunConfig
from .domain import AgentOutput, DisclosureRecord, Lens, Split
from .evaluation import EvalReport, evaluate_judgments, write_report
from .features import feature_lines, feature_matrix, read_feature_file, write_feature_file
from .ingest import (
    PreparedKeys,
    load_prepared,  # ``perfbench/mock_endpoint.py`` imports it from here; no stage calls it
    load_split,
    prepare,
    read_key_table,
    read_prepared,
)
from .meta import ConvergenceError, MetaModel, train_meta_model
from .store import CacheBlock, CacheStore
from .synth import NOISE_CHUNK, corpus_lines, draw_corpus, latents_lines, read_latents, stub_blocks

if TYPE_CHECKING:
    from concurrent.futures import Future

T = TypeVar("T")


class StaleModelError(ArtifactError):
    """The model was trained on different prompts than the current run uses."""


class CoverageError(ArtifactError):
    """The cache does not cover every (disclosure, agent) pair a stage needs."""

    def __init__(self, missing: Sequence[tuple[str, Lens]]):
        self.missing = list(missing)
        preview = ", ".join(f"{rid}/{lens.value}" for rid, lens in self.missing[:10])
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
        raise InputError("config needs latents_path to hold the synthetic signals")
    signals, returns = draw_corpus(n, seed)
    write_jsonl(config.corpus_path, corpus_lines(signals, returns))
    write_jsonl(config.latents_path, latents_lines(signals, seed))
    return {"n": n, "seed": seed, "positive_rate": int(np.count_nonzero(returns > 0)) / n}


def stage_ingest(config: RunConfig) -> dict:
    """Preprocess the corpus and split it chronologically, in one pass that
    writes the prepared file, its key table and the split file."""
    split = prepare(
        _require(config.corpus_path, "corpus file"),
        config.prepared_path,
        config.split_path,
        config.preprocess,
        config.split_fractions,
        config.agent_specs(),
        config.seed,
    )
    counts = {s.value: len(ids) for s, ids in split.items()}
    return {"records": sum(counts.values()), **counts}


def _load_checked(path: Path, load: Callable[[Path], T], what: str) -> T:
    """``load(path)``, with a file that ``load`` refuses (an
    :class:`InputError`) or that is not UTF-8 reported as
    :class:`ArtifactError`. Any other exception propagates as it is."""
    try:
        return load(path)
    except (InputError, UnicodeError) as exc:
        raise ArtifactError(f"{path}: malformed {what} file: {exc}") from None


def _prepared(config: RunConfig) -> PreparedKeys:
    """The prepared file's keys, from its key table when the stamp matches,
    else from a full parse."""
    path = _require(config.prepared_path, "preprocessed corpus")
    specs = config.agent_specs()
    keys = read_key_table(path, specs, config.seed)
    return keys if keys is not None else PreparedKeys.of(read_prepared(path), specs, config.seed)


def _split_rows(config: RunConfig, keys: PreparedKeys) -> dict[Split, np.ndarray]:
    """The prepared rows of each split, in split order.

    The split file must assign every prepared record and nothing else.
    """
    split = _load_checked(_require(config.split_path, "split file"), load_split, "split")
    by_split = keys.split_rows(split)
    assigned = np.zeros(len(keys.ids), dtype=bool)
    for rows in by_split.values():
        assigned[rows] = True
    unassigned = np.flatnonzero(~assigned)
    if unassigned.size:
        raise InputError(
            f"split does not cover the corpus (stale split file?), "
            f"e.g. {keys.ids_at(unassigned[:3])}"
        )
    return by_split


# HTTP runs append and fsync the cache once per this many answers, so a crash
# loses at most this many paid-for answers; stub runs, which can regenerate
# theirs, fsync at the end only.
HTTP_SYNC_EVERY = 256


def _stub_blocks(
    config: RunConfig, keys: PreparedKeys, rows: np.ndarray, todo: np.ndarray
) -> Iterator[CacheBlock]:
    """The stub agents' judgments of the pairs at positions ``todo`` among the
    (row, spec column) pairs of the prepared ``rows`` in row-major order, from
    :func:`stub_blocks`, a :data:`synth.NOISE_CHUNK` slice of ``todo`` at a time."""
    path = _require(config.latents_path, "latents sidecar")
    signals, seeds, lines = read_latents(path, keys.ids)
    specs = config.agent_specs()
    # A row without a latents line is refused only if it is judged.
    judged = rows[np.unique(todo // len(specs))]
    lacking = judged[lines[judged] == 0]
    if lacking.size:
        raise ArtifactError(
            f"{path}: no latent signals for {len(lacking)} disclosures, "
            f"e.g. {sorted(keys.ids_at(lacking))[:3]}"
        )
    del judged, lines  # else held while every block is judged
    for start in range(0, len(todo), NOISE_CHUNK):
        pairs = todo[start : start + NOISE_CHUNK]
        yield from stub_blocks(
            keys, rows[pairs // len(specs)], pairs % len(specs), specs, signals, seeds,
            config.seed,
        )


def _fetch_tasks(
    path: Path, rows: np.ndarray, columns: np.ndarray, specs: Sequence[AgentSpec]
) -> Iterator[tuple[DisclosureRecord, AgentSpec]]:
    """The (record, agent) of each pair (prepared row, spec column) to fetch,
    read from the prepared file as it streams by; ``rows`` ascend."""
    records = enumerate(read_prepared(path))
    for row, pairs in groupby(zip(rows.tolist(), columns.tolist()), key=itemgetter(0)):
        record = next(record for at, record in records if at == row)
        for _, column in pairs:
            yield record, specs[column]


# Pending pairs per transport thread in the HTTP submission window: enough
# that the wire stays busy while the answer at the window's head waits out
# one base backoff. A thread carries an exchange in about 4 ms against a
# local endpoint, so BACKOFF_BASE_S (0.5 s) / 4 ms ≈ 125 requests a thread;
# a smaller window drains before the backoff ends and leaves the wire idle.
WINDOW_PER_THREAD = 128


def _http_blocks(
    config: RunConfig, todo: Iterable[tuple[DisclosureRecord, AgentSpec]], digests: np.ndarray
) -> Iterator[CacheBlock]:
    """The answers under their key digests, in submission order, as blocks of
    :data:`HTTP_SYNC_EVERY` answers; the last block is shorter.

    ``max_in_flight`` transport threads carry the requests of twice as many
    worker threads, so a worker that backs off leaves the wire to another.
    At most :data:`WINDOW_PER_THREAD` pairs a transport thread are submitted
    and not yet collected. An error, from a pair or from ``todo``, is raised
    once the answers before it have been yielded as a block.
    """
    from concurrent.futures import ThreadPoolExecutor  # only HTTP runs need it

    decoding = config.decoding()

    def _submit(task: tuple[DisclosureRecord, AgentSpec]) -> Future[AgentOutput]:
        record, spec = task
        return pool.submit(run_agent, spec, decoding, record, client=clients[spec])

    tasks, window = iter(todo), deque()
    size = WINDOW_PER_THREAD * config.max_in_flight
    transport = Transport(config.max_in_flight)
    pool = ThreadPoolExecutor(max_workers=2 * config.max_in_flight)
    try:
        # One client per agent, shared by every worker.
        clients = {
            spec: ChatCompletionsClient(spec.endpoint_url, spec.model_name, transport)
            for spec in config.agent_specs()
        }
        for done in range(0, len(digests), HTTP_SYNC_EVERY):
            block: list[AgentOutput] = []
            try:
                for _ in range(min(HTTP_SYNC_EVERY, len(digests) - done)):
                    window.extend(map(_submit, islice(tasks, size - len(window))))
                    block.append(window.popleft().result())
            finally:
                if block:  # the answers before an error too, which then propagates
                    yield CacheBlock.of(digests[done : done + len(block)], block)
    finally:
        # First, so that a pending backoff ends at once and its pair fails.
        transport.close()
        pool.shutdown(cancel_futures=True)


def stage_run_agents(config: RunConfig, split_path: Path | None = None) -> dict:
    """Populate the cache for every (disclosure, agent) pair not yet stored.

    Resumable: pairs whose key is already cached are skipped. Stub agents run
    inline, a block of pairs per cache append; HTTP agents run through a
    bounded submission window, :data:`HTTP_SYNC_EVERY` answers per append
    and fsync. Either way the single cache appender takes the answers in
    deterministic submission order.
    Stub agents judge from the key table's ids and prompt digests; the
    disclosure text is read, streaming, only when an HTTP agent has a pair to
    fetch, and only the records of those pairs are kept, while in flight.
    """
    keys = _prepared(config)
    rows = np.arange(len(keys.ids))
    digests = keys.keys.reshape(-1)  # a view: every prepared row is judged
    if split_path is not None:
        split = _load_checked(split_path, load_split, "split")
        rows = np.sort(np.concatenate(list(keys.split_rows(split).values())))
        digests = keys.keys[rows].ravel()
    specs = config.agent_specs()

    fetched = 0
    fallbacks = 0
    with CacheStore(config.cache_path) as store:
        todo = store.missing(digests)
        if todo.size:
            if config.stub.enabled:
                blocks = _stub_blocks(config, keys, rows, todo)
            else:
                todo_rows, todo_columns = rows[todo // len(specs)], todo % len(specs)
                fetch = _fetch_tasks(config.prepared_path, todo_rows, todo_columns, specs)
                blocks = _http_blocks(config, fetch, digests[todo])
            with closing(blocks):
                for block in blocks:
                    store.put(block)
                    fetched += len(block.digests)
                    fallbacks += block.fallbacks()
                    if not config.stub.enabled:
                        store.sync()
                    del block  # before the next one is built
        still_missing = len(store.missing(digests)) if todo.size else 0

    return {
        "pairs": len(digests),
        "already_cached": len(digests) - len(todo),
        "fetched": fetched,
        "fallbacks": fallbacks,
        "missing": still_missing,
    }


def _cached_judgments(
    config: RunConfig, keys: PreparedKeys, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n, 3)`` label codes and confidences of the prepared ``rows``.

    Columns follow the agent specs' lens order. The cache must exist (else
    :class:`MissingArtifactError`) and hold every pair (else
    :class:`CoverageError` naming each missing one).
    """
    specs = config.agent_specs()
    with CacheStore(_require(config.cache_path, "agent cache"), readonly=True) as store:
        found = store.rows(keys.keys[rows].ravel())
        lacking = [
            (keys.ids[rows[pair // len(specs)]], specs[pair % len(specs)].lens)
            for pair in np.flatnonzero(found < 0).tolist()
        ]
        if lacking:
            raise CoverageError(lacking)
        labels, confidences = store.judgments(found)
    return labels.reshape(-1, len(specs)), confidences.reshape(-1, len(specs))


def stage_build_features(config: RunConfig) -> dict:
    """Export one audit feature file per split, in sorted split order."""
    keys = _prepared(config)
    by_split = _split_rows(config, keys)
    X = feature_matrix(*_cached_judgments(config, keys, np.concatenate(list(by_split.values()))))
    bounds = np.cumsum([len(rows) for rows in by_split.values()])[:-1]
    for (split, rows), X_split in zip(by_split.items(), np.split(X, bounds)):
        write_feature_file(
            config.features_path(split),
            keys.ids_at(rows),
            X_split,
            keys.targets[rows].tolist(),
        )
    return {split.value: len(rows) for split, rows in by_split.items()}


def _checked_features(
    path: Path, keys: PreparedKeys, rows: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``X`` and the targets of the prepared ``rows``, once the feature file at
    ``path`` holds exactly their :func:`feature_lines`, byte for byte.

    ``X`` is the rows' feature matrix rebuilt from the cache. The file's
    lines are compared as they stream by.
    """
    y = keys.targets[rows]
    lines = feature_lines(keys.ids_at(rows), X, y)
    with closing(read_feature_file(path)) as stored_lines:
        for lineno, (stored, line) in enumerate(zip_longest(stored_lines, lines), 1):
            if stored is None or line is None or stored != line.encode():
                raise ArtifactError(
                    f"{path}: line {lineno} differs from the features of the current split "
                    "and agent cache (stale features? re-run build-features)"
                )
    return X, y


# Sorted prompt digests hashed per block: a block's copy and hex lines (about
# 160 bytes a digest) stay small beside the sorted digests.
_DIGESTS_PER_BLOCK = 4096


def _prompt_digest(prompts: np.ndarray) -> str:
    """The model file's ``prompt_hash_digest``: the sha256 of the hex prompt
    digests of ``prompts`` (raw sha256 rows), sorted, one per line.

    The lines are hashed a block at a time; only the sorted digests are held.
    """
    width = prompts.shape[-1]
    ordered = np.sort(prompts.reshape(-1, width).view(f"S{width}").ravel())
    digest = hashlib.sha256()
    for start in range(0, len(ordered), _DIGESTS_PER_BLOCK):
        if start:
            digest.update(b"\n")
        block = ordered[start : start + _DIGESTS_PER_BLOCK].tobytes()
        digest.update(block.hex("\n", width).encode("ascii"))
    return digest.hexdigest()


def stage_train(config: RunConfig) -> dict:
    """Tune C on dev, fit the aggregator on train, persist the model file.

    Refuses a split file whose train or dev list is empty, and refuses to
    run unless the cache covers the train and dev splits: all model outputs
    must exist before the aggregator learns from any of them.
    Each feature file must hold, byte for byte, the lines ``build-features``
    writes from the current split and cache.
    """
    keys = _prepared(config)
    by_split = _split_rows(config, keys)
    train_rows, dev_rows = by_split[Split.TRAIN], by_split[Split.DEV]
    for split, rows in ((Split.TRAIN, train_rows), (Split.DEV, dev_rows)):
        if not len(rows):
            raise InputError(f"{config.split_path}: the {split.value} split holds zero examples")
    X = feature_matrix(*_cached_judgments(config, keys, np.concatenate([train_rows, dev_rows])))

    paths = {split: config.features_path(split) for split in (Split.TRAIN, Split.DEV)}
    for split, path in paths.items():
        _require(path, f"{split.value} feature file")
    n_train = len(train_rows)
    train = _checked_features(paths[Split.TRAIN], keys, train_rows, X[:n_train])
    dev = _checked_features(paths[Split.DEV], keys, dev_rows, X[n_train:])
    prompt_hash_digest = _prompt_digest(keys.prompts[train_rows])
    del keys  # free the key table before the fit

    try:
        model, dev_scores = train_meta_model(
            train,
            dev,
            grid=config.train.grid,
            tol=config.train.tol,
            max_iter=config.train.max_iter,
            prompt_hash_digest=prompt_hash_digest,
            n_outputs=3 * n_train,
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
    change cannot be silently scored against mismatched agent outputs. A
    split file whose test list is empty is refused.
    """
    keys = _prepared(config)
    by_split = _split_rows(config, keys)
    _require(config.cache_path, "agent cache")
    model = _load_checked(_require(config.model_path, "model file"), MetaModel.load, "model")
    if model.prompt_hash_digest != _prompt_digest(keys.prompts[by_split[Split.TRAIN]]):
        raise StaleModelError(
            f"{config.model_path} was trained under different prompts or "
            "preprocessing than this run; re-run the train stage"
        )
    test_rows = by_split[Split.TEST]
    if not len(test_rows):
        raise InputError(f"{config.split_path}: the test split holds zero examples")
    labels, confidences = _cached_judgments(config, keys, test_rows)
    report = evaluate_judgments(
        keys.ids_at(test_rows),
        keys.targets[test_rows],
        labels,
        confidences,
        model,
        delta=config.eval.delta,
        sensitivity_deltas=config.eval.sensitivity_deltas,
    )
    write_report(report, config.report_json_path, config.report_text_path)
    return report


def stage_report(config: RunConfig, fmt: str) -> str:
    """Re-emit the persisted report in the requested format; a report that
    is not UTF-8 is an :class:`ArtifactError`."""
    paths = {"json": config.report_json_path, "text": config.report_text_path}
    if fmt not in paths:
        raise ValueError(f"unknown report format {fmt!r} (expected text or json)")
    path = _require(paths[fmt], "report file")
    return _load_checked(path, lambda p: p.read_bytes().decode("utf-8"), "report")
