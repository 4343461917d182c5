"""Run one pipeline stage in-process with spans around the package's layers.

Started by the benchmark as a fresh process per stage, like the CLI, so the
traced and untraced runs pay the same interpreter start and imports and
their wall-time difference is the tracing overhead. Usage::

    python3 perfbench/traced_stage.py --src SRC --config CFG \
        --stage run-agents --label run_agents --out spans.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tracing import Tracer, install


def _targets() -> list[tuple]:
    """The layer boundaries to trace, as :func:`tracing.install` targets."""
    import requests

    from ensemble_judge import agents, evaluation, features, ingest, meta, store
    from ensemble_judge.domain import ConfidenceSource

    fallback = ConfidenceSource.FALLBACK

    def on_open(tracer, args, _result):
        tracer.add("store.records_loaded", len(args[0]))

    def on_keys(tracer, _args, keys):
        tracer.add("agents.prompt_hashes", len(keys))

    def on_agent(tracer, _args, output):
        if output.confidence_source is fallback:
            tracer.add("agents.fallbacks")

    def on_fit(tracer, _args, result):
        tracer.add("meta.newton_iterations", result[2].iterations)

    return [
        (store.CacheStore, "__init__", "store.open", on_open),
        (store.CacheStore, "put", "store.put"),
        (store.CacheStore, "sync", "store.sync"),
        (store.CacheStore, "missing", "store.missing"),
        (store.CacheStore, "get", "store.get"),
        (agents, "expected_cache_keys", "agents.expected_cache_keys", on_keys),
        (agents.ChatCompletionsClient, "generate", "agents.generate"),
        (agents, "run_agent", "agents.run_agent", on_agent),
        (requests.Session, "post", "http.post"),
        (ingest, "load_corpus", "ingest.load_corpus"),
        (ingest, "preprocess_corpus", "ingest.preprocess_corpus"),
        (ingest, "chronological_split", "ingest.chronological_split"),
        (features, "build_features", "features.build_features"),
        (features, "read_feature_file", "features.read_feature_file"),
        (features, "write_feature_file", "features.write_feature_file"),
        (meta, "train_meta_model", "meta.train_meta_model"),
        (meta, "fit_logistic", "meta.fit_logistic", on_fit),
        (evaluation, "evaluate_split", "evaluation.evaluate_split"),
        (evaluation, "regime_of", "evaluation.regime_of"),
        (evaluation, "write_report", "evaluation.write_report"),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--config", type=Path, required=True)
    parser.add_argument("--stage", required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(args.src))
    import ensemble_judge.cli  # noqa: F401 - loads every module before patching
    from ensemble_judge import pipeline
    from ensemble_judge.config import load_config

    tracer = Tracer()
    install(tracer, _targets())
    stage_fn = {
        "ingest": pipeline.stage_ingest,
        "run-agents": pipeline.stage_run_agents,
        "build-features": pipeline.stage_build_features,
        "train": pipeline.stage_train,
        "evaluate": pipeline.stage_evaluate,
    }[args.stage]

    config = load_config(args.config)
    summary = tracer.run_root(f"pipeline.{args.label}", stage_fn, config)
    if args.stage == "run-agents":
        print(
            f"coverage: {summary['pairs'] - summary['missing']}/{summary['pairs']} pairs "
            f"({summary['already_cached']} cached, {summary['fetched']} fetched, "
            f"{summary['fallbacks']} fallbacks)"
        )
    args.out.write_text(
        json.dumps({"label": args.label, "spans": tracer.spans, "counts": tracer.counts}),
        encoding="utf-8",
    )
    return 3 if args.stage == "run-agents" and summary["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
