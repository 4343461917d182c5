"""Command-line entry point wiring the pipeline stages.

Exit codes: 0 success, 1 usage or data error, 2 missing prerequisite
artifact, 3 integrity or coverage error. A refused input, a missing file
or a full disk prints one "error:" line; any other failure is a defect of
the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .artifacts import Refusal
from .config import RunConfig, load_config
from .pipeline import (
    stage_build_features,
    stage_evaluate,
    stage_ingest,
    stage_report,
    stage_run_agents,
    stage_synth,
    stage_train,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INTEGRITY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ensemble-judge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, type=Path, help="run config JSON")
        return p

    p = add("ingest", "load + preprocess the corpus and write the chronological split")
    p.add_argument("--corpus", type=Path, default=None, help="override the config corpus path")

    p = add("run-agents", "populate the agent cache (resumable)")
    p.add_argument("--split", type=Path, default=None, help="restrict to ids in this split file")

    add("build-features", "export per-split feature matrices from the cache")
    add("train", "tune C on dev and fit the aggregator on train")
    add("evaluate", "score all methods on the test split and write reports")

    p = add("synth", "generate a synthetic corpus + latents sidecar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = add("report", "print the persisted evaluation report")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config)
    corpus_override = getattr(args, "corpus", None)
    if corpus_override is not None:
        config = dataclasses.replace(config, corpus_path=corpus_override)
    return config


def _dispatch(args: argparse.Namespace) -> int:
    config = _load_config(args)
    if args.command == "ingest":
        summary = stage_ingest(config)
        print(
            f"ingested {summary['records']} records -> "
            f"train/dev/test = {summary['train']}/{summary['dev']}/{summary['test']}"
        )
    elif args.command == "run-agents":
        summary = stage_run_agents(config, split_path=args.split)
        print(
            f"coverage: {summary['pairs'] - summary['missing']}/{summary['pairs']} pairs "
            f"({summary['already_cached']} cached, {summary['fetched']} fetched, "
            f"{summary['fallbacks']} fallbacks)"
        )
        if summary["missing"]:
            print(f"error: {summary['missing']} pairs still missing", file=sys.stderr)
            return EXIT_INTEGRITY
    elif args.command == "build-features":
        counts = stage_build_features(config)
        print(
            "features written: "
            + ", ".join(f"{split}={n}" for split, n in counts.items())
        )
    elif args.command == "train":
        summary = stage_train(config)
        scores = ", ".join(
            f"C={c:g}: {s:.4f}" for c, s in sorted(summary["dev_balanced_accuracy"].items())
        )
        print(f"dev balanced accuracy by C: {scores}")
        print(
            f"chose C={summary['chosen_C']:g}; optimizer: "
            f"{summary['iterations']} iterations, "
            f"final gradient norm {summary['final_gradient_norm']:.2e}"
        )
    elif args.command == "evaluate":
        report = stage_evaluate(config)
        agg = report.method_metrics["aggregator"]
        print(
            f"evaluated {report.test_size} test disclosures; aggregator balanced "
            f"accuracy {agg.balanced_accuracy:.4f}"
        )
        print(f"reports: {config.report_json_path}, {config.report_text_path}")
    elif args.command == "synth":
        summary = stage_synth(config, n=args.n, seed=args.seed)
        print(
            f"synthetic corpus: {summary['n']} records (seed {summary['seed']}, "
            f"positive rate {summary['positive_rate']:.3f}) -> {config.corpus_path}"
        )
    elif args.command == "report":
        sys.stdout.write(stage_report(config, args.format))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # from the environment: a missing file, a full disk
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
