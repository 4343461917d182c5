"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 5 and 7 share one full synthetic pipeline run (n = 20,000,
seed 42) through the real CLI.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import random
import time
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from ensemble_judge.agents import confidence_from_logprobs
from ensemble_judge.cli import main
from ensemble_judge.config import RunConfig, TrainConfig
from ensemble_judge.domain import Split
from ensemble_judge.evaluation import ConfusionMatrix, metrics
from ensemble_judge.ingest import chronological_split, sort_records
from ensemble_judge.meta import fit_logistic, logistic_loss_and_gradient
from ensemble_judge.store import CacheStore
from tests.conftest import agent_json, completion_body, make_triple
from tests.oracles import confidence_vote_predict, confidence_vote_score, majority_vote_predict
from tests.test_evaluation import HAND_COMPUTED_MATRICES
from tests.test_ingest import record as make_record

TRAIN = TrainConfig()

pytestmark = pytest.mark.filterwarnings(
    "ignore:feature column .* is constant:RuntimeWarning"
)


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL - {description}")
                raise
            print(f"[criterion {number}] PASS - {description}")

        return wrapper

    return deco


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def synth_pipeline(tmp_path_factory):
    """One full n=20,000 seed-42 run through the CLI; returns paths + timing."""
    tmp = tmp_path_factory.mktemp("acceptance")
    workdir = tmp / "run"
    cfg = {
        "workdir": str(workdir),
        "corpus_path": str(workdir / "corpus.jsonl"),
        "latents_path": str(workdir / "latents.jsonl"),
        "seed": 42,
        "stub_agents": {"enabled": True},
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    started = time.monotonic()
    for args in (
        ["synth", "--n", "20000", "--seed", "42"],
        ["ingest"],
        ["run-agents"],
        ["build-features"],
        ["train"],
        ["evaluate"],
    ):
        rc = main([args[0], "--config", str(cfg_path)] + args[1:])
        assert rc == 0, f"stage {args[0]} failed"
    elapsed = time.monotonic() - started
    return {"config": cfg_path, "workdir": workdir, "elapsed": elapsed}


class TestCriterion1FormulaOracles:
    @criterion(1, "confidence and vote formulas match direct evaluation")
    def test_formula_oracles(self):
        rng = random.Random(424242)
        for _ in range(100):
            lps = [rng.uniform(-12.0, 0.0) for _ in range(rng.randint(1, 10))]
            direct = math.exp(sum(lps) / len(lps))
            assert abs(confidence_from_logprobs(lps) - direct) <= 1e-12

        for combo in itertools.product((-1, 0, 1), repeat=3):
            for _ in range(3):
                confs = [rng.random() for _ in range(3)]
                expected = sum(c * l for c, l in zip(confs, combo))
                got = confidence_vote_score(make_triple(list(combo), confs))
                assert abs(got - expected) <= 1e-12


class TestCriterion2Optimizer:
    @criterion(2, "gradient, symmetric toy, and refit determinism")
    def test_optimizer_correctness(self):
        rng = np.random.default_rng(20240901)
        for _ in range(20):
            X = rng.normal(0, 1, size=(10, 15))
            y = rng.integers(0, 2, size=10)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            w = rng.normal(0, 0.5, size=15)
            b = float(rng.normal(0, 0.5))
            C = float(rng.uniform(0.05, 20))
            _, grad = logistic_loss_and_gradient(w, b, X, y, C)
            eps = 1e-6
            for j in range(16):
                def loss_at(delta, j=j):
                    wj, bj = w.copy(), b
                    if j < 15:
                        wj[j] += delta
                    else:
                        bj += delta
                    return logistic_loss_and_gradient(wj, bj, X, y, C)[0]

                numeric = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
                denom = max(abs(numeric), 1e-8)
                assert abs(grad[j] - numeric) / denom <= 1e-5

        X_toy = np.array([[-1.0], [1.0]])
        y_toy = np.array([0, 1])
        w1, b1, _ = fit_logistic(X_toy, y_toy, C=1.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        proba_at_zero = 1.0 / (1.0 + math.exp(-b1))
        assert abs(proba_at_zero - 0.5) <= 1e-9

        X_big = np.random.default_rng(5).normal(size=(60, 15))
        y_big = (X_big[:, 0] + np.random.default_rng(6).normal(0, 1, 60) > 0).astype(int)
        wa, ba, _ = fit_logistic(X_big, y_big, C=2.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        wb, bb, _ = fit_logistic(X_big, y_big, C=2.0, tol=TRAIN.tol, max_iter=TRAIN.max_iter)
        assert wa.tobytes() == wb.tobytes() and ba == bb


class TestCriterion3MetricOracles:
    @criterion(3, "metrics match hand-computed confusion matrices")
    def test_metric_oracles(self):
        assert len(HAND_COMPUTED_MATRICES) == 10
        for cells, acc, macro, bal in HAND_COMPUTED_MATRICES:
            got = metrics(ConfusionMatrix(*cells))
            assert abs(got.accuracy - acc) <= 1e-12
            assert abs(got.macro_f1 - macro) <= 1e-12
            assert abs(got.balanced_accuracy - bal) <= 1e-12
        constant = metrics(ConfusionMatrix(tp=53, fp=47, tn=0, fn=0))
        assert constant.balanced_accuracy == 0.5


class TestCriterion4VotingOracles:
    @criterion(4, "majority-vote enumeration oracle and scaling invariance")
    def test_voting_oracles(self):
        for combo in itertools.product((-1, 0, 1), repeat=3):
            got = majority_vote_predict(make_triple(list(combo), [1.0, 1.0, 1.0]))
            counts = {c: combo.count(c) for c in combo}
            winner = next((c for c in combo if counts[c] >= 2), combo[0])
            assert got == (1 if winner == 1 else 0)

        rng = random.Random(1234)
        for _ in range(1000):
            labels = [rng.choice((-1, 0, 1)) for _ in range(3)]
            confs = [rng.random() for _ in range(3)]
            scale = rng.uniform(0.01, 1.0)
            scaled = [c * scale for c in confs]
            assert confidence_vote_predict(make_triple(labels, confs)) == confidence_vote_predict(
                make_triple(labels, scaled)
            )


class TestCriterion5PipelineDeterminism:
    @criterion(5, "reruns over the same cache are byte-identical")
    def test_replay_determinism(self, synth_pipeline):
        workdir = synth_pipeline["workdir"]
        cfg = synth_pipeline["config"]
        tracked = [
            "features_train.jsonl",
            "features_dev.jsonl",
            "features_test.jsonl",
            "model.json",
            "report.json",
            "report.txt",
        ]
        before = {name: sha(workdir / name) for name in tracked}
        for stage in ("build-features", "train", "evaluate"):
            assert main([stage, "--config", str(cfg)]) == 0
        after = {name: sha(workdir / name) for name in tracked}
        assert after == before


class TestCriterion6SplitIntegrity:
    @criterion(6, "random corpora keep 60/20/20 counts and no leakage")
    def test_split_integrity(self):
        rng = random.Random(987)
        base = datetime(2018, 1, 1, tzinfo=timezone.utc)
        for trial in range(1000):
            n = rng.randint(5, 120)
            records = [
                make_record(
                    f"id{trial}-{i:03d}",
                    base + timedelta(days=rng.randint(0, max(1, n // 3))),
                    ret=rng.choice((-0.01, 0.02)),
                )
                for i in range(n)
            ]
            split = chronological_split(records, RunConfig.split_fractions)
            counts = {s: len(ids) for s, ids in split.items()}
            assert sum(counts.values()) == n
            assert len({rid for ids in split.values() for rid in ids}) == n
            assert abs(counts[Split.TRAIN] - 0.6 * n) <= 1.0
            assert abs(counts[Split.DEV] - 0.2 * n) <= 1.0
            assert abs(counts[Split.TEST] - 0.2 * n) <= 1.0
            position = {r.id: i for i, r in enumerate(sort_records(records))}
            max_train = max(position[i] for i in split[Split.TRAIN])
            min_dev = min(position[i] for i in split[Split.DEV])
            max_dev = max(position[i] for i in split[Split.DEV])
            min_test = min(position[i] for i in split[Split.TEST])
            assert max_train < min_dev and max_dev < min_test


# Regression fixture frozen from the first n=20,000 seed-42 run. Counts and
# the chosen C are exact; balanced accuracies get a small tolerance so
# platform-level BLAS jitter in the logistic fit cannot flip the assertion.
FROZEN = {
    "chosen_C": 0.1,
    "balanced_accuracy": {
        "performance_agent": 0.5887480871640678,
        "guidance_agent": 0.6406098474706315,
        "risk_agent": 0.5737257781407823,
        "majority_vote": 0.6510266000758509,
        "confidence_vote": 0.66729754939498,
        "aggregator": 0.6782451835034979,
    },
    "regime_counts": {"unanimous": 489, "split_dominant": 1380, "high_conflict": 2131},
}


class TestCriterion7SyntheticOrdering:
    @criterion(7, "aggregator >= conf vote >= majority >= best single, +2pt margin")
    def test_ordering_and_regimes(self, synth_pipeline):
        workdir = synth_pipeline["workdir"]
        report = json.loads((workdir / "report.json").read_text())
        bal = {m: v["balanced_accuracy"] for m, v in report["methods"].items()}

        best_single = max(bal["performance_agent"], bal["guidance_agent"], bal["risk_agent"])
        assert bal["aggregator"] >= bal["confidence_vote"] >= bal["majority_vote"] >= best_single
        assert bal["aggregator"] - bal["majority_vote"] >= 0.02
        # qualitative single-agent ordering mirrors the reported one
        assert bal["guidance_agent"] > bal["performance_agent"] > bal["risk_agent"]

        regimes = report["regimes"]
        gains = {
            name: block["aggregator"] - block["majority_vote"]
            for name, block in regimes.items()
        }
        assert max(gains, key=gains.get) == "high_conflict"
        assert sum(block["count"] for block in regimes.values()) == report["test_size"] == 4000

        model = json.loads((workdir / "model.json").read_text())
        assert model["inverse_reg_strength"] == FROZEN["chosen_C"]
        for method, frozen_value in FROZEN["balanced_accuracy"].items():
            assert bal[method] == pytest.approx(frozen_value, abs=5e-4), method
        counts = {name: block["count"] for name, block in regimes.items()}
        assert counts == FROZEN["regime_counts"]

    @criterion(7, "full pipeline runs inside the 60 s budget")
    def test_runtime_budget(self, synth_pipeline):
        assert synth_pipeline["elapsed"] < 60.0, f"took {synth_pipeline['elapsed']:.1f}s"

    @criterion(7, "stub agent errors are close to cross-lens independent")
    def test_cross_lens_error_correlation(self, synth_pipeline):
        workdir = synth_pipeline["workdir"]
        from ensemble_judge.config import load_config
        from ensemble_judge.pipeline import load_prepared
        from tests.oracles import expected_cache_keys

        config = load_config(synth_pipeline["config"])
        records = load_prepared(workdir / "prepared.jsonl")
        # Record-major, one column per lens in the fixed agent order.
        keys = expected_cache_keys(records, config.agent_specs(), config.decoding().seed)
        with CacheStore(workdir / "cache.jsonl", readonly=True) as store:
            rows = store.rows([key.digest() for key in keys])
            assert (rows >= 0).all()
            labels, _ = store.judgments(rows)
        targets = np.array([r.binary_target for r in records], dtype=bool)
        errors = ((labels.reshape(-1, 3) == 1) != targets[:, None]).astype(float)
        corr = np.corrcoef(errors.T)
        worst = max(abs(corr[0, 1]), abs(corr[0, 2]), abs(corr[1, 2]))
        assert worst < 0.15, f"max |cross-lens error correlation| = {worst:.3f}"


class TestCriterion8ProtocolConformance:
    @criterion(8, "one retry per schema violation; fallback rows flow downstream")
    def test_retry_and_fallback_end_to_end(self, tmp_path, chat_endpoint):
        # Fault injection: the performance agent always violates the schema,
        # the other two answer correctly.
        def script(prompt, i):
            if "realized operating performance" in prompt:
                return 200, completion_body("I would rather chat about the weather.")
            label = "positive" if "forward guidance" in prompt else "negative"
            return 200, completion_body(agent_json(label, confidence=0.7))

        ep = chat_endpoint(script)
        workdir = tmp_path / "run"
        workdir.mkdir()
        corpus_path = workdir / "corpus.jsonl"
        base = datetime(2020, 1, 1, tzinfo=timezone.utc)
        with corpus_path.open("w") as fh:
            for i in range(10):
                fh.write(
                    json.dumps(
                        {
                            "id": f"d{i:02d}",
                            "timestamp": (base + timedelta(days=i)).isoformat(),
                            "ticker": "ACME",
                            "text": f"Quarterly update number {i}.",
                            "next_day_return": 0.01 if i % 2 == 0 else -0.01,
                        }
                    )
                    + "\n"
                )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "workdir": str(workdir),
                    "corpus_path": str(corpus_path),
                    "seed": 42,
                    "max_in_flight": 2,
                    "agents": [
                        {
                            "lens": lens,
                            "model_name": f"m-{lens}",
                            "endpoint_url": ep.url,
                            "supports_logprobs": False,
                        }
                        for lens in ("performance", "guidance", "risk")
                    ],
                }
            )
        )
        for stage in (["ingest"], ["run-agents"], ["build-features"], ["train"], ["evaluate"]):
            rc = main([stage[0], "--config", str(cfg_path)])
            assert rc == 0, stage

        # exactly one retry: every performance prompt was requested twice
        perf_calls = [
            count
            for prompt, count in ep.calls_by_prompt.items()
            if "realized operating performance" in prompt
        ]
        assert len(perf_calls) == 10 and all(c == 2 for c in perf_calls)

        outputs = [
            json.loads(line)["output"]
            for line in (workdir / "cache.jsonl").read_text().splitlines()
        ]
        fallbacks = [o for o in outputs if o["agent"] == "performance"]
        assert len(fallbacks) == 10
        for out in fallbacks:
            assert out["label"] == "neutral"
            assert out["confidence"] == 0.0
            assert out["confidence_source"] == "fallback"
            assert out["retry_count"] == 1

        # the records stay in every downstream stage
        for split in ("train", "dev", "test"):
            rows = (workdir / f"features_{split}.jsonl").read_text().splitlines()
            for row in map(json.loads, rows):
                assert row["features"][0] == 0.0 and row["features"][3] == 0.0
        total_rows = sum(
            len((workdir / f"features_{s}.jsonl").read_text().splitlines())
            for s in ("train", "dev", "test")
        )
        assert total_rows == 10
        report = json.loads((workdir / "report.json").read_text())
        assert report["test_size"] == 2
