"""Benchmark for the ensemble-judge pipeline: run one workload, check its
outputs and print its metrics.

    python3 perfbench/run.py --workload stub-pipeline-20k --seed 42 --seconds 20 --trace 0

Run from a checkout holding ``src/ensemble_judge``; nothing is installed.
Timed runs (``--trace 0``) drive the real CLI (``python -m ensemble_judge.cli``)
as one fresh process per stage and report end-to-end metrics. Traced runs
(``--trace 1``) time one untraced pass, then run the same stages through
``traced_stage.py``, which wraps the package's public functions in spans,
and report per-layer metrics. Every metric is printed with its unit; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files go under
``.perfbench-work/`` (removed at exit) and merged traces under
``.perfbench-out/``.

Every pass runs ingest -> run-agents -> run-agents (resume) ->
build-features -> train -> evaluate into a fresh workdir (README.md has the
workloads, the checks and the layer -> metric -> workload map):

* ``stub-pipeline-20k`` - set-up: ``synth`` n = 20,000. Stub agents; the
  cold run-agents makes 60,000 cache appends, every later stage reloads the
  cache.
* ``http-agents-2k`` - set-up: ``synth`` and ``ingest`` at n = 2,000 and a
  mock chat endpoint in its own process (5 ms latency, scheduled faults).
  Three HTTP agents at max_in_flight = 2; the resume must send no request.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from mock_endpoint import Fault, fault_schedule
from tracing import aggregate, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_ROOT = ROOT / ".perfbench-out"

# Stages still running this long after start are killed, so that a hung
# program fails the run instead of overrunning its time limit.
RUN_DEADLINE_S = 170.0
ARTIFACTS = (
    "features_train.jsonl",
    "features_dev.jsonl",
    "features_test.jsonl",
    "model.json",
    "report.json",
    "report.txt",
)

# The acceptance suite's frozen n = 20,000 seed-42 results
# (tests/test_acceptance.py, FROZEN): chosen C and regime counts exact,
# balanced accuracies within 5e-4.
FROZEN_SEED = 42
FROZEN_C = 0.1
FROZEN_BALANCED_ACCURACY = {
    "performance_agent": 0.5887480871640678,
    "guidance_agent": 0.6406098474706315,
    "risk_agent": 0.5737257781407823,
    "majority_vote": 0.6510266000758509,
    "confidence_vote": 0.66729754939498,
    "aggregator": 0.6782451835034979,
}
FROZEN_REGIME_COUNTS = {"unanimous": 489, "split_dominant": 1380, "high_conflict": 2131}

# Every pass runs the same stage sequence into a fresh workdir; the second
# run-agents is a resume over the cache the first one filled.
PASS_STAGES = (
    ("ingest", "ingest"),
    ("run-agents", "run_agents"),
    ("run-agents", "run_agents_resume"),
    ("build-features", "build_features"),
    ("train", "train"),
    ("evaluate", "evaluate"),
)
STAGE_LABELS = tuple(label for _stage, label in PASS_STAGES)


@dataclass
class StageRun:
    label: str
    wall_s: float
    rss_mb: float
    returncode: int
    output: str
    start: float
    end: float
    trace_file: Path | None = None


@dataclass
class Pass:
    """One pass over the workload's stage sequence."""

    runs: list[StageRun] = field(default_factory=list)
    endpoint: dict | None = None
    cache_bytes: int = 0
    pairs: int = 0

    def stage(self, label: str) -> StageRun | None:
        return next((run for run in self.runs if run.label == label), None)

    @property
    def wall_s(self) -> float:
        """First stage start to last stage exit."""
        return self.runs[-1].end - self.runs[0].start if self.runs else 0.0

    @property
    def peak_rss_mb(self) -> float:
        return max((run.rss_mb for run in self.runs), default=0.0)


class Bench:
    """Runs stages as child processes and counts attempted and failed operations."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures: list[str] = []
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self._seq = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def stage(self, stage: str, config: Path, *extra: str, label: str | None = None,
              traced: bool = False) -> StageRun:
        """Run one stage as a fresh process; peak RSS comes from its own rusage."""
        self._seq += 1
        label = label or stage.replace("-", "_")
        log = self.work / f"{self._seq:03d}-{label}.log"
        trace_file = None
        if traced:
            trace_file = self.work / f"{self._seq:03d}-{label}.spans.json"
            cmd = [sys.executable, str(HERE / "traced_stage.py"), "--src", str(SRC),
                   "--config", str(config), "--stage", stage, "--label", label,
                   "--out", str(trace_file)]
        else:
            cmd = [sys.executable, "-m", "ensemble_judge.cli", stage, "--config", str(config), *extra]
        with log.open("w+", encoding="utf-8") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=fh,
                                    stderr=subprocess.STDOUT)
            killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            killer.start()
            try:
                # wait4, not RUSAGE_CHILDREN: the latter is a running maximum
                # over all children and would hide which stage peaks.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            fh.seek(0)
            output = fh.read()
        last_line = output.strip().splitlines()[-1:] or [""]
        self.check(proc.returncode == 0, f"{label} exited {proc.returncode}: {last_line[0]}")
        return StageRun(label, end - start, usage.ru_maxrss / 1024.0, proc.returncode,
                        output, start, end, trace_file)

    def timed(self, fn, *args) -> float:
        start = time.perf_counter()
        fn(*args)
        return time.perf_counter() - start


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_config(path: Path, **fields: object) -> Path:
    path.write_text(json.dumps({k: str(v) if isinstance(v, Path) else v
                                for k, v in fields.items()}), encoding="utf-8")
    return path


def coverage(output: str) -> dict[str, int] | None:
    """The counts of run-agents' ``coverage:`` line."""
    for line in output.splitlines():
        if line.startswith("coverage: "):
            done_pairs, rest = line[len("coverage: "):].split(" pairs (")
            done, pairs = (int(v) for v in done_pairs.split("/"))
            nums = [int(part.split()[0]) for part in rest.rstrip(")").split(", ")]
            return {"covered": done, "pairs": pairs, "cached": nums[0],
                    "fetched": nums[1], "fallbacks": nums[2]}
    return None


class Workload:
    """Set-up, passes and output checks of one workload."""

    name = ""
    n = 0
    setup_reps = 3
    min_passes = 1
    scheduled_fallbacks = 0

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.seed = seed
        self.base = bench.work
        self.corpus = self.base / "corpus.jsonl"
        self.latents = self.base / "latents.jsonl"
        self.reference: dict[str, str] | None = None
        self.passes = 0

    def stub_config(self, workdir: Path) -> Path:
        workdir.mkdir(parents=True, exist_ok=True)
        return write_config(workdir / "config.json", workdir=workdir, corpus_path=self.corpus,
                            latents_path=self.latents, seed=self.seed,
                            stub_agents={"enabled": True})

    def synth(self, config: Path) -> None:
        self.bench.stage("synth", config, "--n", str(self.n), "--seed", str(self.seed))

    def setup_once(self) -> None:
        raise NotImplementedError

    def prepare_pass(self, workdir: Path) -> Path:
        """Create the pass's workdir and return its config."""
        return self.stub_config(workdir)

    def after_stage(self, p: Pass, label: str) -> None:
        """Hook run between stages, outside their timing."""

    def check_pass(self, p: Pass, workdir: Path) -> None:
        """Workload-specific output checks after a complete pass."""

    def close(self) -> None:
        pass

    def run_pass(self, traced: bool) -> Pass:
        workdir = self.base / f"pass-{self.passes}"
        self.passes += 1
        config = self.prepare_pass(workdir)
        pairs = 3 * self.n
        p = Pass(pairs=pairs)
        for stage, label in PASS_STAGES:
            run = self.bench.stage(stage, config, label=label, traced=traced)
            p.runs.append(run)
            if run.returncode:
                return p
            self.after_stage(p, label)
            if label == "run_agents":
                self.expect_coverage(run, cached=0, fetched=pairs, fallbacks=self.scheduled_fallbacks)
            elif label == "run_agents_resume":
                self.expect_coverage(run, cached=pairs, fetched=0, fallbacks=0)
            elif label == "evaluate":
                self.check_artifacts(workdir)
        p.cache_bytes = (workdir / "cache.jsonl").stat().st_size
        self.check_pass(p, workdir)
        shutil.rmtree(workdir)
        return p

    def expect_coverage(self, run: StageRun, cached: int, fetched: int, fallbacks: int) -> None:
        got = coverage(run.output)
        want = {"covered": 3 * self.n, "pairs": 3 * self.n, "cached": cached,
                "fetched": fetched, "fallbacks": fallbacks}
        self.bench.check(got == want, f"{run.label}: coverage {got}, expected {want}")

    def check_artifacts(self, workdir: Path) -> None:
        """Byte-identical to the first pass; the frozen results at seed 42."""
        if not all((workdir / name).is_file() for name in ARTIFACTS):
            self.bench.check(False, f"artifacts missing in {workdir.name}")
            return
        shas = {name: sha256_file(workdir / name) for name in ARTIFACTS}
        if self.reference is not None:
            changed = sorted(name for name in ARTIFACTS if shas[name] != self.reference[name])
            self.bench.check(not changed, f"rerun not byte-identical: {changed}")
            return
        self.reference = shas
        if self.seed == FROZEN_SEED and self.n == 20_000:
            try:
                report = json.loads((workdir / "report.json").read_text(encoding="utf-8"))
                model = json.loads((workdir / "model.json").read_text(encoding="utf-8"))
                bal = {m: v["balanced_accuracy"] for m, v in report["methods"].items()}
                counts = {name: block["count"] for name, block in report["regimes"].items()}
            except (ValueError, KeyError, TypeError) as exc:
                self.bench.check(False, f"unreadable report or model: {exc!r}")
                return
            self.bench.check(model["inverse_reg_strength"] == FROZEN_C,
                             f"chosen C {model['inverse_reg_strength']} != {FROZEN_C}")
            self.bench.check(counts == FROZEN_REGIME_COUNTS, f"regime counts {counts}")
            off = {m: bal.get(m) for m, v in FROZEN_BALANCED_ACCURACY.items()
                   if bal.get(m) is None or abs(bal[m] - v) > 5e-4}
            self.bench.check(not off, f"balanced accuracies off the frozen values: {off}")


class StubPipeline(Workload):
    name = "stub-pipeline-20k"
    n = 20_000
    # Later passes are checked byte for byte against the first. A pass takes
    # ~20 s and varies by up to ~25 % within a run on a shared VM: three
    # passes give a median that drops one outlier.
    min_passes = 3

    def setup_once(self) -> None:
        self.synth(self.stub_config(self.base / "synth"))


class Mock:
    """The mock endpoint process; stops when its stdin closes."""

    def __init__(self, bench: Bench, workdir: Path, seed: int):
        self.table_path = workdir / "mock-table.json"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mock_endpoint.py"), "--src", str(SRC),
             "--prepared", str(workdir / "prepared.jsonl"),
             "--latents", str(bench.work / "latents.jsonl"), "--seed", str(seed),
             "--table-out", str(self.table_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=bench.work,
            env=bench.env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("listening "):
            self.stop()
            raise RuntimeError(f"mock endpoint failed to start: {line!r}")
        self.base_url = f"http://127.0.0.1:{int(line.split()[1])}"
        self.url = self.base_url + "/v1/chat/completions"

    def table(self) -> dict[str, str]:
        return json.loads(self.table_path.read_text(encoding="utf-8"))

    def _call(self, path: str, data: bytes | None = None) -> dict:
        with urllib.request.urlopen(self.base_url + path, data=data, timeout=10) as resp:
            return json.loads(resp.read())

    def stats(self) -> dict:
        return self._call("/_stats")

    def reset(self) -> None:
        self._call("/_reset", data=b"")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class HttpAgents(Workload):
    name = "http-agents-2k"
    n = 2_000
    min_passes = 1

    def __init__(self, bench: Bench, seed: int):
        super().__init__(bench, seed)
        self.mock: Mock | None = None

    def setup_once(self) -> None:
        """Corpus plus a started mock; its answer table needs the prepared text."""
        if self.mock is not None:
            self.mock.stop()
        config = self.stub_config(self.base / "mock")
        self.synth(config)
        self.bench.stage("ingest", config)
        self.mock = Mock(self.bench, self.base / "mock", self.seed)
        self.expected = self.mock.table()
        self.fallback_prompts = {
            h for h, fault in fault_schedule(self.expected, self.seed).items()
            if fault is Fault.TWO_VIOLATIONS
        }
        self.scheduled_fallbacks = len(self.fallback_prompts)

    def prepare_pass(self, workdir: Path) -> Path:
        """A fresh workdir with an HTTP-agent config; the mock's counters reset."""
        workdir.mkdir(parents=True, exist_ok=True)
        self.mock.reset()
        return write_config(
            workdir / "config.json", workdir=workdir, corpus_path=self.corpus,
            seed=self.seed, max_in_flight=2,
            agents=[{"lens": lens, "model_name": f"mock-{lens}", "endpoint_url": self.mock.url,
                     "supports_logprobs": False}
                    for lens in ("performance", "guidance", "risk")],
        )

    def after_stage(self, p: Pass, label: str) -> None:
        if label == "run_agents":
            p.endpoint = self.mock.stats()

    def check_pass(self, p: Pass, workdir: Path) -> None:
        sent = self.mock.stats()["requests"] - p.endpoint["requests"]
        self.bench.check(sent == 0, f"resume run sent {sent} requests")
        self.check_cache(workdir / "cache.jsonl")

    def check_cache(self, cache: Path) -> None:
        """Non-fallback outputs equal the stub's; fallbacks only where scheduled."""
        wrong: list[str] = []
        with cache.open(encoding="utf-8") as fh:
            for line in fh:
                out = json.loads(line)["output"]
                phash = out["prompt_hash"]
                scheduled = phash in self.fallback_prompts
                if out["confidence_source"] == "fallback":
                    if not scheduled:
                        wrong.append(f"unscheduled fallback {out['disclosure_id']}/{out['agent']}")
                    continue
                stub = json.loads(self.expected.get(phash, "{}"))
                if scheduled or (out["label"], out["confidence"]) != (stub.get("label"), stub.get("confidence")):
                    wrong.append(f"{out['disclosure_id']}/{out['agent']}")
        self.bench.check(not wrong, f"{len(wrong)} cached outputs differ from the stub: {wrong[:3]}")

    def close(self) -> None:
        if self.mock is not None:
            self.mock.stop()


WORKLOADS = {w.name: w for w in (StubPipeline, HttpAgents)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s: list[float], passes: list[Pass]) -> dict[str, tuple[str, list[float]]]:
    """Metric -> (unit, samples) over the timed passes; each is reported as a median.

    Per-stage times are per-layer metrics (``cli.<stage>_s``): on the 2k
    workload most stages take under a second, mostly interpreter start, and
    vary by ~20 % between runs on a shared host.
    """
    return {
        "setup_s": ("s", setup_s),
        "wall_s": ("s", [p.wall_s for p in passes]),
        "run_agents_s": ("s", [p.stage("run_agents").wall_s for p in passes]),
        "peak_rss_mb": ("MB", [p.peak_rss_mb for p in passes]),
    }


def endpoint_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    stats = p.endpoint or {}
    requests = stats.get("requests", 0)
    turnaround = [t * 1000.0 for t in stats.get("turnaround_s", [])]
    cold = p.stage("run_agents")
    return {
        "endpoint.requests": (requests, "count"),
        "endpoint.status_503": (stats.get("by_status", {}).get("503", 0), "count"),
        "endpoint.turnaround_ms_p50": (percentile(turnaround, 50) if turnaround else 0.0, "ms"),
        "endpoint.turnaround_ms_p99": (percentile(turnaround, 99) if turnaround else 0.0, "ms"),
        "endpoint.in_flight_mean": (stats.get("in_flight_mean", 0.0), "requests"),
        "endpoint.requests_per_s": (requests / cold.wall_s if requests and cold else 0.0, "1/s"),
    }


def per_layer(untraced: Pass, traced: Pass, import_s: list[float], trace_out: Path) -> dict:
    """Per-layer metrics from the traced pass's spans and counters."""
    by_name: dict[str, dict] = {}
    counts: dict[str, float] = {}
    generate_ms: list[float] = []
    with gzip.open(trace_out, "wt", encoding="utf-8") as merged:
        for run in traced.runs:
            label = run.label
            if run.trace_file is None or not run.trace_file.is_file():
                continue
            data = json.loads(run.trace_file.read_text(encoding="utf-8"))
            spans = [tuple(s) for s in data["spans"]]
            for name, entry in aggregate(spans).items():
                acc = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for key in acc:
                    acc[key] += entry[key]
            for key, value in data["counts"].items():
                counts[key] = counts.get(key, 0) + value
            generate_ms += [(s[4] - s[3]) * 1000.0 for s in spans if s[2] == "agents.generate"]
            for s in spans:
                merged.write(json.dumps({"run": label, "id": s[0], "parent": s[1], "name": s[2],
                                         "start": s[3], "end": s[4]}) + "\n")

    def calls(name: str) -> int:
        return by_name.get(name, {}).get("calls", 0)

    def total(name: str, key: str = "total_s") -> float:
        return by_name.get(name, {}).get(key, 0.0)

    generate, run_agent, posts = calls("agents.generate"), calls("agents.run_agent"), calls("http.post")
    puts = calls("store.put")
    records_loaded = counts.get("store.records_loaded", 0)
    m: dict[str, tuple[float, str]] = {
        "store.opens": (calls("store.open"), "count"),
        "store.open_s": (total("store.open"), "s"),
        "store.records_loaded": (records_loaded, "count"),
        "store.load_records_per_s": (records_loaded / total("store.open") if total("store.open") else 0.0, "1/s"),
        "store.get_calls": (calls("store.get"), "count"),
        "store.missing_s": (total("store.missing"), "s"),
        "store.put_calls": (puts, "count"),
        "store.put_s": (total("store.put"), "s"),
        "store.sync_calls": (calls("store.sync"), "count"),
        "store.sync_s": (total("store.sync"), "s"),
        "store.file_bytes": (traced.cache_bytes, "B"),
        "store.bytes_per_pair": (traced.cache_bytes / traced.pairs if traced.pairs else 0.0, "B/pair"),
        "agents.expected_keys_calls": (calls("agents.expected_cache_keys"), "count"),
        "agents.expected_keys_s": (total("agents.expected_cache_keys"), "s"),
        "agents.prompt_hashes": (counts.get("agents.prompt_hashes", 0), "count"),
        "agents.generate_calls": (generate, "count"),
        "agents.generate_ms_p50": (percentile(generate_ms, 50) if generate_ms else 0.0, "ms"),
        "agents.generate_ms_p99": (percentile(generate_ms, 99) if generate_ms else 0.0, "ms"),
        "agents.run_agent_s": (total("agents.run_agent"), "s"),
        "agents.schema_retries": (generate - run_agent, "count"),
        "agents.transport_retries": (posts - generate, "count"),
        "agents.fallbacks": (counts.get("agents.fallbacks", 0), "count"),
        # Pairs stored per generate call; 0 where no agent calls an endpoint.
        "agents.useful_ratio": (run_agent / generate if generate else 0.0, "ratio"),
    }
    m.update(endpoint_metrics(untraced))
    m.update({
        "ingest.load_corpus_s": (total("ingest.load_corpus"), "s"),
        "ingest.preprocess_s": (total("ingest.preprocess_corpus"), "s"),
        "ingest.split_s": (total("ingest.chronological_split"), "s"),
        "features.build_calls": (calls("features.build_features"), "count"),
        "features.build_s": (total("features.build_features"), "s"),
        "features.write_s": (total("features.write_feature_file"), "s"),
        "features.read_s": (total("features.read_feature_file"), "s"),
        "meta.train_s": (total("meta.train_meta_model"), "s"),
        "meta.fit_calls": (calls("meta.fit_logistic"), "count"),
        "meta.newton_iterations": (counts.get("meta.newton_iterations", 0), "count"),
        "evaluation.evaluate_split_s": (total("evaluation.evaluate_split"), "s"),
        "evaluation.regime_calls": (calls("evaluation.regime_of"), "count"),
        "evaluation.write_report_s": (total("evaluation.write_report"), "s"),
    })
    for stage in STAGE_LABELS:
        m[f"pipeline.{stage}_s"] = (total(f"pipeline.{stage}"), "s")
        m[f"pipeline.{stage}_self_s"] = (total(f"pipeline.{stage}", "self_s"), "s")
    for stage in STAGE_LABELS:
        run = untraced.stage(stage)
        m[f"cli.{stage}_s"] = (run.wall_s if run else 0.0, "s")
    m["cli.import_s"] = (median(import_s), "s")
    m["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return m


def import_times(bench: Bench, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import ensemble_judge.cli"],
                              env=bench.env, cwd=bench.work, capture_output=True)
        out.append(time.perf_counter() - start)
        bench.check(proc.returncode == 0, f"import failed: {proc.stderr[-200:]!r}")
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK_ROOT / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(work)
    workload = WORKLOADS[workload_name](bench, seed)
    try:
        # The first import compiles the package's bytecode, so no timed stage
        # pays it; traced runs time three more imports for cli.import_s.
        import_s = import_times(bench, 4 if trace else 1)[1:]
        setup_s = [bench.timed(workload.setup_once)]
        passes: list[Pass] = []
        if trace and not bench.failures:
            passes = [workload.run_pass(traced=False), workload.run_pass(traced=True)]
        started = time.perf_counter()
        while not trace and not bench.failures and (
            len(passes) < workload.min_passes or time.perf_counter() - started < seconds
        ):
            passes.append(workload.run_pass(traced=False))
            # Set-ups alternate with passes: machine speed drifts over seconds,
            # so spread samples give a steadier median. setup_s is an
            # end-to-end metric only, so a traced run sets up once.
            if len(setup_s) < workload.setup_reps:
                setup_s.append(bench.timed(workload.setup_once))
        while not trace and len(setup_s) < workload.setup_reps:
            setup_s.append(bench.timed(workload.setup_once))
        if trace:
            untraced, traced = (passes + [Pass(), Pass()])[:2]
            OUT_ROOT.mkdir(exist_ok=True)
            trace_out = OUT_ROOT / f"trace-{workload_name}-{seed}.jsonl.gz"
            metrics = per_layer(untraced, traced, import_s, trace_out)
            for name, (value, unit) in metrics.items():
                print(f"{name:<30} {value:14.4f} {unit}")
        else:
            summary = end_to_end(setup_s, [p for p in passes if p.stage("run_agents")])
            for name, (unit, samples) in summary.items():
                print(f"{name:<22} {median(samples):12.4f} {unit:<6} median of {len(samples)}"
                      f" (min {min(samples, default=0):.4f}, max {max(samples, default=0):.4f})")
            for stage in STAGE_LABELS:  # informational; cli.<stage>_s in traced runs
                walls = [run.wall_s for p in passes for run in p.runs if run.label == stage]
                print(f"stage {stage:<16} {median(walls):12.4f} s      median of {len(walls)}")
            if passes:
                for name, (value, unit) in endpoint_metrics(passes[-1]).items():
                    print(f"{name:<22} {value:12.4f} {unit}")
            metrics = {name: (median(samples), unit) for name, (unit, samples) in summary.items()}
    finally:
        workload.close()
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"error_rate {failed / max(bench.attempted, 1):.4f} ({failed} of {bench.attempted} operations)")
    return {
        "correct": failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "ensemble_judge" / "cli.py").is_file():
        print(f"error: no ensemble_judge package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
