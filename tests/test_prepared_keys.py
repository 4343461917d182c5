"""The prepared key table is only a faster way to what a full parse gives.

``ingest`` writes ``prepared.jsonl.keys`` next to ``prepared.jsonl``: the
ids, targets, prompt digests and cache-key digests of its disclosures,
stamped with the prepared bytes, the prompt templates, the agents and the
seed. A stage that finds a table whose stamp matches skips the text; any
other table is ignored and the prepared file is parsed in full. Either way
every artifact and exit code is the same.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import tempfile
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_judge import agents, pipeline, store
from ensemble_judge.agents import AgentSpec, prompt_digests, render_prompt
from ensemble_judge.cli import main
from ensemble_judge.config import load_config
from ensemble_judge.domain import LENS_ORDER, DisclosureRecord, Lens
from ensemble_judge.ingest import PreparedKeys, load_prepared, read_key_table
from tests.oracles import expected_cache_keys, prompt_digest, prompt_hash, write_prepared

texts = st.lists(
    st.sampled_from(["a", "é", "✓", " ", "\n", '"', "<DISCLOSURE>"]), min_size=1, max_size=8
).map("".join)
ids = st.text(alphabet=["a", "b", "\t", "\n", "é", "✓", '"'], min_size=1, max_size=4)
START = datetime(2024, 1, 2, tzinfo=timezone.utc)
records = st.lists(
    st.tuples(ids, texts, st.floats(min_value=-1.0, max_value=1.0)),
    max_size=6,
    unique_by=lambda row: row[0],
).map(
    lambda rows: [
        DisclosureRecord(
            id=rid,
            timestamp=START + timedelta(minutes=i),
            ticker="ACME",
            raw_text=text,
            clean_text=text,
            next_day_return=ret,
        )
        for i, (rid, text, ret) in enumerate(rows)
    ]
)
specs = st.lists(st.text(alphabet=["m", "é", ":", "1"], min_size=1, max_size=4), min_size=3,
                 max_size=3).map(
    lambda names: tuple(
        AgentSpec(lens, name, "http://localhost:1/v1") for lens, name in zip(LENS_ORDER, names)
    )
)
seeds = st.integers(min_value=-(2**40), max_value=2**40)


def _same(a: PreparedKeys, b: PreparedKeys) -> bool:
    return (
        a.ids == b.ids
        and a.targets.dtype == b.targets.dtype
        and np.array_equal(a.targets, b.targets)
        and a.prompts.shape == b.prompts.shape
        and a.prompts.tobytes() == b.prompts.tobytes()
        and a.keys.shape == b.keys.shape
        and a.keys.tobytes() == b.keys.tobytes()
    )


@given(lens=st.sampled_from(Lens), texts=st.lists(texts, max_size=5))
def test_prompt_digests_equal_the_rendered_prompts_hashes(lens, texts):
    assert [d.hex() for d in prompt_digests(lens, texts)] == [
        prompt_hash(render_prompt(lens, text)) for text in texts
    ]


@pytest.mark.parametrize(
    "template", ["no placeholder", "<DISCLOSURE>", "a <DISCLOSURE> b <DISCLOSURE>"]
)
def test_prompt_digests_follow_any_template(monkeypatch, template):
    monkeypatch.setitem(agents.PROMPT_TEMPLATES, Lens.RISK, template)
    texts = ["x", "<DISCLOSURE>", "é ✓"]
    assert [d.hex() for d in prompt_digests(Lens.RISK, texts)] == [
        prompt_hash(render_prompt(Lens.RISK, text)) for text in texts
    ]


@pytest.mark.parametrize("seed", [42, -7])
def test_each_pairs_digests_are_key_digest_and_prompt_digests(seed):
    """``PreparedKeys.of`` hashes pieces it makes once a record, a spec and a
    run; each pair's digests are still those of ``store.key_digest`` and
    ``prompt_digests``, for ids that need JSON escapes and non-ASCII texts."""
    rows = [("d-é", "Umsatz stieg — 5 % über Plan."), ('q"uote', "✓ confiant"),
            ("back\\slash", "plain"), ('é"\\✓', "<DISCLOSURE> é")]
    records = [
        DisclosureRecord(id=rid, timestamp=START + timedelta(minutes=i), ticker="ACME",
                         raw_text=text, clean_text=text, next_day_return=0.01)
        for i, (rid, text) in enumerate(rows)
    ]
    specs = tuple(
        AgentSpec(lens, name, "http://localhost:1/v1")
        for lens, name in zip(LENS_ORDER, ["modèle", "m:1", "stub-agent"])
    )
    keys = PreparedKeys.of(records, specs, seed)
    for row, record in enumerate(records):
        prompts = [prompt_digests(spec.lens, [record.clean_text])[0] for spec in specs]
        assert keys.prompts[row].tobytes() == b"".join(prompts)
        assert keys.keys[row].tobytes() == b"".join(
            store.key_digest(record.id, spec.lens.value, spec.model_name, prompt.hex(), seed)
            for spec, prompt in zip(specs, prompts)
        )


@given(records=records, specs=specs, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_table_path_equals_the_full_parse(records, specs, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prepared.jsonl"
        write_prepared(records, path, specs, seed)
        parsed = load_prepared(path)
        full = PreparedKeys.of(parsed, specs, seed)
        table = read_key_table(path, specs, seed)
        assert table is not None and _same(table, full)

        # The oracle: the keys and prompt hashes of the rendered prompts.
        keys = expected_cache_keys(parsed, specs, seed)
        assert full.keys.tobytes() == b"".join(key.digest() for key in keys)
        assert full.prompts.tobytes() == b"".join(bytes.fromhex(key.prompt_hash) for key in keys)
        hashes = sorted(key.prompt_hash for key in keys)
        assert pipeline._prompt_digest(full.prompts) == hashlib.sha256(
            "\n".join(hashes).encode("ascii")
        ).hexdigest()

        # A table stamped for another seed or other models is not used.
        assert read_key_table(path, specs, seed + 1) is None
        renamed = tuple(AgentSpec(s.lens, s.model_name + "x", s.endpoint_url) for s in specs)
        assert read_key_table(path, renamed, seed) is None


def test_every_flipped_or_cut_table_byte_gives_no_table(tmp_path):
    specs = tuple(AgentSpec(lens, "m", "http://localhost:1/v1") for lens in LENS_ORDER)
    path = tmp_path / "prepared.jsonl"
    rows = [("d\t✓", "Gains ✓."), ("d2", "Losses.")]
    write_prepared(
        [DisclosureRecord(rid, START + timedelta(minutes=i), "ACME", text, text, 0.5 - i)
         for i, (rid, text) in enumerate(rows)],
        path, specs, 7,
    )
    table = path.with_name("prepared.jsonl.keys")
    data = table.read_bytes()
    assert read_key_table(path, specs, 7) is not None
    for position in range(len(data)):
        flipped = bytearray(data)
        flipped[position] ^= 1
        table.write_bytes(bytes(flipped))
        assert read_key_table(path, specs, 7) is None, position
        table.write_bytes(data[:position])
        assert read_key_table(path, specs, 7) is None, position


# Stage runs with and without the sidecars, n = 300.

STAGES = ("run-agents", "build-features", "train", "evaluate")
ARTIFACTS = ("features_train.jsonl", "features_dev.jsonl", "features_test.jsonl", "model.json",
             "report.json", "report.txt")
SIDECARS = ("prepared.jsonl.keys", "cache.jsonl.table")


def _config(root: Path) -> Path:
    workdir = root / "run"
    path = root / "config.json"
    path.write_text(json.dumps({
        "workdir": str(workdir),
        "corpus_path": str(workdir / "corpus.jsonl"),
        "latents_path": str(workdir / "latents.jsonl"),
        "seed": 42,
        "stub_agents": {"enabled": True},
    }))
    return path


def _run(cfg: Path, *args: str) -> int:
    return main([args[0], "--config", str(cfg), *args[1:]])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A whole n = 300 stub run."""
    root = tmp_path_factory.mktemp("base")
    cfg = _config(root)
    for args in (("synth", "--n", "300", "--seed", "42"), ("ingest",), *((s,) for s in STAGES)):
        assert _run(cfg, *args) == 0
    return root / "run"


def _copy(base: Path, root: Path) -> tuple[Path, Path]:
    shutil.copytree(base, root / "run")
    return _config(root), root / "run"


def _cache_lines(workdir: Path) -> bytes:
    return re.sub(rb'"created_at": "[^"]*"', b"", (workdir / "cache.jsonl").read_bytes())


def _outcome(cfg: Path, workdir: Path) -> tuple:
    codes = [_run(cfg, stage) for stage in STAGES]
    files = {name: (workdir / name).read_bytes() for name in ARTIFACTS if (workdir / name).exists()}
    return codes, files, _cache_lines(workdir)


def _truncate(workdir: Path) -> None:
    path = workdir / "prepared.jsonl.keys"
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip(workdir: Path) -> None:
    path = workdir / "prepared.jsonl.keys"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 1
    path.write_bytes(bytes(data))


def _edit_clean_text(workdir: Path) -> None:
    path = workdir / "prepared.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[1])
    row["clean_text"] += " Amended."
    lines[1] = json.dumps(row, ensure_ascii=False) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _old_version_snapshot(version: int):
    """The snapshot with its format version set back to ``version``, digest
    line redone."""

    def edit(workdir: Path) -> None:
        path = workdir / "cache.jsonl.table"
        body = path.read_bytes()[:-65]
        assert body.startswith(b"ensemble-judge cache table 3\n")
        body = body.replace(b"table 3\n", b"table %d\n" % version, 1)
        path.write_bytes(body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")

    return edit


def _restamped(path: Path, edit) -> None:
    """The stamped file at ``path`` with ``edit(header)`` as its header line,
    digest line redone, as :func:`_old_version_snapshot` redoes it."""
    data = path.read_bytes()[:-65]
    start = data.index(b"\n") + 1  # past the magic line
    end = data.index(b"\n", start)
    header = json.dumps(edit(json.loads(data[start:end]))).encode("ascii")
    body = data[:start] + header + data[end:]
    path.write_bytes(body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")


def _headers(*names: str, edit):
    """An edit of the headers of the sidecars ``names``."""
    return lambda workdir: [_restamped(workdir / name, edit) for name in names]


def _nested_ids(workdir: Path) -> None:
    """The key table with its id array replaced by one nested past the
    recursion limit, digest line redone."""
    path = workdir / "prepared.jsonl.keys"
    lines = (workdir / "prepared.jsonl").read_text(encoding="utf-8").splitlines()
    ids = [json.loads(line)["id"] for line in lines]
    body, array = path.read_bytes()[:-65], json.dumps(ids).encode("ascii")
    assert body.endswith(array)
    body = body[: -len(array)] + b"[" * 100_000
    path.write_bytes(body + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n")


def _patch_templates(monkeypatch) -> None:
    risk = agents.PROMPT_TEMPLATES[Lens.RISK]
    monkeypatch.setitem(agents.PROMPT_TEMPLATES, Lens.RISK, risk.replace("downside", "tail"))


# (case, edit of both runs, edit of the run that keeps its sidecars)
CASES = [
    ("table-deleted", None, lambda w: (w / "prepared.jsonl.keys").unlink()),
    ("table-truncated", None, _truncate),
    ("table-byte-flipped", None, _flip),
    ("table-stale-after-a-clean-text-edit", _edit_clean_text, None),
    ("templates-changed", None, None),
    ("version-1-snapshot", None, _old_version_snapshot(1)),
    ("version-2-snapshot", None, _old_version_snapshot(2)),
    # Headers of the wrong JSON types, with good digests: each costs the full parse only.
    ("rows-a-string", None, _headers(*SIDECARS, edit=lambda h: {**h, "rows": "5"})),
    ("snapshot-covering-negative-bytes",
     None, _headers("cache.jsonl.table", edit=lambda h: {**h, "covered_bytes": -1})),
    ("headers-that-are-arrays", None, _headers(*SIDECARS, edit=list)),
    ("ids-nested-past-the-recursion-limit", None, _nested_ids),
    ("snapshot-without-cache-sha256", None,
     _headers("cache.jsonl.table", edit=lambda h: {k: h[k] for k in h if k != "cache_sha256"})),
]


@pytest.mark.parametrize("case, both, kept", CASES, ids=[case for case, *_ in CASES])
def test_sidecar_states_give_what_deleting_both_gives(base, tmp_path, monkeypatch, case, both,
                                                      kept):
    if case == "templates-changed":
        _patch_templates(monkeypatch)
    cfg_kept, kept_dir = _copy(base, tmp_path / "kept")
    cfg_bare, bare_dir = _copy(base, tmp_path / "bare")
    for workdir in (kept_dir, bare_dir):
        if both is not None:
            both(workdir)
    if kept is not None:
        kept(kept_dir)
    for name in SIDECARS:
        (bare_dir / name).unlink()
    table = kept_dir / "prepared.jsonl.keys"
    table_before = table.read_bytes() if table.exists() else None

    outcome = _outcome(cfg_kept, kept_dir)
    assert outcome == _outcome(cfg_bare, bare_dir)
    assert outcome[0] == [0, 0, 0, 0]
    # Readers never write the key table, whatever state they found it in.
    assert (table.read_bytes() if table.exists() else None) == table_before
    assert not (bare_dir / "prepared.jsonl.keys").exists()


def test_a_current_table_spares_the_text(base, tmp_path, monkeypatch, capsys):
    cfg, workdir = _copy(base, tmp_path)
    before = {name: (workdir / name).read_bytes() for name in ARTIFACTS}

    def refuse(*args):
        raise AssertionError("the prepared file was parsed")

    # The full-parse fallback, and the reader of the text.
    monkeypatch.setattr(PreparedKeys, "of", refuse)
    monkeypatch.setattr(pipeline, "read_prepared", refuse)
    capsys.readouterr()
    for stage in STAGES:
        assert _run(cfg, stage) == 0, stage
    assert "900 cached, 0 fetched" in capsys.readouterr().out
    assert {name: (workdir / name).read_bytes() for name in ARTIFACTS} == before

    # A cold stub run judges every pair from the table's ids and prompt digests.
    for name in ("cache.jsonl", "cache.jsonl.table"):
        (workdir / name).unlink()
    assert _run(cfg, "run-agents") == 0
    assert "0 cached, 900 fetched" in capsys.readouterr().out
    assert _cache_lines(workdir) == _cache_lines(base)


def test_the_full_parse_heap_does_not_grow_with_text_length(tmp_path):
    """With the key table deleted, the stages' full parse keeps the keys, not
    the texts: padding every text by 2,000 characters grows its heap peak by
    under a tenth of what the padding adds to the prepared file."""
    padding = " ".join(["padding"] * 250)

    def full_parse(name, pad):
        workdir = tmp_path / name / "run"
        workdir.mkdir(parents=True)
        cfg = _config(tmp_path / name)
        (workdir / "corpus.jsonl").write_text("".join(
            json.dumps({"id": f"r{i}", "timestamp": f"2020-01-01T00:{i // 60:02d}:{i % 60:02d}Z",
                        "ticker": "ACME", "text": f"Revenue rose {i}%. {pad}",
                        "next_day_return": 0.01}) + "\n"
            for i in range(1000)
        ))
        assert _run(cfg, "ingest") == 0
        (workdir / "prepared.jsonl.keys").unlink()
        config = load_config(cfg)
        tracemalloc.start()
        try:
            keys = pipeline._prepared(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(keys.ids) == 1000
        return peak, (workdir / "prepared.jsonl").stat().st_size

    full_parse("warm-up", "")
    plain_peak, plain_bytes = full_parse("plain", "")
    padded_peak, padded_bytes = full_parse("padded", padding)
    assert padded_bytes - plain_bytes > 1000 * 2 * len(padding)  # text and clean_text
    assert padded_peak - plain_peak < 0.1 * (padded_bytes - plain_bytes)


@pytest.mark.parametrize("rows", [0, 1, 1366, 100_000])
def test_the_prompt_digest_hashes_the_sorted_digests_a_block_at_a_time(rows):
    """The model's prompt digest equals the one-string form, across block
    ends, and holds little beside the sorted digests: for 300,000 of them
    (9.6 MB) the one-string form also holds their bytes and hex lines twice
    (about 48 MB more)."""
    prompts = np.random.default_rng(rows).integers(0, 256, (rows, 3, 32), dtype=np.uint8)
    tracemalloc.start()
    try:
        digest = pipeline._prompt_digest(prompts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == prompt_digest(prompts)
    assert peak < prompts.nbytes + 2 * 2**20
