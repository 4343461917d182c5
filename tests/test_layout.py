"""Where the package writes files and encodes JSON lines, checked on its source.

Every artifact goes through ``artifacts.write_text`` (temporary file,
fsync, rename), no file is opened in text mode, the agent cache is the one
file opened for append, and non-ASCII JSON lines have one writer per file
kind: the shared encoder in ``artifacts.py``, and the cache's fixed-layout
line in ``store.py``; each derived binary sidecar has one writing module. A new
write path elsewhere would bypass the crash guarantees or the line writers
without failing any behavioural test, so these tests read the source
instead. For the same
reason they check that the package imports nothing from ``tests``, defines
nothing that only tests use, that the names the benchmark wraps and no
stage calls are the array functions themselves, that only the
disclosure-line check and the generator build records, that only
``store._parse_line`` parses a cache line, that no stage parses a
feature file, that an input is refused by a refusal raised on purpose rather
than by a broad built-in error caught wholesale, that the CLI knows the
refusals by their base class alone, and that the CLI import and a stub
``run-agents`` leave unloaded the modules only some runs need.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path

import pytest

from ensemble_judge.cli import main

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ensemble_judge"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _calls(path: Path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            yield node


def _name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


# Calls that open a file, each with the mode it takes when none is given.
_OPENERS = {"open": "r", "fdopen": "r", "TemporaryFile": "w+b"}


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an ``open``/``Path.open``/``os.fdopen``/``tempfile.TemporaryFile``
    call (its default when not given)."""
    if _name(call) not in _OPENERS:
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) else "?"
    modes = [
        arg.value
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
    ]
    return modes[0] if modes else _OPENERS[_name(call)]


def _opens(mode_chars: str) -> dict[str, list[int]]:
    found: dict[str, list[int]] = {}
    for path in MODULES:
        for call in _calls(path):
            mode = _open_mode(call)
            if mode is not None and (mode == "?" or set(mode) & set(mode_chars)):
                found.setdefault(path.name, []).append(call.lineno)
    return found


def test_scan_sees_the_package():
    assert {"artifacts.py", "store.py", "pipeline.py"} <= {p.name for p in MODULES}


def test_no_module_opens_a_file_in_text_mode():
    """Every file is read as bytes and decoded as strict UTF-8 inside the
    check that names it. A text-mode read decodes outside that check, so a
    byte that is not UTF-8 would end a stage with no file or line named."""
    found = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        for call in _calls(path)
        if _name(call) == "read_text"
        or ("b" not in (_open_mode(call) or "b") and ast.unparse(call.func) != "os.open")
    ]
    assert found == []


def test_only_artifacts_opens_files_for_writing():
    assert set(_opens("wx+")) == {"artifacts.py"}


def test_only_the_store_opens_a_file_for_append():
    assert set(_opens("a")) == {"store.py"}


@pytest.mark.parametrize("method", ["write_text", "write_bytes"])
def test_no_module_writes_through_pathlib(method):
    found = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        for call in _calls(path)
        if isinstance(call.func, ast.Attribute) and call.func.attr == method
    ]
    assert found == []


def test_only_artifacts_builds_a_non_ascii_json_encoder():
    found = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        if path.name != "artifacts.py"
        for call in _calls(path)
        for keyword in call.keywords
        if keyword.arg == "ensure_ascii"
        and not (isinstance(keyword.value, ast.Constant) and keyword.value.value is True)
    ]
    assert found == []
    # The encoder's internals build JSON text without it.
    internals = {"encode_basestring", "encode_basestring_ascii", "c_make_encoder"}
    naming = {
        path.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id in internals)
        or (isinstance(node, ast.Attribute) and node.attr in internals)
        or (isinstance(node, ast.alias) and node.name in internals | {"json.encoder"})
        or (isinstance(node, ast.ImportFrom) and node.module == "json.encoder")
    }
    assert naming <= {"artifacts.py", "store.py"}


# Sidecar guard. Each derived binary file has one writer, through
# ``artifacts.write_stamped``: ``ingest.py`` writes the prepared key table
# (``prepared.jsonl.keys``) and ``store.py`` the cache's table snapshot
# (``cache.jsonl.table``). A reader stage that wrote one would race the
# stage that owns it.
SIDECAR_WRITERS = [(".keys", "ingest.py"), (".table", "store.py")]


def test_only_the_sidecar_owners_write_binary_files():
    callers = {
        path.name
        for path in MODULES
        if path.name != "artifacts.py"
        for call in _calls(path)
        if _name(call) in ("write_stamped", "write_binary")
    }
    assert callers == {writer for _, writer in SIDECAR_WRITERS}


@pytest.mark.parametrize("suffix, writer", SIDECAR_WRITERS)
def test_each_sidecar_is_named_by_its_writer_alone(suffix, writer):
    naming = {
        path.name
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value == suffix
    }
    assert naming == {writer}


# Dead-code guard. A function or class the package defines must be used by
# other live package code, or be wrapped or imported by name by the
# benchmark under ``perfbench/``; tests alone do not keep code in ``src/``.
# Liveness is a fixpoint: code reached only from dead code is dead too.

PERFBENCH = PACKAGE.parents[1] / "perfbench"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# argparse calls ``error`` on its parser itself; no package code names it.
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def _uses(node: ast.AST) -> tuple[set[str], set[str]]:
    """The ``Name`` ids and the ``Attribute`` names under ``node``."""
    names, attributes = set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attributes.add(sub.attr)
    return names, attributes


def _definitions():
    """Each module- or class-level def as ``(qualname, name, owning class, uses)``,
    and the uses of module-level code outside any def."""
    defs = []
    names, attributes = set(), set()
    for path in MODULES:
        for stmt in _tree(path).body:
            if isinstance(stmt, FUNCTIONS):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, None, _uses(stmt)))
            elif isinstance(stmt, ast.ClassDef):
                qualname = f"{path.stem}.{stmt.name}"
                class_names, class_attributes = set(), set()
                for item in stmt.body + stmt.bases + stmt.keywords + stmt.decorator_list:
                    if isinstance(item, FUNCTIONS):
                        defs.append((f"{qualname}.{item.name}", item.name, qualname, _uses(item)))
                    else:
                        item_names, item_attributes = _uses(item)
                        class_names |= item_names
                        class_attributes |= item_attributes
                defs.append((qualname, stmt.name, None, (class_names, class_attributes)))
            else:
                stmt_names, stmt_attributes = _uses(stmt)
                names |= stmt_names
                attributes |= stmt_attributes
    return defs, names, attributes


def _named_in_perfbench() -> set[str]:
    """Every identifier, attribute, imported name and string in the benchmark."""
    named = set()
    for path in PERFBENCH.glob("*.py"):
        tree = _tree(path)
        named.update(*_uses(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    return named


def _dead_definitions() -> list[str]:
    """Defs no live code uses. A method counts as used only as an attribute
    (``obj.name``), so a local variable of the same name does not keep it;
    dunder methods of a live class are called by Python itself."""
    defs, top_names, top_attributes = _definitions()
    outside = _named_in_perfbench()
    live: set[str] = set()
    grown = True
    while grown:
        names, attributes = top_names | outside, top_attributes | outside
        for qualname, name, _owner, (def_names, def_attributes) in defs:
            if qualname in live:
                names |= def_names - {name}
                attributes |= def_attributes - {name}
        grown = False
        for qualname, name, owner, _uses_ in defs:
            if qualname in live:
                continue
            if owner is None:
                used = name in names or name in attributes
            else:
                dunder = name.startswith("__") and name.endswith("__")
                used = owner in live and (dunder or name in attributes)
            if used or qualname in CALLED_FROM_OUTSIDE:
                live.add(qualname)
                grown = True
    return sorted(qualname for qualname, *_ in defs if qualname not in live)


def _imports(path: Path):
    """Each absolute import in a module as ``(line, module)``; ``from m import
    n`` yields both ``m`` and ``m.n``, since ``n`` may be a submodule."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
            yield from ((node.lineno, f"{node.module}.{alias.name}") for alias in node.names)


def test_package_does_not_import_tests():
    found = [
        f"{path.name}:{line}"
        for path in MODULES
        for line, module in _imports(path)
        if module.split(".")[0] == "tests"
    ]
    assert found == []


def test_only_the_transport_touches_the_network_modules():
    """``agents.Transport`` is the one HTTP path: nothing imports
    ``http.client``, and only ``agents.py`` imports ``socket`` or ``ssl``."""
    imports = [(path.name, module) for path in MODULES for _, module in _imports(path)]
    assert [found for found in imports if found[1].startswith("http.client")] == []
    assert {name for name, module in imports if module.split(".")[0] in ("socket", "ssl")} == {
        "agents.py"
    }


def test_only_the_http_path_imports_concurrent_futures():
    """``agents.Transport`` and ``pipeline._http_blocks`` run the thread
    pools; no other module imports ``concurrent.futures``."""
    imports = [(path.name, module) for path in MODULES for _, module in _imports(path)]
    assert {name for name, module in imports if module.startswith("concurrent")} == {
        "agents.py",
        "pipeline.py",
    }


# Import guard. Each of these modules serves only some runs: the HTTP path's
# thread pools, ``ingest``'s exact split fractions (``fractions`` loads
# ``decimal``) and the store's crash-tail warning. Imported where they are
# used, they cost no other stage's process memory.
DEFERRED_MODULES = {"concurrent.futures", "fractions", "decimal", "logging"}


def _loaded(code: str) -> set[str]:
    """The modules a fresh interpreter holds once it has run ``code``; this
    process's ``sys.modules`` holds what every test before imported."""
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.splitlines()[-1].split())


def test_the_cli_import_loads_no_module_that_only_some_runs_need():
    assert _loaded("import ensemble_judge.cli") & DEFERRED_MODULES == set()


def test_a_stub_run_agents_loads_no_thread_pool(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "workdir": str(tmp_path / "run"),
        "corpus_path": str(tmp_path / "run" / "corpus.jsonl"),
        "latents_path": str(tmp_path / "run" / "latents.jsonl"),
        "seed": 42,
        "stub_agents": {"enabled": True},
    }))
    assert main(["synth", "--config", str(config), "--n", "100", "--seed", "42"]) == 0
    assert main(["ingest", "--config", str(config)]) == 0
    loaded = _loaded(
        "from ensemble_judge.cli import main\n"
        f"assert main(['run-agents', '--config', {str(config)!r}]) == 0"
    )
    # The stub agents drew their noise (numpy.random) and started no thread pool.
    assert "numpy.random" in loaded and "concurrent.futures" not in loaded
    assert (tmp_path / "run" / "cache.jsonl").exists()


def test_every_definition_has_a_live_user():
    assert _dead_definitions() == []


# Alias guard. The benchmark wraps these names for its spans, and no stage
# calls them: each must be the array function the pipeline runs, so that no
# second implementation hides behind the name.
BENCHMARK_ALIASES = [
    ("features", "build_features", "feature_matrix"),
    ("evaluation", "regime_of", "regimes"),
    ("evaluation", "evaluate_split", "evaluate_judgments"),
    ("agents", "expected_cache_keys", "prompt_digests"),
    ("store", "CacheStore.get", "CacheStore.rows"),
]


@pytest.mark.parametrize("module, alias, function", BENCHMARK_ALIASES)
def test_benchmark_aliases_are_the_array_functions(module, alias, function):
    owner = importlib.import_module(f"ensemble_judge.{module}")
    assert attrgetter(alias)(owner) is attrgetter(function)(owner)


# Format guard. A disclosure record is built only by the one reader in
# ``ingest.py``; the synthetic generator writes its lines straight from the
# arrays it draws, with no object a row. The binary target is derived inside
# the record. A second parser of the format, a target computed beside it, or
# a per-row record build in ``synth`` would drift from these unseen.
CALLERS_ALLOWED = [
    ("DisclosureRecord", {"ingest.py"}),
    ("target_from_return", {"domain.py"}),
    # Prompts are rendered only to be sent; digests come from prompt_digests.
    ("render_prompt", {"agents.py"}),
    # Outputs come from an agent or a stub agent; the cache holds their values.
    ("AgentOutput", {"agents.py", "synth.py"}),
]


@pytest.mark.parametrize("callee, allowed", CALLERS_ALLOWED)
def test_only_the_reader_and_the_generator_build_records(callee, allowed):
    found = [
        f"{path.name}:{call.lineno}"
        for path in MODULES
        if path.name not in allowed
        for call in _calls(path)
        if _name(call) == callee
    ]
    assert found == []


def test_only_parse_line_reads_a_cache_line():
    """Each of a cache line's rules is checked in one place, so every read of
    a line, re-reads included, goes through ``store._parse_line``."""
    readers = {
        fn.name
        for fn in ast.walk(_tree(PACKAGE / "store.py"))
        if isinstance(fn, FUNCTIONS)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and _name(call) == "loads"
    }
    assert readers == {"_parse_line"}



@pytest.mark.parametrize("module", ["features.py", "pipeline.py"])
def test_no_stage_parses_a_feature_file(module):
    """``train`` checks a feature file against the bytes ``feature_lines``
    renders, so the feature line has one set of rules: its writer's."""
    parsers = [
        f"{module}:{call.lineno}"
        for call in _calls(PACKAGE / module)
        if _name(call) in ("loads", "read_jsonl")
    ]
    assert parsers == []


# Knob guard. A parameter with a default is a value some caller may change;
# it must be given, by keyword or by position, at some call in the package
# or the benchmark. Tests alone do not keep a knob: a value only tests set
# belongs in a module constant the tests monkeypatch, and a run default in
# the config dataclasses.

# The test fake for the backoff sleep, and the entry point's argument list.
UNSET_DEFAULTS_ALLOWED = {
    "agents.ChatCompletionsClient.__init__(sleep)",
    "cli.main(argv)",
}


def _defaulted_parameters():
    """Each module- or class-level def's parameters that have a default, as
    ``(qualname, name the def is called by, position or None, parameter)``;
    an ``__init__`` is called by its class name, and ``self``/``cls`` take no
    position at the call."""
    for path in MODULES:
        for stmt in _tree(path).body:
            if isinstance(stmt, FUNCTIONS):
                members = [(None, stmt)]
            elif isinstance(stmt, ast.ClassDef):
                members = [(stmt.name, item) for item in stmt.body if isinstance(item, FUNCTIONS)]
            else:
                continue
            for owner, fn in members:
                qualname = ".".join(filter(None, (path.stem, owner, fn.name)))
                called_as = owner if fn.name == "__init__" else fn.name
                positional = fn.args.posonlyargs + fn.args.args
                if owner is not None:
                    positional = positional[1:]
                first = len(positional) - len(fn.args.defaults)
                for position, arg in enumerate(positional[first:], start=first):
                    yield qualname, called_as, position, arg.arg
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        yield qualname, called_as, None, arg.arg


def _unset_defaults() -> set[str]:
    calls = [call for path in [*MODULES, *PERFBENCH.glob("*.py")] for call in _calls(path)]

    def given(called_as: str, position: int | None, parameter: str) -> bool:
        for call in calls:
            if _name(call) != called_as:
                continue
            if any(kw.arg in (parameter, None) for kw in call.keywords):
                return True
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            if position is not None and (starred or len(call.args) > position):
                return True
        return False

    return {
        f"{qualname}({parameter})"
        for qualname, called_as, position, parameter in _defaulted_parameters()
        if not given(called_as, position, parameter)
    }


def test_every_defaulted_parameter_is_set_by_package_code():
    assert _unset_defaults() == UNSET_DEFAULTS_ALLOWED


# Refusal guard. A check refuses an input by raising a refusal on purpose
# (``artifacts.Refusal``, which carries the exit code). A clause that catches
# a broad built-in error turns a defect of the program into the input's
# fault, so each one is listed here with the reason the error can only come
# from the input at that place.
BROAD_ERRORS = {"KeyError", "TypeError", "ValueError", "LookupError", "AttributeError"}
BROAD_CATCHES_ALLOWED = {
    "agents.py:parse_output: (ValueError, RecursionError)":
        "json.loads of a model's answer: what the decoder refuses is a schema violation",
    "agents.py:parse_output: (ValueError, OverflowError)":
        "float() of the answer's confidence, which may be any string or a huge integer",
    "agents.py:http_url: ValueError": "urlsplit's refusal of a bracketed host or a port",
    "agents.py:ChatCompletionsClient._parse_response: "
    "(ValueError, KeyError, IndexError, TypeError, RecursionError)":
        "a server's chat envelope of any shape is a transport failure",
    "agents.py:ChatCompletionsClient._parse_response: "
    "(KeyError, TypeError, ValueError, OverflowError)":
        "a logprob stream of any shape is dropped, and the confidence falls back",
    "agents.py:_readable_int: ValueError": "int() of an envelope integer past the digit limit",
    "artifacts.py:loads: (ValueError, RecursionError)":
        "the JSON decoder's own refusals, the digit limit's plain ValueError among them",
    "config.py:load_config: (ValueError, RecursionError)":
        "the JSON decoder's refusals of the config file",
    "ingest.py:parse_rfc3339: ValueError": "how datetime.fromisoformat refuses a string",
    "store.py:_parse_line: ValueError": "how datetime.fromisoformat refuses a string",
    "ingest.py:read_key_table: (OSError, LookupError, TypeError, ValueError)":
        "a derived sidecar: a table that does not read costs only the full parse",
    "store.py:_read_snapshot: (OSError, LookupError, TypeError, ValueError)":
        "a derived sidecar: a snapshot that does not read costs only the full parse",
}


def _broad_catches():
    """Each ``except`` clause that names one of ``BROAD_ERRORS``, as
    ``module:enclosing def: caught types``."""

    def visit(path: Path, node: ast.AST, owner: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (*FUNCTIONS, ast.ClassDef)):
                yield from visit(path, child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                caught = {name.id for name in ast.walk(child.type) if isinstance(name, ast.Name)}
                if caught & BROAD_ERRORS:
                    yield f"{path.name}:{owner}: {ast.unparse(child.type)}"
            yield from visit(path, child, owner)

    for path in MODULES:
        yield from visit(path, _tree(path), "")


def test_only_the_listed_clauses_catch_a_broad_builtin_error():
    assert sorted(_broad_catches()) == sorted(BROAD_CATCHES_ALLOWED)


def test_the_cli_imports_no_exception_class_but_refusal():
    """Each refusal's exit code lives in its class, so the CLI catches the base
    class alone; a stage's own error classes are not its business."""
    cli = importlib.import_module("ensemble_judge.cli")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(_tree(PACKAGE / "cli.py"))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exceptions = {
        name
        for name in imported
        if isinstance(getattr(cli, name, None), type) and issubclass(getattr(cli, name), BaseException)
    }
    assert exceptions == {"Refusal"}
