"""Where the package writes files and encodes JSON lines, checked on its source.

Every artifact goes through ``artifacts.write_text`` (temporary file,
fsync, rename), the agent cache is the one file opened for append, and
non-ASCII JSON lines have one writer per file kind: the shared encoder in
``artifacts.py``, and the cache's fixed-layout line in ``store.py``. A new
write path elsewhere would bypass the crash guarantees or the line writers
without failing any behavioural test, so these tests read the source
instead. For the same
reason they check that the package imports nothing from ``tests``, defines
nothing that only tests use, and that the per-disclosure functions the
benchmark wraps reach the array path instead of holding a rule of their own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an ``open``/``Path.open``/``os.fdopen`` call ("r" when not given)."""
    if _name(call) not in ("open", "fdopen"):
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
    return modes[0] if modes else "r"


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


def test_package_does_not_import_tests():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "tests" for module in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_definition_has_a_live_user():
    assert _dead_definitions() == []


# Adapter guard. The benchmark wraps these per-disclosure names by name, so
# each must call the array function the pipeline runs; a rule of its own
# would be a second implementation that no stage uses.
ADAPTERS = [
    ("features", "build_features", "feature_matrix"),
    ("evaluation", "regime_of", "regimes"),
    ("evaluation", "evaluate_split", "evaluate_judgments"),
]


@pytest.mark.parametrize("module, adapter, core", ADAPTERS)
def test_benchmark_adapters_call_the_array_path(module, adapter, core):
    (fn,) = [
        stmt
        for stmt in _tree(PACKAGE / f"{module}.py").body
        if isinstance(stmt, FUNCTIONS) and stmt.name == adapter
    ]
    called = {_name(node) for node in ast.walk(fn) if isinstance(node, ast.Call)}
    assert core in called


# Knob guard. A parameter with a default is a value some caller may change;
# it must be given, by keyword or by position, at some call in the package
# or the benchmark. Tests alone do not keep a knob: a value only tests set
# belongs in a module constant the tests monkeypatch, and a run default in
# the config dataclasses.

# Test fakes for the HTTP session and the backoff sleep, and the entry
# point's argument list.
UNSET_DEFAULTS_ALLOWED = {
    "agents.ChatCompletionsClient.__init__(session)",
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
