"""Where the package writes files and encodes JSON lines, checked on its source.

Every artifact goes through ``artifacts.write_text`` (temporary file,
fsync, rename), the agent cache is the one file opened for append, and one
shared encoder writes non-ASCII JSON lines. A new write path elsewhere would
bypass the crash guarantees or the shared encoder without failing any
behavioural test, so these tests read the source instead. For the same
reason they check that the package imports nothing from ``tests`` and
defines nothing that only tests use.
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
