"""Dead-code guard over the package sources.

Parses `src/kleindim/*.py` and checks that
- every module-level import is used in its module (`__init__` re-exports
  the public API and is exempt), and
- every module-level `_private` name and `UPPER_CASE` constant is used:
  referenced in its own module outside its definition, imported by
  another package module, or read as `module.NAME` by `perfbench/`.
"""

import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kleindim"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
_CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*$")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loads(nodes):
    """Names read anywhere inside `nodes`."""
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _bound_by_import(stmt):
    if isinstance(stmt, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
        return [a.asname or a.name for a in stmt.names]
    return []


def _defined(stmt):
    """Names a module-level statement defines (imports excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _is_checked(name):
    private = name.startswith("_") and not name.startswith("__")
    return private or bool(_CONSTANT.match(name))


@functools.cache
def _used_from_outside():
    """(module, name) pairs that package modules import from each other
    or that perfbench/ reads as module.NAME."""
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, a.name) for a in node.names)
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                out.add((node.value.id, node.attr))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _loads(tree.body)
    unused = [name for stmt in tree.body for name in _bound_by_import(stmt)
              if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_private_names_and_constants_used(path):
    module = path.stem
    body = _tree(path).body
    loads = [_loads([stmt]) for stmt in body]
    unused = []
    for i, stmt in enumerate(body):
        elsewhere = set().union(*loads[:i], *loads[i + 1:])
        for name in _defined(stmt):
            if (_is_checked(name) and name not in elsewhere
                    and (module, name) not in _used_from_outside()):
                unused.append(name)
    assert unused == []
