"""Dead-code guard over the package sources.

Parses `src/kleindim/*.py` and checks that
- every module-level import is used in its module (`__init__` re-exports
  the public API and is exempt), and
- every module-level `_private` name and `UPPER_CASE` constant is used:
  referenced in its own module outside its definition, imported by
  another package module, or read as `module.NAME` by another package
  module or by `perfbench/`, and
- every parameter of every function is read in its body (`self` and
  `cls` aside; UNREAD_PARAMETERS lists the one exception), and
- every non-dunder method and every dataclass field of a module-level
  class is read in `src/kleindim` or `perfbench/`: as an attribute
  `x.name`, as a bare name in its class body (`__matmul__ = compose`), or,
  for a field, by `dataclasses.asdict` writing its class whole into the
  report, and
- no module reads another object's single-underscore attribute: `x._name`
  is read only with x `self` or `cls`, and
- `dimension.py`, `_core.py` and `subgroup.py` take no matrix product:
  no `@` and no call of einsum, dot, matmul, inner or tensordot, so their
  one elementwise form of each product (the ball search's sieve and
  products among them) stays the only one and no BLAS thread starts,
  and
- building genus-2 and genus-3 surfaces imports no SciPy, which the
  package does not depend on, and
- every subcommand option but --config sets a RunConfig field, with the
  field's default and the same flags in every subcommand, so the CLI and
  the report cannot drift apart, and
- no line of a package source is longer than MAX_LINE characters.
"""

import ast
import dataclasses
import functools
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import kleindim
from kleindim import report
from kleindim.cli import main

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
    or that package modules or perfbench/ read as module.NAME."""
    out = set()
    for path in list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                out.update((node.module, a.name) for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
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


# never read yet; ROADMAP item 7 adds it to the report
UNREAD_MEMBERS = {"BallResult.numeric_drops"}


def _is_dataclass(cls):
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _members(cls):
    """Non-dunder methods and, for a dataclass, fields defined in a class
    body."""
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (stmt.name.startswith("__") and stmt.name.endswith("__")):
                yield stmt.name
        elif (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
              and _is_dataclass(cls)):
            yield stmt.target.id


@functools.cache
def _attribute_reads():
    """Attribute names read as `x.name` in the package or perfbench/."""
    paths = list(PACKAGE.glob("*.py")) + list((ROOT / "perfbench").glob("*.py"))
    return {n.attr for path in paths for n in ast.walk(_tree(path))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


@functools.cache
def _serialized_classes():
    """Names of the dataclasses whose instances the pipeline passes whole
    to `asdict`, recorded on a small genus-1 run."""
    seen = set()
    asdict = report.asdict

    def recording(obj):
        seen.add(type(obj).__name__)
        return asdict(obj)

    config = report.RunConfig(level=0, word_budget=8, radius=4.0, max_elements=100)
    with mock.patch.object(report, "asdict", recording):
        report.run_pipeline(config)
    return seen


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_methods_and_fields_read(path):
    unread = []
    for cls in _tree(path).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        in_body = _loads(s for s in cls.body
                         if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)))
        for name in _members(cls):
            if name in _attribute_reads() or name in in_body:
                continue
            if _is_dataclass(cls) and cls.name in _serialized_classes():
                continue
            if f"{cls.name}.{name}" not in UNREAD_MEMBERS:
                unread.append(f"{cls.name}.{name}")
    assert unread == []


# growth.qi_constants(rep, paths): perfbench/workloads.py passes `rep`
# positionally, so it goes with the benchmark change of ROADMAP item 3
UNREAD_PARAMETERS = {"qi_constants.rep"}


def _unread_parameters(tree):
    """`function.parameter` for each parameter of a function or lambda in
    `tree` that its body never reads; `self` and `cls` are exempt."""
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = [p for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = _loads(fn.body if isinstance(fn.body, list) else [fn.body])
        unread += [f"{getattr(fn, 'name', 'lambda')}.{p.arg}" for p in params
                   if p.arg not in body and p.arg not in ("self", "cls")]
    return unread


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    assert [p for p in _unread_parameters(_tree(path)) if p not in UNREAD_PARAMETERS] == []


def test_unread_parameters_are_found():
    tree = ast.parse("def f(a, b=1, *c, d, **e):\n    return a + d\n"
                     "class K:\n    def m(self, x):\n        return 0\n"
                     "g = lambda y, z: y\n"
                     "def h(u, v):\n    def inner():\n        return u\n    return inner\n")
    assert sorted(_unread_parameters(tree)) == ["f.b", "f.c", "f.e", "h.v", "lambda.z", "m.x"]


def _private_reads(tree):
    """Reads `x._name` in `tree`, x anything but `self` or `cls`."""
    return [ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and n.attr.startswith("_") and not n.attr.startswith("__")
            and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_attribute_read_from_outside(path):
    assert _private_reads(_tree(path)) == []


def test_private_attribute_reads_are_found():
    tree = ast.parse("m._apply_hpoint(p)\nself._x\ncls._y\nx.__class__\nx._z = 1")
    assert _private_reads(tree) == ["m._apply_hpoint"]


_PRODUCT_CALLS = {"einsum", "dot", "matmul", "inner", "tensordot"}


def _matrix_products(tree):
    """The `@` operators and the calls named in _PRODUCT_CALLS in `tree`."""
    return [ast.unparse(n) for n in ast.walk(tree)
            if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.MatMult)
            or isinstance(n, ast.Call)
            and getattr(n.func, "attr", getattr(n.func, "id", None)) in _PRODUCT_CALLS]


@pytest.mark.parametrize("path", [PACKAGE / "dimension.py", PACKAGE / "_core.py",
                                  PACKAGE / "subgroup.py"], ids=lambda p: p.stem)
def test_no_matrix_products(path):
    assert _matrix_products(_tree(path)) == []


def test_matrix_products_are_found():
    tree = ast.parse("a @ b\nc @= d\nnp.einsum('i,i', e, f)\ng.dot(h)\nmatmul(i, j)\n"
                     "np.inner(k, l)\nnp.tensordot(m, n)\nnp.add(o, p)\nnp.dots(q, r)")
    assert len(_matrix_products(tree)) == 7


_NO_SCIPY = """
import sys
from click.testing import CliRunner
from kleindim.cli import main
from kleindim.hnn import build_hnn
from kleindim.surface import fn_surface_rep
build_hnn(fn_surface_rep(3, 5.0))
result = CliRunner().invoke(main, ["build-surface", "-g", "2"])
assert result.exit_code == 0, result.output
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_surface_build_imports_no_scipy():
    src = str(Path(kleindim.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_cli_options_are_run_config_fields():
    defaults = report.RunConfig()
    fields = {f.name for f in dataclasses.fields(defaults)}
    flags = {}
    wrong = []
    for command in main.commands.values():
        for param in command.params:
            if param.name == "config_path":
                continue
            label = f"{command.name} {max(param.opts, key=len)}"
            if param.name not in fields or param.default != getattr(defaults, param.name):
                wrong.append(label)
            elif flags.setdefault(param.name, param.opts) != param.opts:
                wrong.append(label)
    assert wrong == []
    assert set(flags) == fields


MAX_LINE = 100


def test_lines_fit_the_width():
    long = [f"{path.name}:{i}" for path in sorted(PACKAGE.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if len(line) > MAX_LINE]
    assert long == []
