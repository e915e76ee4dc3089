"""Package metadata: every declared console script resolves to a callable,
every public function, class and method of the package has a caller, and
every private helper has one inside the package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import groundlex

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
PACKAGE = Path(groundlex.__file__).resolve().parent

@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_console_scripts_resolve():
    import tomllib
    meta = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target} is not callable"


def test_python_m_groundlex_cli_prints_the_usage():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-m", "groundlex.cli", "--help"], env=env,
                         capture_output=True, text=True, check=False)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("usage: groundlex "), run.stdout


CLI_IMPORTS = """
import json, os, sys
import groundlex.cli
from groundlex.optim import blas_park
maps = "/proc/self/maps"
openblas = None
if os.path.exists(maps):
    with open(maps) as fh:
        openblas = sorted({line.split(None, 5)[5].strip() for line in fh if "openblas" in line})
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"),
                  "openblas": openblas, "parked": blas_park() is not None}))
"""


def test_importing_the_cli_loads_no_scipy_and_one_openblas():
    # A training process needs numpy alone. SciPy would map a second OpenBLAS,
    # with its own worker thread, beside numpy's, whose workers the park
    # finds. Where there is no /proc, only the SciPy check runs.
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-c", CLI_IMPORTS], env=env,
                         capture_output=True, text=True, check=True)
    seen = json.loads(run.stdout)
    assert seen["scipy"] == []
    if seen["openblas"] is not None:
        assert len(seen["openblas"]) == 1, seen["openblas"]
        assert seen["parked"]


def test_the_library_imports_numpy_and_the_standard_library_alone():
    # Every import and from-import of the package, function-local ones too;
    # relative imports name the package's own modules. SciPy is a test oracle.
    allowed = {"numpy"} | set(sys.stdlib_module_names)
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update((path.name, a.name.partition(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add((path.name, node.module.partition(".")[0]))
    assert {"numpy", "math"} <= {module for _, module in found}
    assert sorted((name, module) for name, module in found if module not in allowed) == []


def names_used(tree, known, modules):
    """How often each identifier is used in an AST, keyed by (is_attribute,
    name): imported, read as a bare name that `known` holds, or looked up on
    a module of `modules` ({name read: names the module defines}) that
    defines it, (False, name); any other attribute lookup, (True, name)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in known:
            names[False, node.id] += 1
        elif isinstance(node, ast.Attribute):
            qualified = node.attr in modules.get(ast.unparse(node.value), ())
            names[not qualified, node.attr] += 1
        elif isinstance(node, ast.alias):
            names[False, node.name] += 1
    return names


def module_names(tree):
    """The names a module defines at its top level or imports: only these can
    be a bare-name use of a package function or class."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    return ({node.name for node in tree.body if isinstance(node, defs)}
            | {node.asname or node.name for node in ast.walk(tree) if isinstance(node, ast.alias)})


def imported_modules(tree, definitions):
    """The groundlex modules a file imports whole, as {the name it reads the
    module by: the names the module defines}. `definitions` maps each module
    of the package to the names it defines."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.module == "groundlex" or (node.level == 1 and node.module is None)):
            found.update((a.asname or a.name, definitions[a.name])
                         for a in node.names if a.name in definitions)
        elif isinstance(node, ast.Import):
            for a in node.names:
                package, _, module = a.name.partition(".")
                if package == "groundlex" and module in definitions:
                    found[a.asname or a.name] = definitions[module]
    return found


def public_definitions(tree):
    """The public top-level functions and classes of a module, and the
    public methods of its classes (dunders excluded), as (is_method, node)."""
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield False, node
        if isinstance(node, ast.ClassDef):
            yield from ((True, m) for m in node.body
                        if isinstance(m, defs) and not m.name.startswith("_"))


def test_every_public_name_has_a_caller():
    # A public function or class of any groundlex module that nothing in the
    # package or the benchmark names or imports, or a public method that
    # nothing looks up as an attribute, outside its own definition, is dead
    # code. A local variable that shares a method's name is no caller, and
    # neither is one that shares a function's name in a module that neither
    # defines nor imports that function. `module.f` calls f only when module
    # is a groundlex module, imported whole, that defines f.
    modules = sorted(PACKAGE.glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in modules]
    trees += [ast.parse(p.read_text(encoding="utf-8"))
              for p in sorted((ROOT / "bench").glob("*.py"))]
    assert len(modules) > 5 and len(trees) > len(modules) + 3
    definitions = {p.stem: {node.name for is_method, node in public_definitions(t)
                            if not is_method} for p, t in zip(modules, trees)}
    scopes = [(module_names(t), imported_modules(t, definitions)) for t in trees]
    used = sum((names_used(t, *scope) for t, scope in zip(trees, scopes)), Counter())
    callerless = set()
    for tree, scope in zip(trees[:len(modules)], scopes):
        for is_method, node in public_definitions(tree):
            key = is_method, node.name
            if used[key] - names_used(node, *scope)[key] == 0:
                callerless.add(node.name)
    assert not callerless, sorted(callerless)


def references(tree):
    """How often each identifier is named in an AST: read as a bare name,
    looked up as an attribute, or imported."""
    return Counter(node.id if isinstance(node, ast.Name)
                   else node.attr if isinstance(node, ast.Attribute) else node.name
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


def test_every_private_helper_has_a_caller_in_the_package():
    # A private top-level function or class of a groundlex module that nothing
    # in the package names outside its own body is dead code, whatever the
    # tests or the benchmark call.
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))]
    used = sum((references(t) for t in trees), Counter())
    helpers = [node for t in trees for node in t.body if isinstance(node, defs)
               and node.name.startswith("_") and not node.name.startswith("__")]
    assert len(helpers) > 20
    assert sorted(node.name for node in helpers
                  if used[node.name] - references(node)[node.name] == 0) == []


@pytest.mark.parametrize("source,counted", [
    ("from groundlex import tensor\ntensor.dropout(x)", True),
    ("from . import tensor as t\nt.dropout(x)", True),
    ("import groundlex.tensor\ngroundlex.tensor.dropout(x)", True),
    ("import numpy as np\nnp.dropout(x)", False),  # not a groundlex module
    ("from groundlex import corpus\ncorpus.dropout(x)", False),  # corpus defines no dropout
    ("import groundlex.tensor\ntensor.dropout(x)", False),  # no name `tensor` in scope
])
def test_a_module_qualified_call_counts_only_on_the_module_that_defines_it(source, counted):
    tree = ast.parse(source)
    definitions = {"tensor": {"dropout", "Tensor"}, "corpus": {"Vocabulary"}}
    used = names_used(tree, module_names(tree), imported_modules(tree, definitions))
    assert (used[False, "dropout"], used[True, "dropout"]) == ((1, 0) if counted else (0, 1))
