"""Package metadata: every declared console script resolves to a callable,
and every public function, class and method of the package has a caller."""

import ast
import importlib
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
