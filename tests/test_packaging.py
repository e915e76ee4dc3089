"""Package metadata: every declared console script resolves to a callable,
and every public tensor op has a caller."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import groundlex.tensor as gt

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# Public names of groundlex.tensor that need no caller in the package or the
# benchmark, each with its reason.
TENSOR_CALLERLESS_ALLOWED = {
    "grad_check": "a test utility: the op tests compare every backward with it",
    "tsum": "grad checks reduce to a scalar with it",
    "reset_zero_norm_warnings": "read by tests only until the zero-norm "
                                "counter is reported (ROADMAP item 7)",
}


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


def names_used(path):
    """Every identifier a module reads, looks up as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_tensor_op_has_a_caller():
    # A function or class of groundlex.tensor that nothing in the package
    # outside tensor.py, nor the benchmark, names is dead code.
    package = Path(gt.__file__).resolve().parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "tensor.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    assert len(sources) > 5
    used = set().union(*(names_used(p) for p in sources))
    public = {name for name, obj in vars(gt).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == gt.__name__}
    assert public >= TENSOR_CALLERLESS_ALLOWED.keys()
    assert sorted(public - used - TENSOR_CALLERLESS_ALLOWED.keys()) == []
