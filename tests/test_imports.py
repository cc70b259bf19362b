"""The package stays numpy-only: its modules import nothing but the standard
library, numpy and the package itself; and every name it exports resolves."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stanforge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stanforge"}


def _imported(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # relative imports stay in the package
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_numpy_and_the_package(path):
    outside = sorted({name for name in _imported(path) if name.split(".")[0] not in ALLOWED})
    assert outside == []


@pytest.mark.parametrize("module", ["stanforge"] + sorted(
    f"stanforge.{path.stem}" for path in PACKAGE.glob("*.py") if path.stem != "__init__"))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
