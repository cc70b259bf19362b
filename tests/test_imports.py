"""The package stays numpy-only: its modules import nothing but the standard
library, numpy and the package itself; every name it exports resolves; and
no module keeps a module-level import that it does not use."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stanforge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stanforge"}


def _imported(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
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


# bindings that perfbench/tests/test_tracer.py checks its tracer wraps, kept
# although their modules do not call them
UNUSED_BUT_PINNED = {("cli", "train"), ("baselines", "affine_forward")}


def _unused_imports(path: Path) -> list[str]:
    """Names a module-level import binds that the module never reads and does not export in ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             if not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {node.value for assign in tree.body if isinstance(assign, ast.Assign)
                if any(isinstance(target, ast.Name) and target.id == "__all__" for target in assign.targets)
                for node in ast.walk(assign.value) if isinstance(node, ast.Constant)}
    return [name for name in bound if name not in read | exported and (path.stem, name) not in UNUSED_BUT_PINNED]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda path: path.name)
def test_module_has_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


def test_the_unused_import_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text("from __future__ import annotations\nimport os\nimport json as js\n"
                      "from math import pi, tau\n__all__ = ['tau']\nprint(pi)\n", encoding="utf-8")
    assert _unused_imports(module) == ["os", "js"]
