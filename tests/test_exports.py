import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import contractlab

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(contractlab.__path__) if not m.name.startswith("_")
)
SOURCES = sorted(p for p in Path(contractlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"contractlab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_guard_flags_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "import math, numpy as np\n"
        "from .process import ProcessPath, ratio_band\n"
        "__all__ = ['ratio_band']\n"
        "def f(path: ProcessPath):\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == ["math"]
