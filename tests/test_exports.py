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
ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


def unset_defaults(sources: dict, callers: list) -> list:
    """``module.function(parameter)`` for each defaulted parameter of a function in
    ``sources`` (module name -> source) that no call in ``callers`` passes, by
    keyword or by position.

    Calls are matched by the called name alone, so a name clash can only hide
    an unset default, never report one that some call sets.
    """
    passed = {}  # called name -> positions and keywords passed; None: any
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                seen = passed.setdefault(name, set())
                seen.update(range(len(node.args)), (k.arg for k in node.keywords))
                if any(isinstance(a, ast.Starred) for a in node.args):
                    seen.add(None)
    unset = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            params = args.posonlyargs + args.args
            if params and params[0].arg in ("self", "cls"):
                params = params[1:]
            defaulted = list(enumerate(params))[len(params) - len(args.defaults) :]
            kwonly = zip(args.kwonlyargs, args.kw_defaults)
            defaulted += [(a.arg, a) for a, d in kwonly if d is not None]
            seen = passed.get(node.name, set())
            unset += [
                f"{module}.{node.name}({a.arg})"
                for i, a in defaulted
                if None not in seen and i not in seen and a.arg not in seen
            ]
    return unset


def test_every_default_is_passed_by_some_call():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unset_defaults(sources, [p.read_text() for p in CALLERS]) == []


def test_unset_default_guard_flags_a_leftover():
    source = (
        "def f(x, atol=1e-12, tol=0.0, *, scale=1.0):\n"
        "    return x\n"
        "class C:\n"
        "    def covers(self, m, rtol=1e-9):\n"
        "        return m\n"
    )
    callers = ["f(1, 2)\n", "obj.f(0, scale=3.0)\n", "C().covers(0.5)\n", "g(1, 2, rtol=0)\n"]
    assert unset_defaults({"m": source}, callers) == ["m.f(tol)", "m.covers(rtol)"]
    assert unset_defaults({"m": source}, callers + ["f(*args)\n"]) == ["m.covers(rtol)"]
