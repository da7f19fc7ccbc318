import importlib
import pkgutil

import pytest

import contractlab

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(contractlab.__path__) if not m.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"contractlab.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
