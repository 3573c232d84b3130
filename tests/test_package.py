import importlib
import pkgutil

import pytest

import specwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(specwave.__path__))


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"specwave.{module}" if module else "specwave")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
