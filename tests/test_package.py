import importlib
import pkgutil
import subprocess
import sys

import pytest

import specwave

MODULES = sorted(m.name for m in pkgutil.iter_modules(specwave.__path__))


@pytest.mark.parametrize("module", ["", *MODULES])
def test_every_export_resolves(module):
    mod = importlib.import_module(f"specwave.{module}" if module else "specwave")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; numpy.random loads with the package
    code = (
        "import sys\n"
        "import specwave, specwave.cli, specwave.config, specwave.integrator\n"
        "import specwave.mc, specwave.validate\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout.split("\n")
    assert out[:2] == ["[]", "True"]
