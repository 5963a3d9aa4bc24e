import importlib
import importlib.util
import os
import subprocess
import sys

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "labbench", "tracing.py")


def _layers():
    spec = importlib.util.spec_from_file_location("labbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("qualname", [f"{layer}.{name}" for layer, names in _layers().items()
                                      for name in names])
def test_traced_name_resolves(qualname):
    # tracing.install() looks every name up as vars(owner)[attr] in each traced
    # operation, so one renamed or deleted function fails every operation
    layer, _, rest = qualname.partition(".")
    module = importlib.import_module("angelesco." + layer)
    owner_name, _, attr = rest.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner)[attr])


def test_cli_import_loads_every_traced_module_and_no_numpy():
    # install() reads sys.modules["angelesco." + layer] in each forked operation,
    # so importing the CLI must load every traced module, not leave it importable;
    # numpy is left to the functions that build arrays
    root = os.path.dirname(os.path.dirname(TRACING))
    code = "import sys; import angelesco.cli; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {name for name in loaded if name.split(".")[0] == "numpy"}
    assert {"angelesco." + layer for layer in _layers()} <= loaded
