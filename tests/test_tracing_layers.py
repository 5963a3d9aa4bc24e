import importlib
import importlib.util
import os

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
