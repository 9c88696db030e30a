import importlib
import pkgutil

import pytest

import switchlin

MODULES = ["switchlin"] + [
    f"switchlin.{info.name}" for info in pkgutil.iter_modules(switchlin.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a stale entry would also make `from <module> import *` raise
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
