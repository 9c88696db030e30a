import importlib
import pathlib
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


def test_only_expr_executes_generated_code():
    # one code-generation site: every generated function is compiled by expr._compile
    package = pathlib.Path(switchlin.__file__).parent
    executing = sorted(path.name for path in package.glob("*.py") if "exec(" in path.read_text())
    assert executing == ["expr.py"]
