import importlib
import pathlib
import pkgutil
import subprocess
import sys

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


def test_importing_the_package_and_cli_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test dependency
    src = pathlib.Path(switchlin.__file__).parent.parent
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import switchlin, switchlin.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
