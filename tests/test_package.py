import ast
import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import switchlin
from switchlin import controllers, coverage, expr, geometry, sim

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


def test_only_expr_names_generated_code():
    # expr._emit gives every parameter its code name: no other module writes a p<k> or
    # p<id>_<k> name of its own, or rewrites emitted code with a regex
    package = pathlib.Path(switchlin.__file__).parent
    code_name = re.compile(r"""f["']p\{[^}]*\}(_\{[^}]*\})?["']""")
    naming = sorted(
        path.name
        for path in package.glob("*.py")
        if code_name.search(text := path.read_text()) or "re.sub" in text
    )
    assert set(naming) <= {"expr.py"}


def test_only_matrix_rank_takes_singular_values():
    # one rank rule (RANK_RTOL times the largest singular value): every svd in the package is
    # geometry.matrix_rank's, so no other module ranks a matrix, or a stack, by its own rule
    package = pathlib.Path(switchlin.__file__).parent
    svd = re.compile(r"\bsvd\b")
    found = {path.name: len(svd.findall(path.read_text())) for path in package.glob("*.py")}
    assert {name: count for name, count in found.items() if count} == {"geometry.py": 1}
    assert "np.linalg.svd(" in inspect.getsource(geometry.matrix_rank)


def test_rk4_weights_and_the_outer_loop_sum_are_written_once():
    # one RK4 scheme and one outer-loop sum, run on floats and on expression trees alike: the
    # generated closed-loop step gets both from the exact path's own functions
    package = pathlib.Path(switchlin.__file__).parent
    texts = {path.name: path.read_text() for path in package.glob("*.py")}
    for pattern, module, function in (
        (r"\b0\.5 \* h\b|\bh / 6\.0\b", "sim.py", sim._rk4_loop),
        (r"\balpha\S* \* \(", "controllers.py", controllers._virtual_input),
    ):
        found = {name: len(re.findall(pattern, text)) for name, text in texts.items()}
        written = len(re.findall(pattern, inspect.getsource(function)))
        assert written
        assert {name: count for name, count in found.items() if count} == {module: written}


def test_coverage_hard_codes_no_beam_angle_axis():
    # the necessity search takes its axes from the declared factors' zeros, as the probes do
    source = pathlib.Path(coverage.__file__).read_text()
    divisions = [ast.unparse(n) for n in ast.walk(ast.parse(source)) if isinstance(n, ast.BinOp)]
    assert "_X3" not in source
    assert not [d for d in divisions if re.fullmatch(r"-?(\w+\.)?pi / [24](\.0*)?", d)]


def _node_types(base=expr.Expr):
    return [t for sub in base.__subclasses__() for t in [sub, *_node_types(sub)]]


@pytest.mark.parametrize("node_type", _node_types(), ids=lambda t: t.__name__)
def test_bounds_give_every_node_type_an_interval_or_decline(node_type):
    # one node of each type, over operands on a box where every operation is defined: a node
    # type added later neither reaches _children's TypeError nor is given an interval unchecked
    child = expr.Add(expr.StateVar(1), expr.Constant(2.0))
    examples = {"Expr": child, "int": 2, "str": "B", "int | float": 0.5}
    node = node_type(*(examples[field.type] for field in dataclasses.fields(node_type)))
    box, params = [(0.5, 1.0), (-3.0, 2.0)], {"B": 0.75}
    interval = expr.bounds(node, box, params)
    if interval is not None:
        rng = np.random.default_rng(5)
        values = expr.evaluate_many(node, params, rng.uniform(*zip(*box), size=(1000, 2)))
        assert interval[0] <= values.min() and values.max() <= interval[1]


def _fresh_python(code):
    """What ``code`` prints in a fresh ``python -I`` that imports the package from this tree."""
    src = pathlib.Path(switchlin.__file__).parent.parent
    code = f"import sys; sys.path.insert(0, {str(src)!r}); {code}"
    result = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _loaded_by_importing_the_package_and_cli(top):
    """The modules named ``top`` or ``top.*`` that a fresh ``python -I`` loads for the CLI."""
    return _fresh_python(
        "import switchlin, switchlin.cli; "
        f"print(sorted(m for m in sys.modules if m == {top!r} or m.startswith({top + '.'!r})))"
    )


def test_importing_the_package_and_cli_loads_no_scipy():
    # the runtime needs only numpy; scipy is a test dependency
    assert _loaded_by_importing_the_package_and_cli("scipy") == "[]"


def test_importing_the_package_and_cli_loads_no_concurrent_module():
    # coverage_check's helper is a bare threading.Thread: concurrent.futures costs setup time
    assert _loaded_by_importing_the_package_and_cli("concurrent") == "[]"


def test_parse_reads_197_nested_parentheses_or_calls_and_988_unary_minuses():
    # in the default recursion limit: five frames per parenthesis or call, one per unary minus
    texts = ["(" * 197 + "x1" + ")" * 197, "sin(" * 197 + "x1" + ")" * 197, "-" * 988 + "x1"]
    code = f"from switchlin.expr import parse\nfor text in {texts!r}: parse(text, 1)\nprint('ok')"
    assert _fresh_python(code) == "ok"
