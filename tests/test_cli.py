import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import switchlin
from switchlin.cli import main

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _scenario_dict(**overrides):
    data = {
        "plant": {"M": 0.05, "R": 0.01, "J": 0.02, "J_b": 2e-6, "G": 9.81},
        "initial_state": [0.3, 0.0, 0.1, 0.0],
        "reference": {"amplitude": 0.0, "period": 3.0},
        "thresholds": {"eps1": 0.05, "eps4": 0.08},
        "poles": {"law1": -4.0, "law2": -3.0, "law3": -3.0},
        "step": 0.001,
        "duration": 2.0,
        "tail_window": 1.0,
    }
    data.update(overrides)
    return data


def _write_scenario(path, **overrides):
    path.write_text(json.dumps(_scenario_dict(**overrides)))
    return path


# ---------------------------------------------------------------------------
# derive


def test_derive_ballbeam_order_three(capsys):
    assert main(["derive", "--system", "ballbeam", "--order", "3",
                 "--probe", "1,0,0,1", "--probe", "0,0,0,0"]) == 0
    out = capsys.readouterr().out
    assert "a(x) = L_g L_f^2 h" in out
    assert "b(x) = L_f^3 h" in out
    assert "L_g L_f^0 h = 0" in out
    assert "L_g L_f^1 h = 0" in out
    assert "relative degree at (1, 0, 0, 1): 3" in out
    assert "relative degree at (0, 0, 0, 0): undefined" in out


def test_derive_at_full_order_derives_the_chain_once(capsys, monkeypatch):
    from switchlin import cli, geometry

    calls = []

    def counting(*args):
        calls.append(args[1])
        return derive(*args)

    derive = geometry.derivative_chain
    monkeypatch.setattr(geometry, "derivative_chain", counting)
    monkeypatch.setattr(cli, "derivative_chain", counting)
    assert main(["derive", "--system", "ballbeam", "--order", "4",
                 "--probe", "1,0,0,1", "--probe", "0,0,0,0"]) == 0
    assert calls == [4]
    assert "b(x) = L_f^4 h" in capsys.readouterr().out


def test_derive_order_one_reports_zero_coefficient(capsys):
    assert main(["derive", "--system", "ballbeam", "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "a(x) = L_g L_f^0 h = 0" in out


def test_derive_double_integrator(capsys):
    assert main(["derive", "--system", "doubleint", "--order", "2",
                 "--probe", "0,0", "--probe", "1.5,-2"]) == 0
    out = capsys.readouterr().out
    assert out.count("relative degree at") == 2
    assert "relative degree at (0, 0): 2" in out
    assert "relative degree at (1.5, -2): 2" in out


def test_derive_system_from_file(tmp_path, capsys):
    system_file = tmp_path / "doubleint.txt"
    system_file.write_text(
        "# a double integrator\n"
        "n = 2\n"
        "f1 = x2\n"
        "f2 = 0\n"
        "g1 = 0\n"
        "g2 = 1\n"
        "h = x1\n"
    )
    assert main(["derive", "--system", f"file:{system_file}", "--order", "2",
                 "--probe", "0.3,0.7"]) == 0
    out = capsys.readouterr().out
    assert "relative degree at (0.3, 0.7): 2" in out


def test_derive_bad_system_file(tmp_path, capsys):
    system_file = tmp_path / "broken.txt"
    system_file.write_text("n = 2\nf1 = x2\ng1 = 0\ng2 = 1\nh = x1\n")
    assert main(["derive", "--system", f"file:{system_file}", "--order", "1"]) == 1
    assert "missing 'f2'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
def test_derive_rejects_non_finite_system_parameter(tmp_path, capsys, value):
    system_file = tmp_path / "scaled.txt"
    system_file.write_text(
        f"n = 2\nf1 = x2\nf2 = 0\ng1 = 0\ng2 = B\nh = x1\nparam B = {value}\n"
    )
    assert main(["derive", "--system", f"file:{system_file}", "--order", "2",
                 "--probe", "0.3,0.1"]) == 1
    captured = capsys.readouterr()
    assert "relative degree" not in captured.out
    assert f"{system_file}:7: parameter 'B' must be finite" in captured.err


@pytest.mark.parametrize(
    "line, message",
    [
        ("param B = 3", "duplicate parameter 'B'"),
        ("param 1B = 2", "no expression can refer to parameter '1B'"),
        ("param sin = 3", "no expression can refer to parameter 'sin'"),
        ("param x1 = 3", "no expression can refer to parameter 'x1'"),
        ("param x7 = 3", "no expression can refer to parameter 'x7'"),
        ("param B C = 3", "no expression can refer to parameter 'B C'"),
        ("param C = two", "bad parameter value 'two'"),
        ("f3", "expected 'key = value'"),
        ("f1 = x1", "duplicate key 'f1'"),
    ],
)
def test_derive_rejects_bad_system_parameter_names(tmp_path, capsys, line, message):
    system_file = tmp_path / "scaled.txt"
    system_file.write_text(
        f"n = 2\nf1 = x2\nf2 = 0\ng1 = 0\ng2 = B\nh = x1\nparam B = 2\n{line}\n"
    )
    assert main(["derive", "--system", f"file:{system_file}", "--order", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"switchlin: {system_file}:8: {message}\n"


_SYSTEM = "n = 2\nf1 = x2\nf2 = 0\ng1 = 0\ng2 = 1\nh = x1\n"
_FROM_FILE = ["derive", "--order", "1", "--system"]


@pytest.mark.parametrize(
    "f2", ["(" * 300 + "x1" + ")" * 300, "-" * 500 + "x1"], ids=["parentheses", "unary minus"]
)
def test_derive_reports_an_expression_nested_too_deeply_in_one_line(tmp_path, capsys, f2):
    # the parentheses are too deep for parse; the minus signs parse, and are too deep to simplify
    system_file = tmp_path / "deep.txt"
    system_file.write_text(_SYSTEM.replace("f2 = 0", f"f2 = {f2}"))
    assert main(["derive", "--system", f"file:{system_file}", "--order", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("switchlin: expression nested too deeply")


@pytest.mark.parametrize(
    "command, text, message",
    [
        (_FROM_FILE, None, "cannot read system file: "),
        (_FROM_FILE, _SYSTEM.replace("n = 2\n", ""), "{path}: missing 'n'"),
        (_FROM_FILE, _SYSTEM.replace("n = 2", "n = 2.0"), "{path}: 'n' must be an integer"),
        (_FROM_FILE, _SYSTEM.replace("h = x1\n", ""), "{path}: missing 'h'"),
        (_FROM_FILE, _SYSTEM + "k = 1\n", "{path}: unknown keys ['k']"),
        (["involutivity", "--probes"], None, "cannot read probes file: "),
        (["derive", "--order", "3", "--probe"], "1,0,x,1", "bad probe point '1,0,x,1'"),
        (["coverage", "--samples", "10", "--box"], "-1:1:2", "bad box '-1:1:2'; expected LO:HI"),
        (["coverage", "--samples", "10", "--box"], "low:1", "bad box 'low:1'; expected LO:HI"),
    ],
    ids=[
        "unreadable system", "no n", "n not an integer", "no h", "unknown key",
        "unreadable probes", "probe not a number", "box of three", "box not a number",
    ],
)
def test_bad_input_prints_one_line_and_writes_nothing(tmp_path, capsys, command, text, message):
    # a file argument is written from ``text`` (None: no such file); other arguments are ``text``
    path = tmp_path / "input.txt"
    if command[-1] in ("--system", "--probes"):
        if text is not None:
            path.write_text(text)
        argument = f"file:{path}" if command[-1] == "--system" else str(path)
    else:
        argument = text
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), *command, argument]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("switchlin: " + message.format(path=path))
    assert not out_dir.exists()


def test_derive_usage_errors(capsys):
    assert main(["derive", "--system", "unknown", "--order", "3"]) == 1
    assert "unknown system" in capsys.readouterr().err
    assert main(["derive", "--system", "ballbeam", "--order", "9"]) == 1
    assert main(["derive", "--system", "ballbeam", "--order", "3",
                 "--probe", "1,2"]) == 1


@pytest.mark.parametrize("probe", ["nan,0,0,nan", "0,inf,0,0", "0,0,-inf,0"])
def test_derive_rejects_non_finite_probe(capsys, probe):
    # every probe is checked before anything is printed
    assert main(["derive", "--order", "3", "--probe", "1,0,0,1", "--probe", probe]) == 1
    out, err = capsys.readouterr()
    assert "must be finite" in err and out == ""


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_outputs(tmp_path, capsys):
    scenario = _write_scenario(tmp_path / "regulation.json")
    assert main(["--output-dir", str(tmp_path), "simulate", str(scenario)]) == 0
    out = capsys.readouterr().out
    trajectory = tmp_path / "regulation_trajectory.csv"
    metrics = tmp_path / "regulation_metrics.txt"
    assert trajectory.exists() and metrics.exists()
    lines = trajectory.read_text().splitlines()
    assert lines[0] == "t,x1,x2,x3,x4,u,law,a1,err,abscos3"
    assert len(lines) == 2002
    assert "rms_tail_error_m" in metrics.read_text()
    assert "2001 samples" in out


def test_simulate_zero_amplitude_rest(tmp_path):
    scenario = _write_scenario(
        tmp_path / "rest.json", initial_state=[0.0, 0.0, 0.0, 0.0], duration=0.5
    )
    assert main(["--output-dir", str(tmp_path), "simulate", str(scenario)]) == 0
    rows = (tmp_path / "rest_trajectory.csv").read_text().splitlines()[1:]
    for row in rows:
        fields = row.split(",")
        assert fields[1:6] == ["0", "0", "0", "0", "0"]


def test_simulate_malformed_scenario(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    data = _scenario_dict()
    data["unknown_option"] = True
    scenario.write_text(json.dumps(data))
    assert main(["simulate", str(scenario)]) == 1
    assert "unknown_option" in capsys.readouterr().err


def test_simulate_missing_file(tmp_path, capsys):
    assert main(["simulate", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_simulate_integration_failure_exit_code(tmp_path, capsys):
    scenario = _write_scenario(
        tmp_path / "diverging.json",
        initial_state=[0.0, 0.0, 0.0, 0.0],
        reference={"amplitude": 0.4, "period": 3.0},
        duration=30.0,
        tail_window=10.0,
    )
    with pytest.warns(UserWarning):
        code = main(["--output-dir", str(tmp_path), "simulate", str(scenario)])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


_PAST_PI = (
    "beam angle |x3| exceeded pi at t=0.900s; the planar model has left its meaningful regime"
)


def _coarse_regulation(tmp_path):
    # regulation at a 0.3 s step leaves the planar regime within its 1 s
    data = json.loads((SCENARIO_DIR / "regulation.json").read_text())
    scenario = tmp_path / "coarse.json"
    scenario.write_text(json.dumps(dict(data, duration=1.0, step=0.3)))
    return scenario


@pytest.mark.parametrize(
    "flags, code, err",
    [
        ([], 0, f"switchlin: warning: {_PAST_PI}\n"),
        (["-W", "error"], 2, f"switchlin: {_PAST_PI}\n"),
    ],
    ids=["shown", "error"],
)
def test_a_warning_is_one_line_and_as_an_error_exits_2(tmp_path, flags, code, err):
    # a shown warning is one switchlin: line, and under -W error the run ends as a runtime
    # error, with no traceback
    scenario = _coarse_regulation(tmp_path)
    src = str(pathlib.Path(switchlin.__file__).parent.parent)
    result = subprocess.run(
        [sys.executable, *flags, "-m", "switchlin.cli", "--output-dir", str(tmp_path),
         "simulate", str(scenario)],
        capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
    )
    assert (result.returncode, result.stderr) == (code, err)


def test_a_warning_recorder_still_gets_the_warning(tmp_path):
    # main formats a shown warning only while it runs; a recorder gets the warning itself
    formatwarning = warnings.formatwarning
    scenario = _coarse_regulation(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--output-dir", str(tmp_path), "simulate", str(scenario)]) == 0
    assert [str(w.message) for w in caught] == [_PAST_PI]
    assert warnings.formatwarning is formatwarning


def test_simulate_with_a_tiny_positive_b_fails_at_the_law_floor(tmp_path, capsys):
    # R = 1e-155 gives B = 2.5e-306 > 0: a valid scenario whose law 2 coefficient is below 1e-300
    plant = dict(_scenario_dict()["plant"], R=1e-155)
    scenario = _write_scenario(tmp_path / "tiny_b.json", plant=plant)
    assert main(["--output-dir", str(tmp_path / "out"), "simulate", str(scenario)]) == 2
    assert "is below the floor 1e-300" in capsys.readouterr().err


def test_simulate_record_too_large_exit_code(tmp_path, capsys):
    # 10**18 samples cannot be allocated: exit 2 with the count, and no files
    scenario = _write_scenario(tmp_path / "huge.json", duration=1e12, step=1e-6)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "simulate", str(scenario)]) == 2
    assert "cannot allocate the record of 1000000000000000001 samples" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_simulate_record_beyond_numpy_exit_code(tmp_path, capsys):
    # 10**19 + 1 samples: beyond what numpy can address, refused before allocating
    scenario = _write_scenario(tmp_path / "huge.json", duration=1e13, step=1e-6)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "simulate", str(scenario)]) == 2
    assert "cannot allocate the record of 10000000000000000001 samples" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_simulate_overflowing_sample_count_exit_code(tmp_path, capsys):
    scenario = _write_scenario(tmp_path / "overflow.json", duration=1e300, step=1e-300)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "simulate", str(scenario)]) == 1
    assert capsys.readouterr().err == "switchlin: duration / step must be finite\n"
    assert not out_dir.exists() or not any(out_dir.iterdir())


#: scenarios whose numbers overflow in what a run computes from them alone (B, the gains,
#: the reference's derivatives), each with the start of the error it is reported by
_OVERFLOWING = {
    "r_tiny": (
        {"plant": dict(_scenario_dict()["plant"], R=1e-300)},
        "plant parameter R must keep R^2 inside the float range",
    ),
    "r_huge": (
        {"plant": dict(_scenario_dict()["plant"], R=1e200)},
        "plant parameter R must keep R^2 inside the float range",
    ),
    "r_b_zero": (
        {"plant": dict(_scenario_dict()["plant"], R=1e-160)},
        "plant parameters must give a positive B = M / (M + Jb/R^2)",
    ),
    "pole": (
        {"poles": dict(_scenario_dict()["poles"], law2=-1e100)},
        "pole_law2: pole -1e+100 gives gains beyond the float range",
    ),
    "period": (
        {"reference": {"amplitude": 0.0, "period": 1e-300}},
        "reference derivatives up to order 4 overflow",
    ),
    "amplitude": (
        {"reference": {"amplitude": 1e306, "period": 0.01}},
        "reference derivatives up to order 4 overflow",
    ),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_simulate_rejects_a_scenario_whose_numbers_overflow(tmp_path, capsys, name):
    overrides, message = _OVERFLOWING[name]
    scenario = _write_scenario(tmp_path / f"{name}.json", **overrides)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "simulate", str(scenario)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"switchlin: {message}") and captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


#: scenario files that json cannot decode: bytes that are not UTF-8, arrays nested deeper
#: than the interpreter's recursion limit, and an integer longer than int() converts
_UNDECODABLE = {
    "latin1": b'{"step": 0.001, "na\xefve": 1}',
    "deep": b"[" * 100_000,
    "long": b'{"step": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
def test_simulate_undecodable_file_exit_code(tmp_path, capsys, name):
    scenario = tmp_path / f"{name}.json"
    scenario.write_bytes(_UNDECODABLE[name])
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "simulate", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("switchlin: scenario file is not valid JSON: ") and err.count("\n") == 1
    assert not out_dir.exists() or not any(out_dir.iterdir())


def test_output_dir_from_environment(tmp_path, monkeypatch):
    out_dir = tmp_path / "outputs"
    monkeypatch.setenv("SWITCHLIN_OUTPUT_DIR", str(out_dir))
    scenario = _write_scenario(tmp_path / "regulation.json", duration=0.5)
    assert main(["simulate", str(scenario)]) == 0
    assert (out_dir / "regulation_trajectory.csv").exists()


# ---------------------------------------------------------------------------
# coverage


def test_coverage_full_family(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "1,2,3", "--samples", "5000"]) == 0
    out = capsys.readouterr().out
    assert "coverage complete" in out
    assert "witnesses: 0" in out
    report = (tmp_path / "coverage_report.txt").read_text()
    assert "coverage complete" in report
    csv = (tmp_path / "coverage_witnesses.csv").read_text().splitlines()
    assert csv == ["x1,x2,x3,x4,failed_laws"]


def test_coverage_two_laws_reports_witness(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "1,2", "--samples", "1000"]) == 0
    out = capsys.readouterr().out
    assert "coverage INCOMPLETE" in out
    assert "necessity witness: (" in out
    csv = (tmp_path / "coverage_witnesses.csv").read_text().splitlines()
    assert len(csv) > 1
    assert csv[1].endswith("law1;law2")


def test_coverage_single_law(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "1", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "coverage INCOMPLETE" in out


def test_coverage_alternate_law_token(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "1,2,3g", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "law3g" in out
    assert "necessity witness: (" in out


def test_coverage_usage_errors(tmp_path, capsys):
    assert main(["coverage", "--laws", "7"]) == 1
    assert "unknown law token" in capsys.readouterr().err
    assert main(["coverage", "--laws", "1", "--box", "2:1"]) == 1
    assert main(["coverage", "--laws", ""]) == 1


@pytest.mark.parametrize("laws, token", [("1,1", "1"), ("1,2, 1", "1"), ("3g,2,3g", "3g")])
def test_coverage_rejects_a_repeated_law_token(tmp_path, capsys, laws, token):
    # a repeated law would be reported twice, once per copy, in every section
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", laws, "--samples", "10"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"switchlin: law token {token!r} is repeated; name each law once\n"
    assert list(tmp_path.iterdir()) == []
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "3,3g", "--samples", "10"]) == 0  # law3 and law3g differ


def test_coverage_rejects_nan_margin(tmp_path, capsys):
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--laws", "1,2", "--margin", "nan"]) == 1
    assert "switchlin: margin must be a non-negative number" in capsys.readouterr().err
    assert not (tmp_path / "coverage_report.txt").exists()


def test_coverage_rejects_infinite_margin(tmp_path, capsys):
    # no state exceeds an infinite margin, so every law would cover nothing
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--margin", "inf", "--samples", "10"]) == 1
    assert capsys.readouterr().err == "switchlin: margin must be a non-negative number, got inf\n"
    assert list(tmp_path.iterdir()) == []


def test_coverage_rejects_a_negative_seed(tmp_path, capsys):
    # numpy's own refusal names neither the option nor the value
    assert main(["--output-dir", str(tmp_path), "coverage",
                 "--seed", "-1", "--samples", "10"]) == 1
    assert capsys.readouterr().err == "switchlin: seed must be a non-negative integer, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, value",
    [
        (["coverage", "--laws", "1,2", "--samples", "1000", "--box"], "-2:2"),
        (["derive", "--order", "3", "--probe"], "-1,0,0,1"),
    ],
    ids=["box", "probe"],
)
def test_option_values_may_start_with_a_minus(tmp_path, capsys, argv, value):
    # "--box -2:2" reads as "--box=-2:2": no option looks like a number
    outputs = []
    for spelling in ([*argv[:-1], f"{argv[-1]}={value}"], [*argv, value]):
        assert main(["--output-dir", str(tmp_path), *spelling]) == 0
        files = {path.name: path.read_bytes() for path in sorted(tmp_path.iterdir())}
        outputs.append((capsys.readouterr(), files))
    assert outputs[0] == outputs[1]
    assert main(["coverage", "--laws", "1", "--box", "-1:-2"]) == 1
    assert capsys.readouterr().err == "switchlin: box must satisfy LO < HI\n"


@pytest.mark.parametrize("box", ["0:inf", "-inf:inf", "-1e308:1e308"])
def test_coverage_rejects_box_without_finite_width(tmp_path, capsys, box):
    assert main(["--output-dir", str(tmp_path), "coverage", "--laws", "1,2",
                 "--samples", "10", f"--box={box}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("switchlin: ")
    assert "finite" in err


# ---------------------------------------------------------------------------
# involutivity


def test_involutivity_default_probes(capsys):
    assert main(["involutivity"]) == 0
    out = capsys.readouterr().out
    assert "rank 3 -> 4 (rank rises)" in out
    assert "rank 3 -> 3 (no rank rise)" in out


def test_involutivity_probe_file(tmp_path, capsys):
    probes = tmp_path / "probes.csv"
    probes.write_text("# probe points\n1,0,0,0\n0,0,0,0\n")
    assert main(["involutivity", "--probes", str(probes)]) == 0
    out = capsys.readouterr().out
    assert out.count("bracket =") == 2


def test_involutivity_rejects_non_finite_probe(tmp_path, capsys):
    probes = tmp_path / "probes.csv"
    probes.write_text("1,0,0,0\nnan,0,0,0\n")
    assert main(["involutivity", "--probes", str(probes)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("switchlin: ") and "must be finite" in err


def test_involutivity_empty_probe_file(tmp_path, capsys):
    probes = tmp_path / "probes.csv"
    probes.write_text("\n")
    assert main(["involutivity", "--probes", str(probes)]) == 1


def test_involutivity_prints_nothing_for_a_system_it_cannot_probe(capsys):
    assert main(["involutivity", "--system", "doubleint"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "switchlin: the involutivity witness is built for 4-dimensional systems\n"


def test_involutivity_rejects_a_probe_whose_bracket_overflows(tmp_path, capfd):
    # at this finite point ad_f g and ad_f^2 g have infinite entries; no rank is taken
    probes = tmp_path / "probes.csv"
    probes.write_text("1e200,1e200,0,1e200\n")
    assert main(["involutivity", "--probes", str(probes)]) == 1
    out, err = capfd.readouterr()
    assert out == "" and err == "switchlin: cannot take the rank of a matrix with a non-finite entry\n"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_directory(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _write_scenario(scenario_dir / "a.json", duration=1.0)
    _write_scenario(scenario_dir / "b.json", initial_state=[0.2, 0.0, 0.05, 0.0], duration=1.0)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 0
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert summary[0] == "scenario,min_abs_a1,min_abs_x1,min_abs_x4,min_abs_cos_x3"
    assert len(summary) == 3
    assert (out_dir / "a_trajectory.csv").exists()
    assert (out_dir / "b_metrics.txt").exists()


def test_sweep_is_byte_deterministic(tmp_path):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _write_scenario(scenario_dir / "a.json", duration=1.0)
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert main(["--output-dir", str(first), "sweep", str(scenario_dir)]) == 0
    assert main(["--output-dir", str(second), "sweep", str(scenario_dir)]) == 0
    for name in ("summary.csv", "a_trajectory.csv", "a_metrics.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_sweep_empty_directory(tmp_path):
    scenario_dir = tmp_path / "empty"
    scenario_dir.mkdir()
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 0
    assert (out_dir / "summary.csv").read_text().splitlines() == [
        "scenario,min_abs_a1,min_abs_x1,min_abs_x4,min_abs_cos_x3"
    ]


def test_sweep_isolates_failures(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _write_scenario(scenario_dir / "good.json", duration=1.0)
    bad = scenario_dir / "broken.json"
    bad.write_text("{not json")
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    assert "broken: FAILED" in captured.err
    assert (out_dir / "good_trajectory.csv").exists()
    summary = (out_dir / "summary.csv").read_text().splitlines()
    assert len(summary) == 2


def test_sweep_goes_on_past_undecodable_files(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    for name, data in _UNDECODABLE.items():
        (scenario_dir / f"a_{name}.json").write_bytes(data)
    _write_scenario(scenario_dir / "b_good.json", duration=1.0)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    assert "a_latin1: FAILED (scenario file is not valid JSON: 'utf-8' codec" in captured.err
    assert "a_deep: FAILED (scenario file is not valid JSON:" in captured.err
    assert "a_long: FAILED (scenario file is not valid JSON:" in captured.err
    assert "b_good: 1001 samples" in captured.out
    assert [line.split(",")[0] for line in (out_dir / "summary.csv").read_text().splitlines()] == [
        "scenario",
        "b_good",
    ]


def test_sweep_goes_on_past_a_record_too_large(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _write_scenario(scenario_dir / "a_huge.json", duration=1e12, step=1e-6)
    _write_scenario(scenario_dir / "b_good.json", duration=1.0)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    assert "a_huge: FAILED (cannot allocate the record of" in captured.err
    assert "b_good: 1001 samples" in captured.out
    assert not (out_dir / "a_huge_trajectory.csv").exists()
    assert (out_dir / "b_good_trajectory.csv").exists()


def test_sweep_goes_on_past_a_record_beyond_numpy(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _write_scenario(scenario_dir / "a_huge.json", duration=1e13, step=1e-6)
    _write_scenario(scenario_dir / "b_good.json", duration=1.0)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    assert "a_huge: FAILED (cannot allocate the record of 10000000000000000001 samples)" in (
        captured.err
    )
    assert "b_good: 1001 samples" in captured.out
    assert not (out_dir / "a_huge_trajectory.csv").exists()


def test_sweep_goes_on_past_scenarios_whose_numbers_overflow(tmp_path, capsys):
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    for name, (overrides, _) in _OVERFLOWING.items():
        _write_scenario(scenario_dir / f"a_{name}.json", **overrides)
    _write_scenario(scenario_dir / "b_good.json", duration=1.0)
    out_dir = tmp_path / "out"
    assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    for name, (_, message) in _OVERFLOWING.items():
        assert f"a_{name}: FAILED ({message}" in captured.err
    assert captured.err.count("\n") == len(_OVERFLOWING)
    assert "b_good: 1001 samples" in captured.out
    assert [line.split(",")[0] for line in (out_dir / "summary.csv").read_text().splitlines()] == [
        "scenario",
        "b_good",
    ]


def test_sweep_goes_on_past_a_warning_raised_as_an_error(tmp_path, capsys):
    # as under python -W error: the warning fails its scenario, not the sweep
    scenario_dir = tmp_path / "scenarios"
    scenario_dir.mkdir()
    _coarse_regulation(tmp_path).rename(scenario_dir / "regulation.json")
    _write_scenario(scenario_dir / "zz_good.json", duration=1.0)
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--output-dir", str(out_dir), "sweep", str(scenario_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"regulation: FAILED ({_PAST_PI})\n"
    assert "zz_good: 1001 samples" in captured.out
    assert [line.split(",")[0] for line in (out_dir / "summary.csv").read_text().splitlines()] == [
        "scenario",
        "zz_good",
    ]


def test_sweep_not_a_directory(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "nope")]) == 1


# ---------------------------------------------------------------------------
# top-level usage


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert main(["derive", "--order", "3", "--bogus"]) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0
