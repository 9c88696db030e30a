import dataclasses
import io
import json
import math
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest

from switchlin import sim
from switchlin.ballbeam import PlantParams, benchmark_plant
from switchlin.controllers import (
    SingularControlError,
    SwitchThresholds,
    TrackingReference,
    outer_loop_v,
    pole_gains,
    supervisor,
    table_laws,
)
from switchlin.expr import format_number
from switchlin.sim import (
    CSV_HEADER,
    IntegrationError,
    Scenario,
    ScenarioError,
    Trajectory,
    load_scenario,
    rk4_step,
    run,
    scenario_from_dict,
)

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def _scenario(**overrides):
    base = dict(
        plant=benchmark_plant(),
        initial_state=(0.3, 0.0, 0.1, 0.0),
        reference=TrackingReference(amplitude=0.0, period=3.0),
        thresholds=SwitchThresholds(eps1=0.05, eps4=0.08),
        step=1e-3,
        duration=20.0,
        tail_window=5.0,
    )
    base.update(overrides)
    return Scenario(**base)


# ---------------------------------------------------------------------------
# integrator


def test_rk4_fixed_point_of_zero_field():
    x = (0.3, -1.2, 0.5, 2.0)
    assert rk4_step(lambda s: (0.0, 0.0, 0.0, 0.0), x, 0.1) == x


def test_rk4_exponential_single_step():
    # one RK4 step of ydot = y matches the quartic Taylor polynomial of e^h
    out = rk4_step(lambda s: (s[0],), (1.0,), 0.1)
    assert out[0] == pytest.approx(1.1051708333333333, rel=1e-15)
    assert abs(out[0] - math.exp(0.1)) < 1e-7


def _exponential_error(h):
    steps = round(1.0 / h)
    x = (1.0,)
    for _ in range(steps):
        x = rk4_step(lambda s: (s[0],), x, h)
    return abs(x[0] - math.e)


def test_rk4_fourth_order_convergence():
    e1, e2, e3 = (_exponential_error(h) for h in (0.1, 0.05, 0.025))
    order_a = math.log2(e1 / e2)
    order_b = math.log2(e2 / e3)
    assert 3.9 <= order_a <= 4.1
    assert 3.9 <= order_b <= 4.1
    # halving the step shrinks the global error about sixteenfold
    assert 14.0 < e1 / e2 < 18.0


def test_rk4_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_step(lambda s: s, (1.0,), 0.0)


def test_rk4_nonfinite_result():
    with pytest.raises(IntegrationError):
        rk4_step(lambda s: (1e308,), (1e308,), 10.0)


@pytest.mark.parametrize("length", [1, 3])
def test_rk4_rejects_derivative_of_wrong_length(length):
    # a short derivative must not silently truncate the state, nor a long
    # one be cut to fit it
    with pytest.raises(ValueError, match=f"derivative has {length} components but the state has 2"):
        rk4_step(lambda s: (1.0,) * length, (0.0, 0.0), 0.1)


def _textbook_rk4(deriv, x, h):
    n = len(x)
    half = 0.5 * h
    k1 = deriv(x)
    k2 = deriv(tuple([x[i] + half * k1[i] for i in range(n)]))
    k3 = deriv(tuple([x[i] + half * k2[i] for i in range(n)]))
    k4 = deriv(tuple([x[i] + h * k3[i] for i in range(n)]))
    sixth = h / 6.0
    return tuple([x[i] + sixth * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]) for i in range(n)])


def _fields(n, rng):
    matrix = rng.normal(size=(n, n)).tolist()
    shift = rng.normal(size=n).tolist()

    def linear(s):
        return tuple(sum(a * v for a, v in zip(row, s)) for row in matrix)

    def nonlinear(s):
        return tuple(
            math.sin(s[i - 1]) * s[i] - shift[i] * s[(i + 1) % n] ** 2 for i in range(n)
        )

    return linear, nonlinear


def test_rk4_kernel_matches_textbook_loop(rng):
    # rk4_step rounds exactly as the textbook per-component loop does
    for n in (1, 2, 4, 5):
        for field in _fields(n, rng):
            for h in (1e-3, 0.05):
                x = expected = tuple(rng.uniform(-1.0, 1.0, size=n).tolist())
                for _ in range(40):
                    x = rk4_step(field, x, h)
                    expected = _textbook_rk4(field, expected, h)
                    assert x == expected


def test_rk4_loop_steps_trees_and_the_plant_step_is_their_emit(rng):
    # one RK4 scheme: on StateVars, _rk4_loop builds the textbook step's trees, which evaluate
    # to rk4_step's floats bit for bit, and the generated plant step is exactly their emit,
    # stage a reading sin x3 as x9
    from switchlin.ballbeam import REDUCED_FIELD, reduced_dynamics
    from switchlin.controllers import _STEP_TRIG
    from switchlin.expr import Bindings, StateVar, _emit, _substitute, evaluate

    x, h = tuple(StateVar(i) for i in range(1, 5)), StateVar(6)

    def slope(stage):  # the reduced field at the stage's state, x5 = u held
        return [_substitute(f, dict(zip(x, stage))) for f in REDUCED_FIELD]

    y = sim._rk4_loop(slope, x, h)
    assert y == _textbook_rk4(slope, x, h)
    p = benchmark_plant()
    for row in rng.uniform(-1.0, 1.0, size=(20, 5)).tolist():
        state, u = tuple(row[:4]), row[4]
        at = Bindings(p.symbol_values(), (*state, u, 1e-3))
        exact = rk4_step(lambda s: reduced_dynamics(s, u, p), state, 1e-3)
        assert [evaluate(e, at).hex() for e in y] == [v.hex() for v in exact]
    sources, names = _emit([_substitute(e, _STEP_TRIG) for e in y], 10)
    stages, stage_names = sim._plant_stages()
    assert stages[:4] == tuple(f"y{i} = {source}" for i, source in enumerate(sources))
    assert stage_names == names


def test_rk4_step_makes_no_cells():
    # every closed-loop step goes through rk4_step: a cell made per call would slow each one
    assert rk4_step.__code__.co_cellvars == ()


def test_exact_references_compile_nothing():
    # the references the generated step is checked against share no generated code with it
    from switchlin import expr
    from switchlin.ballbeam import full_dynamics, reduced_dynamics, torque_from_u

    p, x = benchmark_plant(), (0.1, -0.2, 0.3, -0.4)
    expr._compile.cache_clear()
    rk4_step(lambda s: (s[1], -s[0]), (1.0, 0.0), 0.1)
    rk4_step(lambda s: reduced_dynamics(s, 0.5, p), x, 1e-3)
    full_dynamics(x, torque_from_u(x, 0.5, p), p)
    assert expr._compile.cache_info().misses == 0


def _step_outcome(deriv, x, h):
    try:
        return [v.hex() for v in rk4_step(deriv, x, h)]
    except (IntegrationError, ValueError) as exc:
        return (type(exc).__name__, str(exc))


def _exact_gains(sc):
    poles = (sc.pole_law1, sc.pole_law2, sc.pole_law3)
    return [pole_gains(pole, law.order) for law, pole in zip(table_laws(), poles)]


def _exact_sample(sc, x, t):
    # (law, u) at x and t by the reference path: the supervisor's pick, then exact
    # descriptor evaluation of that law's outer loop and control
    law_id = supervisor(x, sc.thresholds)
    law, gains = table_laws()[law_id - 1], _exact_gains(sc)[law_id - 1]
    v = outer_loop_v(x, sc.reference, t, law, gains, sc.plant)
    return law_id, law.control(x, v, sc.plant.symbol_values())


@pytest.mark.parametrize("g", [9.81, 0.0, -0.0])
def test_held_plant_step_matches_the_called_plant_bit_for_bit(rng, g):
    # the closed-loop step, plant inlined, records the exact path's law and u and
    # computes the floats, and raises the errors, of rk4_step on a called
    # reduced_dynamics with that u held
    from switchlin.ballbeam import reduced_dynamics

    p = PlantParams(M=0.05, R=0.01, J=0.02, Jb=2e-6, G=g)
    sc = _scenario(plant=p, reference=TrackingReference(0.4, 3.0))
    rows = 1200
    states = rng.uniform(-2.0, 2.0, size=(rows, 4))
    times = rng.uniform(0.0, 30.0, size=rows)
    steps = rng.choice([1e-3, 0.05], size=rows)
    states[::40] = 0.0
    states[1::40] = -0.0
    states[2::40, 3] = 1e160  # x1*x4*x4 overflows: a non-finite update
    states[3::40, 3], steps[3::40] = 1e308, 4.0  # a stage's x3 is inf: sin raises
    loop = sim.ClosedLoop(
        table_laws(), _exact_gains(sc), sc.reference, sc.thresholds, p, np.append(times, 0.0)
    )
    outcomes = []
    for k, (x, t, h) in enumerate(zip(states.tolist(), times.tolist(), steps.tolist())):
        try:
            law_id, u = _exact_sample(sc, x, t)
        except SingularControlError as exc:
            loop.k = k
            with pytest.raises(SingularControlError, match=f"^{re.escape(str(exc))}$"):
                rk4_step(loop, tuple(x), h)
            outcomes.append("singular")
            continue
        loop.k = k
        outcome = _step_outcome(loop, tuple(x), h)
        assert (loop.law[k], loop.u[k].hex()) == (law_id, u.hex())
        assert outcome == _step_outcome(lambda s: reduced_dynamics(s, u, p), tuple(x), h)
        outcomes.append(outcome)
    failures = [o for o in outcomes if isinstance(o, tuple)]
    assert ("IntegrationError", "integration produced a non-finite state") in failures
    assert ("ValueError", "math domain error") in failures
    assert len(failures) < rows // 10
    assert (outcomes.count("singular") > 0) == (g == 0.0)  # laws 2 and 3 carry G


def _run_outcome(sc):
    try:
        trajectory, _ = run(sc)
    except IntegrationError as exc:
        trajectory, failure = exc.trajectory, (str(exc), exc.time)
    else:
        failure = None
    columns = ("t", "states", "u", "law", "error", "abscos3")
    return [getattr(trajectory, column) for column in columns], failure


def _exact_run(sc, start, x, stop):
    # samples start .. stop - 1 by the reference path, from state x at sample start: at
    # each sample the supervisor, the exact law and outer loop, and the reference, then
    # rk4_step on the called plant with u held
    from switchlin.ballbeam import reduced_dynamics

    p, h = sc.plant, sc.step
    rows, failure = [], None
    for k in range(start, stop):
        t = k * h
        try:
            law_id, u = _exact_sample(sc, x, t)
        except SingularControlError as exc:
            failure = (f"control failed at t={t:.6f}: {exc}", t)
            break
        rows.append((t, *x, u, law_id, x[0] - sc.reference.value(t), abs(math.cos(x[2]))))
        if k + 1 < stop:
            try:
                x = rk4_step(lambda s: reduced_dynamics(s, u, p), x, h)
            except IntegrationError as exc:
                failure = (f"{exc} at t={t + h:.6f}", t + h)
                break
            except ValueError as exc:
                failure = (f"integration failed at t={t + h:.6f}: {exc}", t + h)
                break
    t, *columns = np.array(rows, dtype=float).reshape(-1, 9).T
    states, (u, law, error, abscos3) = np.column_stack(columns[:4]), columns[4:]
    recorded = [t, states, u, law.astype(np.int64), error, abscos3]
    return [column.tobytes() for column in recorded], failure


def test_run_with_the_held_plant_matches_the_called_plant():
    # the generated run against the reference path over each scenario's first 2 s and, for
    # a run that fails, over the last 300 samples before the failure, restarted from the
    # generated run's state there: the records bit for bit, and the failure's message and time
    scenarios = [
        load_scenario(SCENARIO_DIR / "regulation.json"),
        load_scenario(SCENARIO_DIR / "near_pivot.json"),
        load_scenario(SCENARIO_DIR / "benchmark.json"),
        # law 2's coefficient -B*G*cos(x3) is -0.0 at t = 0: the control fails
        _scenario(plant=dataclasses.replace(benchmark_plant(), G=0.0)),
        _scenario(
            plant=dataclasses.replace(benchmark_plant(), G=-0.0), initial_state=(0.3, 0.1, 0.1, 0.2)
        ),
        # one step whose second stage takes sin(inf)
        _scenario(initial_state=(0.3, 0.0, 0.1, 1e308), step=4.0, duration=4.0, tail_window=1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fused = [_run_outcome(sc) for sc in scenarios]
    for sc, (columns, failure) in zip(scenarios, fused):
        head = min(sc.sample_count, int(2.0 / sc.step) + 1)
        expected, _ = _exact_run(sc, 0, sc.initial_state, head)
        assert [column[:head].tobytes() for column in columns] == expected
        if failure is not None:
            start = max(0, len(columns[0]) - 300)
            state = tuple(columns[1][start].tolist()) if start else sc.initial_state
            expected, expected_failure = _exact_run(sc, start, state, sc.sample_count)
            assert [column[start:].tobytes() for column in columns] == expected
            assert failure == expected_failure
    assert [failure is not None for _, failure in fused] == [False, False, True, True, True, True]
    assert fused[2][1] == ("integration produced a non-finite state at t=11.767000", 11.767)
    assert fused[3][1][0].startswith("control failed at t=0.000000: law 2 coefficient")
    assert fused[4][1][0].startswith("control failed at t=0.006000: law 2 coefficient")
    assert fused[5][1] == ("integration failed at t=4.000000: math domain error", 4.0)


# ---------------------------------------------------------------------------
# closed-loop runs


def test_run_rest_equilibrium_is_exact():
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.0, period=3.0),
        duration=1.0,
        tail_window=0.5,
    )
    trajectory, metrics = run(sc)
    assert np.all(trajectory.states == 0.0)
    assert np.all(trajectory.u == 0.0)
    assert np.all(trajectory.law == 3)
    assert metrics.rms_tail_error == 0.0
    assert metrics.switch_count == 0


def test_run_regulation_converges_with_all_laws():
    trajectory, metrics = run(_scenario())
    assert sorted(set(trajectory.law.tolist())) == [1, 2, 3]
    assert metrics.rms_tail_error < 1e-6
    assert metrics.max_abs_x3 < math.radians(10.0)
    assert np.all(np.isfinite(trajectory.states))
    assert sum(metrics.dwell_fractions) == pytest.approx(1.0, rel=1e-12)


def test_run_small_amplitude_tracking():
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.04, period=3.0),
    )
    trajectory, metrics = run(sc)
    assert metrics.rms_tail_error < 1e-4
    assert np.max(np.abs(trajectory.error[-5000:])) < 1e-3


def test_run_is_deterministic():
    a, _ = run(_scenario())
    b, _ = run(_scenario())
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.u, b.u)
    assert np.array_equal(a.law, b.law)


def test_sample_count_formula():
    assert _scenario(duration=30.0, step=1e-3).sample_count == 30001
    assert _scenario(duration=1.0, step=0.1).sample_count == 11
    trajectory, _ = run(_scenario(duration=2.0))
    assert len(trajectory) == 2001
    assert trajectory.t[0] == 0.0
    assert trajectory.t[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.diff(trajectory.t) > 0)


def test_full_amplitude_benchmark_diverges():
    # the supervised loop cannot hold full-amplitude tracking through the
    # singular transits; the failure is deterministic and reported with a
    # time stamp (see the acceptance suite for the full property list)
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        duration=30.0,
        tail_window=10.0,
    )
    with pytest.warns(UserWarning, match="beam angle"):
        with pytest.raises(IntegrationError) as err:
            run(sc)
    assert err.value.time is not None


def test_run_wraps_stage_overflow_as_integration_error():
    # this start overflows inside an RK4 stage (sin of an infinite stage
    # state); the failure must surface as a timestamped IntegrationError,
    # not a bare ValueError
    sc = _scenario(
        initial_state=(0.0, 0.3, -0.1, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        duration=30.0,
        tail_window=10.0,
    )
    with pytest.warns(UserWarning):
        with pytest.raises(IntegrationError):
            run(sc)


def _counting_rk4(monkeypatch):
    counts = {"calls": 0, "returned": 0}

    def counting(deriv, x, h):
        counts["calls"] += 1
        out = rk4_step(deriv, x, h)
        counts["returned"] += 1
        return out

    monkeypatch.setattr(sim, "rk4_step", counting)
    return counts


def test_run_calls_rk4_step_once_per_step(monkeypatch):
    # benchmarks count a run's steps through sim.rk4_step
    sc = load_scenario(SCENARIO_DIR / "regulation.json")
    counts = _counting_rk4(monkeypatch)
    trajectory, _ = run(sc)
    assert counts["calls"] == counts["returned"] == sc.sample_count - 1 == len(trajectory) - 1


def test_diverging_run_calls_rk4_step_once_per_attempted_step(monkeypatch):
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        duration=30.0,
        tail_window=10.0,
    )
    counts = _counting_rk4(monkeypatch)
    with pytest.warns(UserWarning, match="beam angle"):
        with pytest.raises(IntegrationError) as err:
            run(sc)
    # every completed step, plus the one whose state was not finite
    assert counts["calls"] == counts["returned"] + 1 == round(err.value.time / sc.step)


def test_run_warns_when_beam_leaves_regime():
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        duration=3.0,
        tail_window=1.0,
    )
    with pytest.warns(UserWarning, match="beam angle"):
        run(sc)


def test_run_regime_warning_names_the_caller():
    sc = _scenario(
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        duration=3.0,
        tail_window=1.0,
    )
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        run(sc)
    assert len(record) == 1
    assert "beam angle |x3| exceeded pi" in str(record[0].message)
    assert record[0].filename == __file__


def test_law2_only_tracking_converges(supervise):
    # law 2 alone by the exact path (apply_law, outer_loop_v, rk4_step on the called
    # plant) is the generated run with law 2 in every region, bit for bit; that run
    # holding the 30 s benchmark is test_known_behaviour_without_law_1_the_benchmark_holds
    from switchlin.ballbeam import reduced_dynamics
    from switchlin.controllers import apply_law, law_descriptor, outer_loop_v, pole_gains

    p = benchmark_plant()
    ref = TrackingReference(0.4, 3.0)
    descriptor, gains = law_descriptor(2), pole_gains(-3.0, 4)
    x, h, states, inputs = (0.0, 0.0, 0.0, 0.0), 1e-3, [], []
    for k in range(3001):  # 3 s, the last sample not stepped from
        if k:
            x = rk4_step(lambda s: reduced_dynamics(s, u, p), x, h)
        u = apply_law(2, x, outer_loop_v(x, ref, k * h, descriptor, gains, p), p)
        states.append(x)
        inputs.append(u)
    supervise(2, 2, 2, 2)
    trajectory, _ = _benchmark(duration=3.0)
    assert trajectory.states.tobytes() == np.array(states).tobytes()
    assert trajectory.u.tobytes() == np.array(inputs).tobytes()
    assert np.all(trajectory.law == 2)


# ---------------------------------------------------------------------------
# trajectory and metrics serialisation


def test_trajectory_csv_format():
    trajectory, _ = run(_scenario(duration=1.0, tail_window=0.5))
    stream = io.StringIO()
    trajectory.write_csv(stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(trajectory) + 1
    row = lines[1].split(",")
    assert len(row) == 10
    assert row[6] in {"1", "2", "3"}
    # nine significant digits
    value = f"{math.pi:.9g}"
    assert len(value.replace(".", "").replace("-", "")) <= 10


def _format_number_csv(trajectory):
    lines = [CSV_HEADER]
    for k in range(len(trajectory)):
        x1, x2, x3, x4 = trajectory.states[k]
        row = [format_number(v) for v in (trajectory.t[k], x1, x2, x3, x4, trajectory.u[k])]
        row.append(str(int(trajectory.law[k])))
        row += [
            format_number(v)
            for v in (trajectory.a1[k], trajectory.error[k], trajectory.abscos3[k])
        ]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def test_write_csv_matches_format_number(rng):
    # spans several write blocks; the awkward values sit in every column
    n = 2500
    special = [-0.0, 0.0, 1e-300, -1e-300, 1e21, 123456789.5, -123456789.5,
               math.nan, math.inf, -math.inf, 5e-324]
    columns = rng.normal(scale=10.0, size=(9, n))
    for c in range(9):
        columns[c, c : c + len(special)] = special
        columns[c, n - len(special) :] = special
    trajectory = Trajectory(
        t=columns[0],
        states=columns[1:5].T.copy(),
        u=columns[5],
        law=rng.integers(1, 4, size=n),
        a1=columns[6],
        error=columns[7],
        abscos3=columns[8],
    )
    stream = io.StringIO()
    trajectory.write_csv(stream)
    text = stream.getvalue()
    assert text == _format_number_csv(trajectory)
    assert ",-0," not in text and "nan" in text and "1e+21" in text


@pytest.mark.parametrize("tail_window, rows", [(0.05, 1), (0.15, 1), (0.45, 2), (1.0, 4)])
def test_rms_tail_error_is_taken_over_the_samples_in_the_window(tail_window, rows):
    # samples at t = 0, 0.3, 0.6, 0.9: a window that holds none takes the last sample
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |x3| passes pi at t = 0.9
        trajectory, metrics = run(_scenario(duration=1.0, step=0.3, tail_window=tail_window))
    assert len(trajectory) == 4
    expected = float(np.sqrt(np.mean(trajectory.error[-rows:] ** 2)))
    assert metrics.rms_tail_error == expected


def test_metrics_report_fields():
    _, metrics = run(_scenario(duration=1.0, tail_window=0.5))
    text = metrics.report_text()
    for key in (
        "rms_tail_error_m",
        "max_abs_x3_rad",
        "switch_count",
        "min_abs_a1",
        "dwell_fraction_law1",
        "dwell_fraction_law2",
        "dwell_fraction_law3",
    ):
        assert key in text


# ---------------------------------------------------------------------------
# scenario files


def _scenario_dict():
    return {
        "plant": {"M": 0.05, "R": 0.01, "J": 0.02, "J_b": 2e-6, "G": 9.81},
        "initial_state": [0.3, 0.0, 0.1, 0.0],
        "reference": {"amplitude": 0.0, "period": 3.0},
        "thresholds": {"eps1": 0.05, "eps4": 0.08},
        "poles": {"law1": -4.0, "law2": -3.0, "law3": -3.0},
        "step": 0.001,
        "duration": 20.0,
        "tail_window": 5.0,
    }


def test_scenario_round_trip():
    sc = scenario_from_dict(_scenario_dict())
    assert sc.plant == benchmark_plant()


def test_scenario_rejects_unknown_keys():
    data = _scenario_dict()
    data["extra"] = 1
    with pytest.raises(ScenarioError, match="unknown key 'extra'"):
        scenario_from_dict(data)
    data = _scenario_dict()
    data["plant"]["mass"] = 2.0
    with pytest.raises(ScenarioError, match="unknown key 'mass' in plant"):
        scenario_from_dict(data)


def test_scenario_rejects_missing_keys():
    data = _scenario_dict()
    del data["thresholds"]
    with pytest.raises(ScenarioError, match="missing key 'thresholds'"):
        scenario_from_dict(data)
    data = _scenario_dict()
    del data["poles"]["law2"]
    with pytest.raises(ScenarioError, match="missing key 'law2'"):
        scenario_from_dict(data)


def test_scenario_rejects_bad_values():
    data = _scenario_dict()
    data["step"] = -1.0
    with pytest.raises(ScenarioError, match="step"):
        scenario_from_dict(data)
    data = _scenario_dict()
    data["poles"]["law1"] = 1.0
    with pytest.raises(ScenarioError, match="pole_law1"):
        scenario_from_dict(data)
    data = _scenario_dict()
    data["initial_state"] = [0, 0, 0]
    with pytest.raises(ScenarioError, match="initial_state"):
        scenario_from_dict(data)
    data = _scenario_dict()
    data["step"] = "fast"
    with pytest.raises(ScenarioError, match="must be a number"):
        scenario_from_dict(data)


_NUMERIC_KEYS = [
    ("plant", "M"),
    ("plant", "R"),
    ("plant", "J"),
    ("plant", "J_b"),
    ("plant", "G"),
    ("reference", "amplitude"),
    ("reference", "period"),
    ("thresholds", "eps1"),
    ("thresholds", "eps4"),
    ("poles", "law1"),
    ("poles", "law2"),
    ("poles", "law3"),
    (None, "step"),
    (None, "duration"),
    (None, "tail_window"),
]


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "1e400"]
)
@pytest.mark.parametrize("section, key", _NUMERIC_KEYS)
def test_scenario_rejects_non_finite_numbers(section, key, value):
    data = _scenario_dict()
    (data if section is None else data[section])[key] = value
    with pytest.raises(ScenarioError, match=f"key '{key}' in .* must be finite"):
        scenario_from_dict(data)


def test_load_scenario_rejects_nan_literal(tmp_path):
    path = tmp_path / "scenario.json"
    text = json.dumps(_scenario_dict()).replace('"amplitude": 0.0', '"amplitude": NaN')
    path.write_text(text)
    with pytest.raises(ScenarioError, match="'amplitude' in reference must be finite"):
        load_scenario(path)


def test_load_scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_scenario_dict()))
    sc = load_scenario(path)
    assert sc.duration == 20.0
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(bad)


def test_shipped_scenarios_parse():
    import pathlib

    scenario_dir = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(scenario_dir.glob("*.json"))
    assert len(paths) >= 5
    for path in paths:
        load_scenario(path)


def test_scenario_optional_keys_take_the_dataclass_defaults():
    data = _scenario_dict()
    del data["plant"]["G"], data["tail_window"]
    sc = scenario_from_dict(data)
    assert sc.plant.G == PlantParams.__dataclass_fields__["G"].default
    assert sc.tail_window == Scenario.__dataclass_fields__["tail_window"].default


def test_scenario_table_fills_each_field_once():
    import dataclasses

    filled = {}
    for cls, keys, optional in sim._OBJECTS.values():
        assert set(optional) <= set(keys)
        names = [field for field in keys.values() if field is not None]
        filled.setdefault(cls, []).extend(names)
    assert set(filled) == {PlantParams, TrackingReference, SwitchThresholds, Scenario}
    for cls, names in filled.items():
        assert sorted(names) == sorted(field.name for field in dataclasses.fields(cls))


def test_scenario_missing_key_does_not_depend_on_hash_seed():
    import os
    import subprocess

    code = (
        f"import sys; sys.path.insert(0, {str(pathlib.Path(sim.__file__).parent.parent)!r})\n"
        "from switchlin.sim import scenario_from_dict\n"
        f"data = {_scenario_dict()!r}\n"
        "del data['step'], data['duration']\n"
        "try: scenario_from_dict(data)\n"
        "except ValueError as exc: print(exc)\n"
        f"data = {_scenario_dict()!r}\n"
        "del data['plant']['M'], data['plant']['R']\n"
        "try: scenario_from_dict(data)\n"
        "except ValueError as exc: print(exc)\n"
    )
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "missing key 'step' in scenario",
            "missing key 'M' in plant",
        ]


@pytest.mark.parametrize("name", ["regulation", "small_tracking"])
def test_run_matches_exact_descriptor_control(name):
    # the simulator's compiled kernels and the exact descriptor path are
    # one definition: every recorded input agrees bit for bit
    import pathlib

    from switchlin.controllers import law_descriptor, outer_loop_v, pole_gains

    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json"
    sc = load_scenario(path)
    trajectory, _ = run(sc)
    params = sc.plant.symbol_values()
    poles = {1: sc.pole_law1, 2: sc.pole_law2, 3: sc.pole_law3}
    laws = {}
    for law_id in (1, 2, 3):
        law = law_descriptor(law_id)
        laws[law_id] = (law, pole_gains(poles[law_id], law.order))
    for k in range(len(trajectory)):
        x = tuple(trajectory.states[k])
        law, gains = laws[int(trajectory.law[k])]
        v = outer_loop_v(x, sc.reference, float(trajectory.t[k]), law, gains, sc.plant)
        assert trajectory.u[k] == law.control(x, v, params)


@pytest.mark.parametrize("sign", [1, -1], ids=["+", "-"])
@pytest.mark.parametrize("index", range(4))
def test_scenario_rejects_initial_state_beyond_float_range(index, sign):
    # json.load returns a 401-digit literal as this integer
    data = _scenario_dict()
    data["initial_state"][index] = sign * 10**400
    with pytest.raises(ScenarioError, match="^initial_state must be finite$"):
        scenario_from_dict(data)


@pytest.mark.parametrize(
    "overrides, name",
    [
        ({"duration": math.nan}, "duration"),
        ({"duration": math.inf}, "duration"),
        ({"step": math.inf, "duration": math.inf}, "step"),
        ({"tail_window": math.inf}, "tail_window"),
        ({"pole_law1": -math.inf}, "pole_law1"),
        ({"pole_law2": -math.inf}, "pole_law2"),
        ({"pole_law3": -math.inf}, "pole_law3"),
    ],
)
def test_scenario_rejects_non_finite_fields(overrides, name):
    # library callers bypass scenario_from_dict's number check
    with pytest.raises(ScenarioError, match=f"^{name} must be finite$"):
        _scenario(**overrides)


def test_run_error_column_is_x1_minus_reference():
    sc = load_scenario(SCENARIO_DIR / "small_tracking.json")
    trajectory, _ = run(sc)
    expected = [
        x1 - sc.reference.value(t)
        for x1, t in zip(trajectory.states[:, 0].tolist(), trajectory.t.tolist())
    ]
    assert trajectory.error.tobytes() == np.array(expected).tobytes()


def test_run_generates_each_control_once_per_law(monkeypatch):
    import dataclasses

    from switchlin import controllers, expr

    emitted = []

    def counting_emit(exprs, *args, **options):
        emitted.append(len(exprs))
        return emit(exprs, *args, **options)

    emit = controllers._emit
    monkeypatch.setattr(controllers, "_emit", counting_emit)
    laws = tuple(dataclasses.replace(law) for law in controllers.table_laws())  # never emitted
    monkeypatch.setattr(sim, "table_laws", lambda: laws)
    sc = _scenario(duration=0.05)
    run(sc)
    before = expr._compile.cache_info()
    for _ in range(2):
        run(sc)
    assert len(emitted) == 3  # laws 1, 2 and 3
    run(_scenario(duration=0.05, plant=dataclasses.replace(benchmark_plant(), G=9.0)))
    assert len(emitted) == 3  # the plant is bound, not generated
    info = expr._compile.cache_info()
    assert info.misses == before.misses
    assert info.hits - before.hits == 3  # one supervised controller per run; a1's tree keeps its kernel


def test_runs_compile_the_a1_kernel_once():
    from switchlin import expr
    from switchlin.controllers import law_descriptor

    sc = load_scenario(SCENARIO_DIR / "regulation.json")
    expr._compile.cache_clear()
    first, _ = run(sc)
    misses = expr._compile.cache_info().misses
    second, _ = run(sc)
    law_descriptor(1).coefficient.evaluate_many(sc.plant.symbol_values(), second.states)
    assert expr._compile.cache_info().misses == misses  # the a1 kernel is one of them
    assert first.a1.tobytes() == second.a1.tobytes()


def test_run_reports_a_record_too_large_to_allocate():
    # 10**18 samples: numpy refuses the times column at once, before any step
    sc = _scenario(duration=1e12, step=1e-6)
    assert sc.sample_count >= 10**18
    with pytest.raises(sim.SimulationError) as failure:
        run(sc)
    assert type(failure.value) is sim.SimulationError
    assert str(failure.value) == f"cannot allocate the record of {sc.sample_count} samples"
    assert isinstance(failure.value.__cause__, MemoryError)


@pytest.mark.parametrize(
    "duration, step", [(1e13, 1e-6), (float(2**63 - 1024), 1.0)], ids=["1e19", "2**63"]
)
def test_run_refuses_a_record_beyond_numpy_before_allocating(duration, step, monkeypatch):
    # numpy addresses sys.maxsize bytes: np.arange raises ValueError at 10**19
    # samples and returns an empty array just under 2**63
    sc = _scenario(duration=duration, step=step)
    assert sc.sample_count > sys.maxsize // 32
    monkeypatch.setattr(np, "arange", None)  # any allocation would raise TypeError
    with pytest.raises(sim.SimulationError) as failure:
        run(sc)
    assert str(failure.value) == f"cannot allocate the record of {sc.sample_count} samples"


def test_scenario_rejects_a_sample_count_that_overflows():
    # both are finite, but duration / step is not
    with pytest.raises(ScenarioError, match=r"^duration / step must be finite$"):
        _scenario(duration=1e300, step=1e-300)


def test_run_reports_a_failing_control_as_integration_error():
    # without gravity law 2's coefficient -B*G*cos(x3) is zero, and the
    # supervisor picks law 2 at the first sample (|x1| > eps1, x4 = 0)
    plant = dataclasses.replace(benchmark_plant(), G=0.0)
    sc = _scenario(plant=plant, initial_state=(0.3, 0.0, 0.1, 0.0))
    with pytest.raises(IntegrationError) as info:
        run(sc)
    assert str(info.value) == (
        "control failed at t=0.000000: law 2 coefficient -0.0 is below the floor 1e-300"
    )
    assert info.value.time == 0.0
    assert isinstance(info.value.__cause__, SingularControlError)
    assert len(info.value.trajectory) == 0


@pytest.mark.parametrize("name", ["control", "benchmark"])
def test_a_diverged_run_keeps_one_sample_per_completed_step(name):
    if name == "control":
        # law 1 for six steps, then law 2, whose coefficient -B*G*cos(x3) is zero here
        plant = dataclasses.replace(benchmark_plant(), G=0.0)
        sc = _scenario(plant=plant, initial_state=(0.3, 0.1, 0.1, 0.2))
    else:
        sc = load_scenario(SCENARIO_DIR / "benchmark.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IntegrationError) as info:
            run(sc)
    kept = info.value.trajectory
    assert len(kept) == round(info.value.time / sc.step) > 0
    assert kept.t.tobytes() == (np.arange(len(kept)) * sc.step).tobytes()


def test_a_diverged_run_keeps_the_samples_of_the_completed_shorter_run():
    import dataclasses

    sc = load_scenario(SCENARIO_DIR / "benchmark.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(IntegrationError) as info:
            run(sc)
        completed, _ = run(dataclasses.replace(sc, duration=11.766))
    kept = info.value.trajectory
    assert str(info.value) == "integration produced a non-finite state at t=11.767000"
    columns = ("t", "states", "u", "law", "a1", "error", "abscos3")
    assert len(kept) == len(completed) == 11767
    assert all(np.isfinite(getattr(kept, column)).all() for column in columns)
    for column in columns:
        assert getattr(kept, column).tobytes() == getattr(completed, column).tobytes()


def test_plant_step_computes_each_value_once():
    sim._plant_stages.cache_clear()
    stages, names = sim._plant_stages()
    source = "\n".join(stages)
    assert names == {"B": "p0", "G": "p1"}
    assert source.count("sin(") == 3 and len(re.findall(r"\bx9\b", source)) == 1  # one per stage
    assert not re.search(r"\bx\d+ = s\d+\b", source)  # no stage copies
    assert "params" not in source  # the plant is bound once, by make
    # stages b and c share their x4, x4 + half*u; slopes x2, x4 and u are read where they stand
    assert len(re.findall(r"\(x4 \+ \(t\d+ \* x5\)\)", source)) == 1
    assert re.findall(r"\b[abcd]\d = ", source) == []


@pytest.mark.parametrize("step", [1e-3, 0.003, 0.0625])
def test_run_forms_the_time_column_as_k_times_h(step):
    sc = _scenario(duration=0.6, step=step, tail_window=0.1)
    trajectory, _ = run(sc)
    assert len(trajectory) == sc.sample_count
    assert trajectory.t.tobytes() == np.array([k * step for k in range(len(trajectory))]).tobytes()


def test_numpy_waves_equal_math_waves_on_every_shipped_sample():
    # run reads the reference's cos and sin of omega*k*h from numpy columns; its
    # trajectories are those of math.cos and math.sin only while the two agree bitwise
    from switchlin.controllers import _reference_scales

    for path in sorted(SCENARIO_DIR.glob("*.json")):
        sc = load_scenario(path)
        omega, _ = _reference_scales(sc.reference, 0)
        phases = [omega * (k * sc.step) for k in range(sc.sample_count)]
        phase = omega * (np.arange(sc.sample_count) * sc.step)
        assert phase.tobytes() == np.array(phases).tobytes()
        for wave, exact in ((np.cos, math.cos), (np.sin, math.sin)):
            assert wave(phase).tobytes() == np.array([exact(v) for v in phases]).tobytes()


def _assessed(name):
    sc = load_scenario(SCENARIO_DIR / f"{name}.json")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            trajectory, _ = run(sc)
        except IntegrationError as exc:
            return sim.assess(exc), exc
    return sim.assess(trajectory), trajectory


def test_assess_reports_the_shipped_runs():
    for name, time in (("near_pivot", 1.480), ("near_rest", 1.481)):
        report, _ = _assessed(name)
        assert report == sim.RunReport("left_envelope", time, "x1", time)
    report, error = _assessed("benchmark")
    assert report == sim.RunReport("diverged", error.time, "x3", 0.771)
    assert round(report.time, 6) == 11.767
    # the samples before the failure alone: |x1| also leaves, later, at 4.054 s
    assert sim.assess(error.trajectory) == sim.RunReport("left_envelope", 0.771, "x3", 0.771)
    wide = sim.Envelope(max_abs_x3=math.inf)
    assert sim.assess(error.trajectory, wide) == sim.RunReport("left_envelope", 4.054, "x1", 4.054)
    for name in ("regulation", "small_tracking"):
        assert _assessed(name)[0] == sim.RunReport("completed", None, None, None)


def test_assess_reads_the_input_bound_and_names_the_first_bound_on_a_tie():
    trajectory, _ = run(_scenario(duration=1.0, tail_window=0.5))
    peak = int(np.argmax(np.abs(trajectory.u)))
    bound = float(np.abs(trajectory.u[peak])) / 2
    first = int(np.argmax(np.abs(trajectory.u) > bound))
    report = sim.assess(trajectory, sim.Envelope(max_abs_u=bound))
    assert report == sim.RunReport("left_envelope", trajectory.t[first], "u", trajectory.t[first])
    tie = sim.Envelope(max_abs_x1=0.1, max_abs_x3=0.01)  # both exceeded at the first sample
    assert sim.assess(trajectory, tie) == sim.RunReport("left_envelope", 0.0, "x1", 0.0)


@pytest.mark.parametrize("name", ["max_abs_x1", "max_abs_x3", "max_abs_u"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_envelope_bounds_must_be_positive(name, value):
    with pytest.raises(ValueError, match=f"^envelope bound {name} must be positive$"):
        sim.Envelope(**{name: value})


# ---------------------------------------------------------------------------
# the README's "Known behaviour of the benchmark scenario", claim by claim


def _benchmark(**overrides):
    # benchmark.json with overrides: (trajectory, metrics), or (the IntegrationError, None)
    sc = dataclasses.replace(load_scenario(SCENARIO_DIR / "benchmark.json"), **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return run(sc)
        except IntegrationError as exc:
            return exc, None


def test_known_behaviour_law_1_and_law_2_alternate_until_the_run_leaves():
    error, _ = _benchmark()
    kept, eps1 = error.trajectory, 0.05
    law, x = kept.law, kept.states
    first = int(np.argmax(law == 1))
    x1, _, x3, _ = x[first]
    assert kept.t[first] == 0.495 and round(9.81 * math.cos(x3) / (2.0 * x1)) == -97
    # all but 6 switches go between laws 1 and 2 with the ball out: across |x4| = eps4
    rows = np.flatnonzero(np.diff(law))
    ball_out = np.abs(x[:, 0]) > eps1
    across_eps4 = (law[rows] + law[rows + 1] == 3) & ball_out[rows] & ball_out[rows + 1]
    assert (len(rows), int(np.count_nonzero(across_eps4))) == (1924, 1918)
    row = round(0.771 / 1e-3)  # |x3| passes pi/2 with law 1 active, after 4 switches
    assert sim.assess(kept).exit_time == kept.t[row] == 0.771
    assert law[row] == 1 and np.count_nonzero(np.diff(law[: row + 1])) == 4
    loud = sim.Envelope(max_abs_x1=math.inf, max_abs_x3=math.inf, max_abs_u=1e3)
    assert sim.assess(kept, loud) == sim.RunReport("left_envelope", 2.961, "u", 2.961)


@pytest.mark.parametrize(
    "table, rms_mm, max_x3_deg, switches",
    [
        ((2, 2, 2, 2), 4.6649, 14.67, 0),
        ((3, 3, 3, 3), 4.4585, 14.68, 0),
        ((2, 2, 2, 3), 4.6649, 14.67, 3),
    ],
    ids=["law 2 alone", "law 3 alone", "law 2 in law 1's place"],
)
def test_known_behaviour_without_law_1_the_benchmark_holds(
    supervise, table, rms_mm, max_x3_deg, switches
):
    supervise(*table)
    trajectory, metrics = _benchmark()
    assert sim.assess(trajectory) == sim.RunReport("completed", None, None, None)
    assert round(metrics.rms_tail_error * 1e3, 4) == rms_mm
    assert round(math.degrees(metrics.max_abs_x3), 2) == max_x3_deg
    assert metrics.switch_count == switches and metrics.dwell_fractions[0] == 0.0


def test_known_behaviour_every_sampled_start_diverges():
    starts = np.random.default_rng(0).uniform(-0.1, 0.1, size=(40, 4))
    for x0 in starts.tolist():
        error, _ = _benchmark(initial_state=x0)
        assert isinstance(error, IntegrationError), x0


@pytest.mark.parametrize(
    "step, past_31_5_deg, past_half_pi",
    [(1e-3, 0.646, 0.771), (5e-4, 0.646, 0.771), (2.5e-4, 0.645, 0.770)],
)
def test_known_behaviour_the_envelope_exits_converge_with_the_step(
    step, past_31_5_deg, past_half_pi
):
    trajectory, _ = _benchmark(step=step, duration=1.0, tail_window=0.5)
    steep = sim.Envelope(max_abs_x3=math.radians(31.5))
    assert round(sim.assess(trajectory, steep).exit_time, 6) == past_31_5_deg
    report = sim.assess(trajectory)
    assert (report.outcome, report.exit_bound) == ("left_envelope", "x3")
    assert round(report.exit_time, 6) == past_half_pi


def test_known_behaviour_the_non_finite_time_moves_with_the_step():
    assert round(_benchmark()[0].time, 6) == 11.767
    assert round(_benchmark(step=2e-3)[0].time, 6) == 8.286
