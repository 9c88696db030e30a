"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines even
for passing criteria.  Criterion 4 exercises the full-amplitude benchmark
scenario exactly as pinned; the supervised loop demonstrably cannot hold
that configuration (the exact-linearising law destabilises its own
internal beam-rate state at every transit of the ball past the pivot), so
that criterion reports FAIL honestly rather than loosening the check.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from switchlin.ballbeam import (
    benchmark_plant,
    full_dynamics,
    symbolic_system,
    torque_from_u,
)
from switchlin.controllers import (
    SwitchThresholds,
    TrackingReference,
    law_descriptor,
    pole_gains,
    table_laws,
)
from switchlin.coverage import coverage_check, factor_check, necessity_witness
from switchlin.expr import Bindings, parse
from switchlin.geometry import (
    SingularityFactor,
    ad_power,
    derivative_chain,
    lie_bracket,
    transversality_rank,
)
from switchlin.sim import Scenario, SimulationError, rk4_step, run

PLANT = benchmark_plant()
PARAMS = PLANT.symbol_values()
B, G = PARAMS["B"], PARAMS["G"]


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def _mixed_error(actual: np.ndarray, expected: np.ndarray) -> float:
    # relative error with a unit floor so near-zero samples stay meaningful
    return float(np.max(np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))))


def test_criterion_01_symbolic_chain_reproduction(rng):
    start = time.perf_counter()
    chain = derivative_chain(symbolic_system(PLANT), 3)
    states = rng.uniform(-2, 2, size=(10_000, 4))
    a_vals = chain.a.evaluate_many(PARAMS, states)
    b_vals = chain.b.evaluate_many(PARAMS, states)
    a_expected = 2 * (5 / 7) * states[:, 0] * states[:, 3]
    b_expected = (5 / 7) * states[:, 1] * states[:, 3] ** 2 - (5 / 7) * 9.81 * states[
        :, 3
    ] * np.cos(states[:, 2])
    a_err = _mixed_error(a_vals, a_expected)
    b_err = _mixed_error(b_vals, b_expected)
    zeros = chain.mixed[0].is_zero() and chain.mixed[1].is_zero()
    elapsed = time.perf_counter() - start
    ok = a_err < 1e-9 and b_err < 1e-9 and zeros and elapsed < 1.0
    _report(
        1,
        "symbolic chain reproduction",
        ok,
        f"a err {a_err:.2e}, b err {b_err:.2e}, lower L_g terms zero: {zeros}, "
        f"{elapsed:.3f} s",
    )


def test_criterion_02_involutivity_witness(rng):
    system = symbolic_system(PLANT)
    ad1 = ad_power(system.f, system.g, 1)
    ad2 = ad_power(system.f, system.g, 2)
    bracket = lie_bracket(system.g, ad2)
    states = rng.uniform(-2, 2, size=(1000, 4))

    def components_at_states(field):
        return np.stack(
            [field.component_field(k).evaluate_many(PARAMS, states) for k in range(1, 5)],
            axis=1,
        )

    bracket_vals = components_at_states(bracket)
    expected = np.column_stack(
        [2 * B * states[:, 0], -2 * B * states[:, 1], np.zeros(len(states)), np.zeros(len(states))]
    )
    value_err = _mixed_error(bracket_vals, expected)

    columns = [components_at_states(field) for field in (system.g, ad1, ad2, bracket)]
    stacked3 = np.stack(columns[:3], axis=2)  # (n, 4, 3)
    stacked4 = np.stack(columns, axis=2)  # (n, 4, 4)
    sigma3 = np.linalg.svd(stacked3, compute_uv=False)
    sigma4 = np.linalg.svd(stacked4, compute_uv=False)
    rank3 = np.sum(sigma3 > 1e-9 * sigma3[:, :1], axis=1)
    rank4 = np.sum(sigma4 > 1e-9 * sigma4[:, :1], axis=1)
    nonzero = (states[:, 0] != 0) | (states[:, 1] != 0)
    escalates = bool(np.all(rank3[nonzero] == 3) and np.all(rank4[nonzero] == 4))

    ok = value_err < 1e-9 and escalates
    _report(
        2,
        "involutivity witness",
        ok,
        f"bracket err {value_err:.2e}, rank 3 -> 4 at all {int(np.sum(nonzero))} points",
    )


def test_criterion_03_factorisation():
    a = parse("2*B*x1*x4", 4)
    factors = (
        SingularityFactor(parse("x1", 4), "x1"),
        SingularityFactor(parse("x4", 4), "x4"),
    )
    result = factor_check(a, factors, [(-1.0, 1.0)] * 4, 10_000, PARAMS)
    deviation = abs(result.constant_estimate - 10 / 7) / (10 / 7)
    ok = deviation < 1e-10
    _report(
        3,
        "factorisation",
        ok,
        f"c = {result.constant_estimate!r}, rel deviation {deviation:.2e}, "
        f"residual {result.max_relative_residual:.2e}",
    )


def test_criterion_04_benchmark_scenario():
    scenario = Scenario(
        plant=PLANT,
        initial_state=(0.0, 0.0, 0.0, 0.0),
        reference=TrackingReference(amplitude=0.4, period=3.0),
        thresholds=SwitchThresholds(eps1=0.05, eps4=0.08),
        pole_law1=-4.0,
        pole_law2=-3.0,
        pole_law3=-3.0,
        step=1e-3,
        duration=30.0,
        tail_window=10.0,
    )
    start = time.perf_counter()
    try:
        with pytest.warns(UserWarning):
            trajectory, metrics = run(scenario)
    except SimulationError as exc:
        elapsed = time.perf_counter() - start
        _report(
            4,
            "benchmark scenario",
            False,
            f"closed loop diverged: {exc} after {elapsed:.1f} s wall time; the "
            "supervised architecture cannot hold full-amplitude tracking "
            "through the singular transits (see the README's \"Known behaviour "
            "of the benchmark scenario\")",
        )
        return
    elapsed = time.perf_counter() - start
    signs = np.sign(trajectory.a1)
    nonzero_signs = signs[signs != 0]
    flips = int(np.count_nonzero(np.diff(nonzero_signs) != 0))
    checks = {
        "tail rms < 0.02": metrics.rms_tail_error < 0.02,
        "max |x3| <= 31.5 deg": metrics.max_abs_x3 <= math.radians(31.5),
        "all laws active": set(trajectory.law.tolist()) == {1, 2, 3},
        "a1 sign changes >= 10": flips >= 10,
        "all samples finite": bool(
            np.all(np.isfinite(trajectory.states)) and np.all(np.isfinite(trajectory.u))
        ),
        "runtime < 10 s": elapsed < 10.0,
    }
    ok = all(checks.values())
    detail = ", ".join(f"{name}: {'yes' if value else 'NO'}" for name, value in checks.items())
    _report(4, "benchmark scenario", ok, detail)


def test_criterion_05_coverage_sufficiency():
    report = coverage_check(table_laws(), [(-1.0, 1.0)] * 4, 1_000_000, 0.0, PARAMS)
    ok = report.complete and report.witness_total == 0 and report.probe_count > 0
    _report(
        5,
        "coverage sufficiency",
        ok,
        f"{report.sample_count} samples + {report.probe_count} probes, "
        f"{report.witness_total} witnesses",
    )


def test_criterion_06_necessity_witnesses():
    start = time.perf_counter()
    w1 = necessity_witness([law_descriptor(1)], params=PARAMS)
    laws12 = [law_descriptor(1), law_descriptor(2)]
    w12 = necessity_witness(laws12, params=PARAMS)
    elapsed = time.perf_counter() - start
    ok = w1 is not None and (w1[0] == 0.0 or w1[3] == 0.0)
    if ok and w12 is not None:
        coefficients = [abs(law.coefficient_value(w12, PARAMS)) for law in laws12]
        ok = (
            w12[0] * w12[3] == 0.0
            and abs(math.cos(w12[2])) < 1e-9
            and all(c < 1e-9 for c in coefficients)
            and elapsed < 1.0
        )
    else:
        ok = False
    _report(
        6,
        "necessity witnesses",
        ok,
        f"w({{1}}) = {w1}, w({{1,2}}) = {w12}, {elapsed:.3f} s",
    )


def test_criterion_07_transversality(rng):
    gradients = [
        parse("x1", 4).gradient(),
        parse("x4", 4).gradient(),
        parse("cos(x3)", 4).gradient(),
    ]
    all_full = True
    for k in range(100):
        point = [0.0, float(rng.uniform(-1, 1)), 0.0, 0.0]
        point[2] = math.pi / 2 if k % 2 else -math.pi / 2
        if k % 4 < 2:
            point[0] = 0.0
            point[3] = float(rng.uniform(0.1, 1.0))
        else:
            point[0] = float(rng.uniform(0.1, 1.0))
            point[3] = 0.0
        at_point = Bindings(PARAMS, tuple(point))
        rows = [[g.evaluate(at_point) for g in gradient] for gradient in gradients]
        if transversality_rank(rows) != 3:
            all_full = False
            break
    _report(7, "transversality", all_full, "rank 3 at 100 sampled intersection points")


def test_criterion_08_integrator_order():
    def global_error(h):
        x = (1.0,)
        for _ in range(round(1.0 / h)):
            x = rk4_step(lambda s: (s[0],), x, h)
        return abs(x[0] - math.e)

    e1, e2 = global_error(0.1), global_error(0.05)
    order = math.log2(e1 / e2)
    ok = 3.9 <= order <= 4.1
    _report(8, "integrator order", ok, f"measured order {order:.4f}")


def test_criterion_09_preliminary_feedback(rng):
    worst = 0.0
    for _ in range(1000):
        x = tuple(rng.uniform(-2, 2, size=4))
        u = float(rng.uniform(-10, 10))
        tau = torque_from_u(x, u, PLANT)
        worst = max(worst, abs(full_dynamics(x, tau, PLANT)[3] - u))
    ok = worst < 1e-12
    _report(9, "preliminary feedback", ok, f"max |thetadd - u| = {worst:.2e}")


def test_criterion_10_pole_gains():
    gains3 = pole_gains(-4.0, 3)
    gains4 = pole_gains(-3.0, 4)
    exact = gains3.alphas == (64.0, 48.0, 12.0) and gains4.alphas == (
        81.0,
        108.0,
        54.0,
        12.0,
    )
    mpmath.mp.dps = 50
    worst = 0.0
    for gains in (gains3, gains4):
        n = gains.order
        companion = mpmath.zeros(n, n)
        for i in range(1, n):
            companion[i, i - 1] = 1
        for i in range(n):
            companion[i, n - 1] = -mpmath.mpf(gains.alphas[i])
        eigenvalues, _ = mpmath.eig(companion)
        worst = max(worst, max(float(abs(e - gains.pole)) for e in eigenvalues))
    ok = exact and worst < 1e-8
    _report(
        10,
        "pole gains",
        ok,
        f"exact coefficients: {exact}, companion-root error {worst:.2e}",
    )
