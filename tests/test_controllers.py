import dataclasses
import math
import struct

import mpmath
import numpy as np
import pytest

from switchlin.ballbeam import PlantParams, benchmark_plant, reduced_dynamics, symbolic_system
from switchlin.controllers import (
    SUPERVISOR,
    GainSet,
    LawDescriptor,
    SingularControlError,
    SwitchThresholds,
    TrackingReference,
    _CYCLE,
    _reference_scales,
    apply_law,
    law_descriptor,
    outer_loop_v,
    pole_gains,
    supervisor,
    table_laws,
)
from switchlin.expr import Bindings, Constant, ScalarField, parse
from switchlin.geometry import derivative_chain
from switchlin.sim import ClosedLoop, IntegrationError, rk4_step

TH = SwitchThresholds(eps1=0.05, eps4=0.08)


# ---------------------------------------------------------------------------
# supervisor


def test_supervisor_cases():
    assert supervisor((0.2, 0, 0, 0.5), TH) == 1
    assert supervisor((0.01, 0, 0, 0.01), TH) == 3
    assert supervisor((0.01, 0, 0, 0.5), TH) == 2
    assert supervisor((0.2, 0, 0, 0.01), TH) == 2


def test_supervisor_boundary_is_not_law1():
    # |x1| exactly at the threshold fails the strict inequality of case 1
    assert supervisor((0.05, 0, 0, 0.5), TH) == 2
    assert supervisor((0.2, 0, 0, 0.08), TH) == 2
    assert supervisor((0.05, 0, 0, 0.08), TH) == 3


def test_supervisor_partitions_state_space(rng):
    for x in rng.uniform(-1, 1, size=(500, 4)):
        law_id = supervisor(x, TH)
        assert law_id in (1, 2, 3)
        ball_out = abs(x[0]) > TH.eps1
        beam_moving = abs(x[3]) > TH.eps4
        expected = 1 if (ball_out and beam_moving) else 3 if (not ball_out and not beam_moving) else 2
        assert law_id == expected


def test_supervisor_table_is_the_papers_and_immutable():
    paper = {(True, True): 1, (True, False): 2, (False, True): 2, (False, False): 3}
    assert dict(SUPERVISOR) == paper
    with pytest.raises(TypeError):
        SUPERVISOR[True, True] = 2


def test_supervisor_reads_the_table_at_call_time(supervise):
    supervise(2, 3, 1, 2)
    states = [(0.2, 0, 0, 0.5), (0.2, 0, 0, 0), (0, 0, 0, 0.5), (0, 0, 0, 0)]
    assert [supervisor(x, TH) for x in states] == [2, 3, 1, 2]


def test_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        SwitchThresholds(0.0, 0.1)
    with pytest.raises(ValueError):
        SwitchThresholds(0.1, -1.0)


# ---------------------------------------------------------------------------
# laws


def test_law1_mass_ratio_cancels():
    p = benchmark_plant()
    # (G * 0.5) / (2 * 0.2 * 0.5) with the cos term at angle zero
    assert apply_law(1, (0.2, 0, 0, 0.5), 0.0, p) == pytest.approx(24.525, rel=1e-12)


def test_law1_zero_numerator():
    p = benchmark_plant()
    assert abs(apply_law(1, (1.0, 0.0, math.pi / 2, 1.0), 0.0, p)) < 1e-12


def test_law1_singularity_guard():
    p = benchmark_plant()
    with pytest.raises(SingularControlError):
        apply_law(1, (0.0, 0.0, 0.0, 1.0), 1.0, p)


def test_law2_constant_demand():
    p = benchmark_plant()
    expected = -7 / (5 * 9.81)
    assert apply_law(2, (0, 0, 0, 0), 1.0, p) == pytest.approx(expected, rel=1e-12)


def test_law2_zero_numerator():
    p = benchmark_plant()
    assert apply_law(2, (0, 0, 0, 1), 0.0, p) == 0.0


def test_law2_reduces_to_tangent():
    p = benchmark_plant()
    assert apply_law(2, (0, 0, math.pi / 4, 1), 0.0, p) == pytest.approx(1.0, rel=1e-12)


def test_law3_constant_coefficient():
    p = benchmark_plant()
    assert apply_law(3, (5.0, -2.0, 1.0, 3.0), 1.0, p) == pytest.approx(
        -7 / (5 * 9.81), rel=1e-12
    )
    assert apply_law(3, (0, 0, 0, 0), 0.0, p) == 0.0


def test_law3_agrees_with_law2_at_origin(rng):
    p = benchmark_plant()
    for v in rng.uniform(-20, 20, size=20):
        assert apply_law(3, (0, 0, 0, 0), float(v), p) == pytest.approx(
            apply_law(2, (0, 0, 0, 0), float(v), p), rel=1e-14
        )


def test_law3_is_law2_frozen_at_the_operating_point():
    # the derived trees equal the hand-written ones, so the generated arm is the same code
    law2, law3 = law_descriptor(2), law_descriptor(3)
    assert law3.coefficient.expr == parse("-B*G", 4).expr
    assert law3.offset.expr == Constant(0) and type(law3.offset.expr.value) is int
    assert law3.coordinates == law2.coordinates and law3.factors == ()
    written = LawDescriptor(
        law_id=3, name="law3", order=4, coefficient=parse("-B*G", 4), offset=parse("0", 4),
        factors=(),
        coordinates=tuple(parse(t, 4) for t in ("x1", "x2", "-B*G*sin(x3)", "-B*G*x4*cos(x3)")),
    )
    assert law3 == written
    assert law3._control_body == written._control_body


def test_apply_law_dispatch():
    p = benchmark_plant()
    x = (0.2, 0.1, 0.05, 0.5)
    with pytest.raises(ValueError):
        apply_law(4, x, 0.0, p)


def test_law1_exactness_through_symbolic_chain(plant, rng):
    # substituting law 1 into y^(3) = b(x) + a(x) u returns v
    chain = derivative_chain(symbolic_system(plant), 3)
    params = plant.symbol_values()
    count = 0
    while count < 1000:
        x = tuple(rng.uniform(-2, 2, size=4))
        if abs(2 * plant.B * x[0] * x[3]) < 0.01:
            continue
        v = float(rng.uniform(-10, 10))
        u = apply_law(1, x, v, plant)
        from switchlin.expr import Bindings

        at_x = Bindings(params, x)
        y3 = chain.b.evaluate(at_x) + chain.a.evaluate(at_x) * u
        assert abs(y3 - v) < 1e-10 * max(1.0, abs(v))
        count += 1


def test_law2_exactness_in_xi_dynamics(plant, rng):
    # xi4dot = BG x4^2 sin x3 - BG cos x3 * u equals v under law 2
    B, G = plant.B, plant.G
    count = 0
    while count < 1000:
        x = tuple(rng.uniform(-2, 2, size=4))
        if abs(math.cos(x[2])) < 0.1:
            continue
        v = float(rng.uniform(-10, 10))
        u = apply_law(2, x, v, plant)
        xi4dot = B * G * x[3] ** 2 * math.sin(x[2]) - B * G * math.cos(x[2]) * u
        assert abs(xi4dot - v) < 1e-10 * max(1.0, abs(v))
        count += 1


def test_selected_law_regularity(plant, rng):
    # wherever the supervisor picks a law, that law's coefficient is bounded
    # away from zero (for beam angles within 60 degrees)
    B, G = plant.B, plant.G
    for _ in range(1000):
        x = (
            float(rng.uniform(-1, 1)),
            float(rng.uniform(-1, 1)),
            float(rng.uniform(-math.pi / 3, math.pi / 3)),
            float(rng.uniform(-1, 1)),
        )
        law_id = supervisor(x, TH)
        if law_id == 1:
            assert abs(2 * B * x[0] * x[3]) >= 2 * B * TH.eps1 * TH.eps4
        elif law_id == 2:
            assert abs(B * G * math.cos(x[2])) >= B * G / 2
        else:
            assert abs(-B * G) == B * G


# ---------------------------------------------------------------------------
# coordinates


def test_xi_coordinates_at_origin(plant):
    xi = law_descriptor(2).coordinate_values((0, 0, 0, 0), plant.symbol_values())
    assert xi == (0.0, 0.0, 0.0, 0.0)


def test_xi_coordinates_values(plant):
    xi = law_descriptor(2).coordinate_values((0.1, 0.2, 0.0, 1.0), plant.symbol_values())
    assert xi[0] == 0.1 and xi[1] == 0.2 and xi[2] == 0.0
    assert xi[3] == pytest.approx(-(5 / 7) * 9.81, rel=1e-12)


def test_xi3_at_vertical_beam(plant):
    xi = law_descriptor(2).coordinate_values((0, 0, math.pi / 2, 0), plant.symbol_values())
    assert xi[2] == pytest.approx(-(5 / 7) * 9.81, rel=1e-12)


# ---------------------------------------------------------------------------
# pole placement


def test_pole_gains_values():
    assert pole_gains(-4, 3).alphas == (64.0, 48.0, 12.0)
    assert pole_gains(-3, 4).alphas == (81.0, 108.0, 54.0, 12.0)
    assert pole_gains(-1, 3).alphas == (1.0, 3.0, 3.0)


def test_pole_gains_reject_unstable_pole():
    with pytest.raises(ValueError):
        pole_gains(0.0, 3)
    with pytest.raises(ValueError):
        pole_gains(2.0, 4)


def test_pole_gains_reject_non_finite_pole():
    # -inf passes the sign check; its gains would all be infinite
    with pytest.raises(ValueError, match="pole must be finite, got -inf"):
        pole_gains(-math.inf, 3)
    with pytest.raises(ValueError, match="strictly negative"):
        pole_gains(math.nan, 3)
    # finite, but (-pole)**4 overflows
    with pytest.raises(ValueError, match=r"^pole -1e\+100 gives gains beyond the float range$"):
        pole_gains(-1e100, 4)


def test_pole_gains_positive_for_negative_pole(rng):
    for _ in range(20):
        pole = float(rng.uniform(-6, -0.1))
        for multiplicity in (3, 4):
            gains = pole_gains(pole, multiplicity)
            assert all(a > 0 for a in gains.alphas)


def _companion_roots_highprec(gains: GainSet):
    # companion-matrix eigenvalues in extended precision: a repeated
    # (defective) root cannot be resolved to 1e-8 in double precision
    mpmath.mp.dps = 50
    n = gains.order
    companion = mpmath.zeros(n, n)
    for i in range(1, n):
        companion[i, i - 1] = 1
    for i in range(n):
        companion[i, n - 1] = -mpmath.mpf(gains.alphas[i])
    eigenvalues, _ = mpmath.eig(companion)
    return eigenvalues


@pytest.mark.parametrize("pole, multiplicity", [(-4.0, 3), (-3.0, 4), (-2.5, 3)])
def test_pole_gains_companion_roots(pole, multiplicity):
    gains = pole_gains(pole, multiplicity)
    for root in _companion_roots_highprec(gains):
        assert abs(root - pole) < 1e-8


# ---------------------------------------------------------------------------
# outer loop


def test_outer_loop_feedforward_when_on_reference(plant):
    ref = TrackingReference(0.4, 3.0)
    # construct states with zero error in the respective coordinates
    t = 0.0
    law = law_descriptor(1)
    gains = pole_gains(-4.0, 3)
    x3 = math.asin(-ref.derivative(t, 2) / (plant.B * plant.G))
    x = (ref.derivative(t, 0), ref.derivative(t, 1), x3, 0.0)
    v = outer_loop_v(x, ref, t, law, gains, plant)
    assert v == pytest.approx(ref.derivative(t, 3), abs=1e-9)

    law = law_descriptor(2)
    gains = pole_gains(-3.0, 4)
    t = 0.4
    x3 = math.asin(-ref.derivative(t, 2) / (plant.B * plant.G))
    x4 = -ref.derivative(t, 3) / (plant.B * plant.G * math.cos(x3))
    x = (ref.derivative(t, 0), ref.derivative(t, 1), x3, x4)
    v = outer_loop_v(x, ref, t, law, gains, plant)
    assert v == pytest.approx(ref.derivative(t, 4), abs=1e-9)


def test_outer_loop_hand_value(plant):
    # from rest at the origin against the cosine peak:
    # v = 0 - (64 * (-0.4) + 48 * 0 + 12 * 0.4 * (2 pi / 3)^2)
    ref = TrackingReference(0.4, 3.0)
    expected = 25.6 - 4.8 * (2 * math.pi / 3) ** 2
    v = outer_loop_v((0, 0, 0, 0), ref, 0.0, law_descriptor(1), pole_gains(-4.0, 3), plant)
    assert v == pytest.approx(expected, rel=1e-12)


def test_outer_loop_order_mismatch(plant):
    ref = TrackingReference(0.4, 3.0)
    with pytest.raises(ValueError):
        outer_loop_v((0, 0, 0, 0), ref, 0.0, law_descriptor(1), pole_gains(-3.0, 4), plant)


@pytest.mark.parametrize("law", [*table_laws(), law_descriptor(3, g_modified=True)],
                         ids=["law1", "law2", "law3", "law3g"])
def test_one_outer_loop_sum_gives_the_arm_and_outer_loop_v(rng, plant, law):
    # _virtual_input is the outer-loop sum of both paths: on trees it is the sum from 0.0 in
    # j order that the arm's numerator holds, and that tree evaluates to outer_loop_v's float
    from switchlin.controllers import _STEP_TRIG, _virtual_input
    from switchlin.expr import Bindings, Parameter, StateVar, _emit, _substitute, evaluate

    ref, gains = TrackingReference(0.4, 3.0), pole_gains(-3.0, law.order)
    waves = (StateVar(7), StateVar(8))
    r = [Parameter(f"c{j}") * waves[_CYCLE[j % 4][1]] for j in range(law.order + 1)]
    alphas = [Parameter(f"alpha{j}") for j in range(law.order)]
    v = _virtual_input(alphas, [c.expr for c in law.coordinates], r)
    feedback = Constant(0.0)
    for alpha, coordinate, target in zip(alphas, law.coordinates, r):
        feedback = feedback + alpha * (coordinate.expr - target)
    assert v == r[-1] - feedback
    trees = [_substitute(e, _STEP_TRIG) for e in (law.coefficient.expr, -law.offset.expr + v)]
    (coefficient, numerator), names = _emit(trees, 10, f"p{law.law_id}_")
    arm, arm_names = law._control_body
    assert (arm[0], arm[3], arm_names) == (
        f"coefficient = {coefficient}", f"u = {numerator} / coefficient", names
    )
    omega, scales = _reference_scales(ref, law.order)
    params = dict(plant.symbol_values(), **{f"c{j}": c for j, c in enumerate(scales)})
    params.update({f"alpha{j}": a for j, a in enumerate(gains.alphas)})
    states, times = rng.uniform(-1.0, 1.0, size=(40, 4)).tolist(), rng.uniform(0.0, 30.0, 40)
    for x, t in zip(states, times.tolist()):
        at = Bindings(params, (*x, 0.0, 0.0, math.cos(omega * t), math.sin(omega * t)))
        assert evaluate(v, at).hex() == outer_loop_v(x, ref, t, law, gains, plant).hex()


def test_tracking_reference_derivatives_are_exact():
    ref = TrackingReference(0.4, 3.0)
    w = 2 * math.pi / 3
    for t in (0.0, 0.3, 1.2):
        assert ref.value(t) == pytest.approx(0.4 * math.cos(w * t), rel=1e-15)
        assert ref.derivative(t, 1) == pytest.approx(-0.4 * w * math.sin(w * t), abs=1e-15)
        assert ref.derivative(t, 4) == pytest.approx(0.4 * w**4 * math.cos(w * t), rel=1e-14)
    step = 1e-6
    for order in range(4):
        numeric = (ref.derivative(0.7 + step, order) - ref.derivative(0.7 - step, order)) / (
            2 * step
        )
        assert numeric == pytest.approx(ref.derivative(0.7, order + 1), rel=1e-7, abs=1e-6)


def _bits(values):
    return [struct.pack("d", v) for v in values]


@pytest.mark.parametrize("amplitude", [0.0, 0.4])
@pytest.mark.parametrize("period", [3.0, 0.7])
def test_reference_table_matches_derivatives_bit_for_bit(amplitude, period):
    # the compiled control's targets, rebuilt from the constants it binds:
    # scales[j] * (cos or sin)(omega t) with one cos and one sin per time.
    # Each entry, signed zeros included, is the one-at-a-time derivative
    ref = TrackingReference(amplitude, period)
    omega = 2.0 * math.pi / period
    for order in (3, 4, 7):
        bound_omega, scales = _reference_scales(ref, order)
        assert bound_omega == omega
        for t in np.linspace(0.0, 12.0, 601).tolist() + [1e-300, 2.5e-4, 1e6]:
            phase = omega * t
            waves = (math.cos(phase), math.sin(phase))
            table = [scale * waves[_CYCLE[j % 4][1]] for j, scale in enumerate(scales)]
            expected = [ref.derivative(t, j) for j in range(order + 1)]
            assert _bits(table) == _bits(expected)
            # and the derivative is the textbook cycle cos -> -sin -> -cos -> sin
            textbook = []
            for j in range(order + 1):
                scale = amplitude * omega**j
                textbook.append(
                    (
                        scale * math.cos(phase),
                        -scale * math.sin(phase),
                        -scale * math.cos(phase),
                        scale * math.sin(phase),
                    )[j % 4]
                )
            assert _bits(expected) == _bits(textbook)


def test_tracking_reference_validation():
    with pytest.raises(ValueError):
        TrackingReference(-0.1, 3.0)
    with pytest.raises(ValueError):
        TrackingReference(0.4, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda v: TrackingReference(v, 3.0),
        lambda v: TrackingReference(0.4, v),
        lambda v: SwitchThresholds(v, 0.08),
        lambda v: SwitchThresholds(0.05, v),
        lambda v: dataclasses.replace(benchmark_plant(), G=v),
        lambda v: PlantParams(M=v, R=1.0, J=1.0, Jb=1.0),
        lambda v: PlantParams(M=1.0, R=1.0, J=v, Jb=1.0),
    ],
    ids=["amplitude", "period", "eps1", "eps4", "G", "M", "J"],
)
def test_non_finite_parameters_are_rejected(build, bad):
    with pytest.raises(ValueError):
        build(bad)


# ---------------------------------------------------------------------------
# law descriptors


def _closed_form(law_id, x, v, plant):
    # u = (-b_i(x) + v) / a_i(x), written out by hand
    x1, x2, x3, x4 = x
    B, G = plant.B, plant.G
    if law_id == 1:
        return (-(B * x2 * x4**2 - B * G * x4 * math.cos(x3)) + v) / (2 * B * x1 * x4)
    if law_id == 2:
        return (-(B * G * x4**2 * math.sin(x3)) + v) / (-B * G * math.cos(x3))
    return v / (-B * G)


def test_descriptors_match_closed_forms(plant, rng):
    params = plant.symbol_values()
    for law_id in (1, 2, 3):
        descriptor = law_descriptor(law_id)
        count = 0
        while count < 200:
            x = tuple(rng.uniform(-1.5, 1.5, size=4))
            at_x = Bindings(params, x)
            margin = min((abs(f.field.evaluate(at_x)) for f in descriptor.factors), default=math.inf)
            if margin < 0.05:
                continue
            v = float(rng.uniform(-5, 5))
            assert descriptor.control(x, v, params) == pytest.approx(
                _closed_form(law_id, x, v, plant), rel=1e-12, abs=1e-12
            )
            count += 1


def test_descriptor_factor_labels():
    assert [f.label for f in law_descriptor(1).factors] == ["x1", "x4"]
    assert [f.label for f in law_descriptor(2).factors] == ["cos(x3)"]
    assert law_descriptor(3).factors == ()
    alt = law_descriptor(3, g_modified=True)
    assert len(alt.factors) == 1
    assert alt.name == "law3g"


def test_g_modified_variant_only_for_law3():
    with pytest.raises(ValueError):
        law_descriptor(1, g_modified=True)


def test_table_laws_names():
    assert [d.name for d in table_laws()] == ["law1", "law2", "law3"]


# ---------------------------------------------------------------------------
# closed-loop output jerk under law 1


def test_law1_closed_loop_third_derivative(plant):
    # integrate with law 1 and constant v, then difference the recorded
    # output three times: the measured jerk must equal v
    v = 0.5
    h = 1e-3
    x = (0.3, 0.0, 0.0, 0.5)
    positions = []
    for _ in range(400):
        u = apply_law(1, x, v, plant)
        positions.append(x[0])
        # continuous feedback: recompute the law inside the step stages
        x = rk4_step(lambda s: reduced_dynamics(s, apply_law(1, s, v, plant), plant), x, h)
    y = np.array(positions)
    jerk = (-0.5 * y[:-4] + y[1:-3] - y[3:-1] + 0.5 * y[4:]) / h**3
    tail = jerk[50:]
    assert np.max(np.abs(tail - v)) < 1e-3


def test_descriptor_needs_one_coordinate_per_order():
    import dataclasses

    law = law_descriptor(2)
    with pytest.raises(ValueError, match="4 output coordinates"):
        dataclasses.replace(law, coordinates=law.coordinates[:3])
    with pytest.raises(ValueError, match="3 output coordinates"):
        dataclasses.replace(law, order=3)


#: thresholds that force one arm of the supervised step: law 1 wherever
#: x1 != 0 and x4 != 0, law 2 wherever x4 != 0, law 3 on every finite state
_TINY, _HUGE = 5e-324, 1.7976931348623157e308
_FORCING = {
    1: SwitchThresholds(_TINY, _TINY),
    2: SwitchThresholds(_HUGE, _TINY),
    3: SwitchThresholds(_HUGE, _HUGE),
}


def _gains(laws):
    return [pole_gains(-3.0, law.order) for law in laws]


def _rk4_outcome(deriv, x, h):
    try:
        return _bits(rk4_step(deriv, x, h))
    except (IntegrationError, ValueError) as exc:
        return (type(exc), str(exc))


def _exact_supervised(laws, gains, ref, plant, thresholds):
    # (law_id, u, |cos x3|, step outcome)(x, t, h) by the reference path: the supervisor's
    # pick, exact descriptor evaluation of that law, then rk4_step on the called plant
    def step(x, t, h):
        law_id = supervisor(x, thresholds)
        law, law_gains = laws[law_id - 1], gains[law_id - 1]
        v = outer_loop_v(x, ref, t, law, law_gains, plant)
        u = law.control(x, v, plant.symbol_values())
        held = _rk4_outcome(lambda s: reduced_dynamics(s, u, plant), x, h)
        return law_id, u, abs(math.cos(x[2])), held

    return step


def _fused(laws, gains, ref, thresholds, plant, times=(0.0,)):
    # one run's closed-loop step, a record row per time and one more, recorded with no step
    return ClosedLoop(laws, gains, ref, thresholds, plant, np.array([*times, 0.0]))


def _fused_supervised(laws, gains, ref, plant, thresholds, times):
    # the same by the generated step, at the record row of t
    loop = _fused(laws, gains, ref, thresholds, plant, times)
    rows = {t: k for k, t in enumerate(times)}

    def step(x, t, h):
        loop.k = k = rows[t]
        held = _rk4_outcome(loop, x, h)  # after the record; a control failure propagates
        return int(loop.law[k]), float(loop.u[k]), float(loop.abscos3[k]), held

    return step


def _law_outcome(function, x, t, h=1e-3):
    try:
        law_id, u, abscos, held = function(x, t, h)
    except ArithmeticError as exc:
        return (type(exc), str(exc))
    return (law_id, *_bits([u, abscos]), held)


def test_supervised_control_checks_gain_order_once(plant):
    ref, laws = TrackingReference(0.4, 3.0), table_laws()
    gains = [pole_gains(-4.0, 3), *_gains(laws[1:])]
    with pytest.raises(ValueError, match="gain order"):
        _fused(laws, [pole_gains(-3.0, 4), *gains[1:]], ref, _FORCING[1], plant)
    loop = _fused(laws, gains, ref, _FORCING[1], plant, [0.7])
    x = (0.2, 0.1, 0.05, 0.5)
    v = outer_loop_v(x, ref, 0.7, laws[0], gains[0], plant)
    rk4_step(loop, x, 1e-3)
    assert (loop.law[0], loop.u[0]) == (1, apply_law(1, x, v, plant))
    with pytest.raises(SingularControlError):
        rk4_step(loop, (1e-310, 0.1, 0.05, 0.5), 1e-3)


@pytest.mark.parametrize("amplitude", [0.0, 0.4])
@pytest.mark.parametrize("law_id, g_modified", [(1, False), (2, False), (3, False), (3, True)])
def test_compiled_control_matches_exact_path_bit_for_bit(plant, amplitude, law_id, g_modified):
    # the thresholds force the descriptor's arm; rows they give another law check that law
    law = law_descriptor(law_id, g_modified=g_modified)
    laws = [*table_laws()[: law_id - 1], law, *table_laws()[law_id:]]
    gains, ref, thresholds = _gains(laws), TrackingReference(amplitude, 3.0), _FORCING[law_id]
    exact = _exact_supervised(laws, gains, ref, plant, thresholds)
    forced = {1: lambda x: x[0] != 0 and x[3] != 0, 2: lambda x: x[3] != 0, 3: lambda x: True}
    rng = np.random.default_rng(60 + law_id)
    states = rng.uniform(-1.5, 1.5, size=(500, 4))
    states[::50, 0] = 0.0  # on law 1's singular set, and signed zeros elsewhere
    states[25::50, 0] = 1e-310  # law 1's coefficient below the floor, not zero
    states[::70, 3] = -0.0
    times = rng.uniform(0.0, 30.0, size=500)
    times[::90] = 0.0
    fused = _fused_supervised(laws, gains, ref, plant, thresholds, times.tolist())
    singular = 0
    for x, t in zip(states.tolist(), times.tolist()):
        assert (supervisor(x, thresholds) == law_id) == forced[law_id](x)
        expected = _law_outcome(exact, x, t)
        assert _law_outcome(fused, x, t) == expected
        singular += expected[0] is SingularControlError
    assert (singular > 0) == (law_id == 1)  # only law 1 vanishes on these rows


def test_equal_descriptors_share_one_control_factory_entry(plant):
    from switchlin import expr

    laws = table_laws()
    law = laws[1]
    twin = dataclasses.replace(
        law, coefficient=parse(str(law.coefficient), 4), offset=parse(str(law.offset), 4)
    )
    assert twin == law and twin is not law and twin.coefficient is not law.coefficient
    assert hash(twin) == hash(law)
    gains, ref = _gains(laws), TrackingReference(0.4, 3.0)
    expr._compile.cache_clear()
    first = _fused((laws[0], twin, laws[2]), gains, ref, TH, plant)
    assert _fused(laws, gains, ref, TH, plant).step.__code__ is first.step.__code__
    info = expr._compile.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    assert twin != dataclasses.replace(law, name="other")


def test_signed_zero_descriptors_get_their_own_control_code(plant):
    # tree equality ignores the sign of a zero constant; the compiled code
    # does not, so the cache is keyed by the source
    from switchlin import expr

    laws = table_laws()
    negative = dataclasses.replace(laws[2], offset=ScalarField(Constant(-0.0), 4))
    assert negative == laws[2]
    family = (*laws[:2], negative)
    gains, ref, x = _gains(laws), TrackingReference(0.0, 3.0), (0.0, 0.0, 0.0, 0.0)
    thresholds = _FORCING[3]
    expr._compile.cache_clear()
    for _ in range(2):
        _fused(laws, gains, ref, thresholds, plant)
    assert expr._compile.cache_info().currsize == 1  # one for the shipped laws
    own = _fused(family, gains, ref, thresholds, plant).step.__code__
    assert own is not _fused(laws, gains, ref, thresholds, plant).step.__code__
    assert expr._compile.cache_info().currsize == 2
    times = [0.1 * k for k in range(30)]
    compiled = []
    for descriptors in (laws, family):
        fused = _fused_supervised(descriptors, gains, ref, plant, thresholds, times)
        exact = _exact_supervised(descriptors, gains, ref, plant, thresholds)
        outcomes = [_law_outcome(fused, x, t) for t in times]
        assert outcomes == [_law_outcome(exact, x, t) for t in times]
        compiled.append(outcomes)
    assert compiled[0] != compiled[1]


def test_a_descriptor_emits_its_control_once(monkeypatch, plant):
    # every run compiles its laws; each descriptor writes its source the first time only
    from switchlin import controllers

    laws = [dataclasses.replace(law) for law in table_laws()]  # fresh, never emitted
    emitted = []

    def counting_emit(exprs, *args, **options):
        emitted.append(len(exprs))
        return emit(exprs, *args, **options)

    emit = controllers._emit
    monkeypatch.setattr(controllers, "_emit", counting_emit)
    gains, ref = _gains(laws), TrackingReference(0.4, 3.0)
    for _ in range(3):
        _fused(laws, gains, ref, TH, plant)
    # the coefficient and the numerator, once per descriptor
    assert emitted == [2, 2, 2]


def test_compiled_control_tells_signed_zero_plants_apart():
    # G = 0.0 and G = -0.0 give law 2 coefficients of opposite zero sign;
    # the compiled code must not be shared between the two plants
    laws = table_laws()
    gains, ref = _gains(laws), TrackingReference(0.4, 3.0)
    x = (0.3, 0.0, 0.1, 0.0)
    assert supervisor(x, TH) == 2
    messages = []
    for g in (0.0, -0.0, 0.0):
        plant = dataclasses.replace(benchmark_plant(), G=g)
        fused = _fused_supervised(laws, gains, ref, plant, TH, [0.5])
        expected = _law_outcome(_exact_supervised(laws, gains, ref, plant, TH), x, 0.5)
        assert _law_outcome(fused, x, 0.5) == expected
        messages.append(expected[1])
    assert messages[0] == messages[2] != messages[1]


@pytest.mark.parametrize("gravity", [9.81, 0.0], ids=["plant", "no-gravity"])
def test_supervised_control_is_the_supervisor_over_the_exact_laws(gravity):
    # seeded states around the operating point, and every pair of edge values
    # of x1 and x4: signed zeros, the thresholds themselves, NaN and infinities
    plant = dataclasses.replace(benchmark_plant(), G=gravity)
    ref = TrackingReference(0.4, 3.0)
    laws = table_laws()
    gains = [pole_gains(pole, law.order) for law, pole in zip(laws, (-4.0, -3.0, -2.5))]
    exact = _exact_supervised(laws, gains, ref, plant, TH)
    rng = np.random.default_rng(62)
    states = rng.uniform(-0.2, 0.2, size=(400, 4)).tolist()
    edges = [0.0, -0.0, TH.eps1, -TH.eps1, TH.eps4, -TH.eps4, math.nan, math.inf, -math.inf]
    states += [[x1, 0.1, 0.05, x4] for x1 in edges for x4 in edges]
    times = rng.uniform(0.0, 30.0, size=len(states)).tolist()
    fused = _fused_supervised(laws, gains, ref, plant, TH, times)
    seen = set()
    for x, t in zip(states, times):
        law_id = supervisor(x, TH)
        seen.add(law_id)
        expected = _law_outcome(exact, x, t)
        assert _law_outcome(fused, x, t) == expected
        if gravity == 0.0 and law_id != 1:  # both coefficients carry G
            assert expected[0] is SingularControlError
    assert seen == {1, 2, 3}


def test_supervised_control_checks_its_laws(supervise, plant):
    # any law the table selects must be given, once, and each law's gains must match its order
    laws = table_laws()
    gains = [pole_gains(-3.0, law.order) for law in laws]
    ref = TrackingReference(0.4, 3.0)
    with pytest.raises(ValueError, match="selects laws not given: 3$"):
        _fused(laws[:2], gains[:2], ref, TH, plant)
    with pytest.raises(ValueError, match="not given: 1, 3$"):
        _fused(laws[1:2], gains[1:2], ref, TH, plant)
    with pytest.raises(ValueError, match="law 2 is given twice"):
        _fused([*laws, laws[1]], [*gains, gains[1]], ref, TH, plant)
    with pytest.raises(ValueError, match="gain order"):
        _fused(laws, gains[::-1], ref, TH, plant)
    _fused(laws[::-1], gains[::-1], ref, TH, plant)  # keyed by law_id, in any order
    supervise(2, 2, 2, 2)
    _fused(laws[1:2], gains[1:2], ref, TH, plant)


def _generated_step(monkeypatch, laws, plant):
    # the closed-loop step's make, parsed
    import ast

    from switchlin import sim

    sources, compile_ = [], sim._compile

    def recording(source, *args, **names):
        sources.append(source)
        return compile_(source, *args, **names)

    monkeypatch.setattr(sim, "_compile", recording)
    _fused(laws, _gains(laws), TrackingReference(0.4, 3.0), TH, plant)
    (source,) = sources
    return ast.parse(source).body[0]


@pytest.mark.parametrize("g_modified", [False, True], ids=["law3", "law3g"])
def test_generated_control_computes_each_value_once(monkeypatch, plant, g_modified):
    import ast

    laws = (*table_laws()[:2], law_descriptor(3, g_modified=g_modified))
    for law in laws:
        arm, _ = law._control_body
        text = "\n".join(arm)
        assert "sin(" not in text and "cos(" not in text  # x9 = sin x3 and x10 = cos x3 are read
        # the arm is the coefficient, the floor check, the division and the law
        assert [line.split()[0] for line in arm] == ["coefficient", "if", "raise", "u", "law"]
        assert arm[3].endswith(" / coefficient") and arm[4] == f"law = {law.law_id}"
    # make binds its arguments and defines the step, and runs nothing else
    make = _generated_step(monkeypatch, laws, plant)
    assert [type(node) for node in make.body] == [ast.FunctionDef, ast.Return]


@pytest.mark.parametrize("g_modified", [False, True], ids=["law3", "law3g"])
def test_the_step_computes_sin_and_cos_of_x3_once_on_every_path(monkeypatch, plant, g_modified):
    # one call each, ahead of the supervisor's branch; each arm, the record and RK4 stage a
    # read the shared values
    import ast

    laws = (*table_laws()[:2], law_descriptor(3, g_modified=g_modified))
    (step,) = [
        node
        for node in _generated_step(monkeypatch, laws, plant).body
        if isinstance(node, ast.FunctionDef)
    ]
    head = step.body[: [isinstance(node, ast.If) for node in step.body].index(True)]
    branch, tail = step.body[len(head)], step.body[len(head) + 1 :]
    calls = [ast.unparse(n) for n in ast.walk(step) if isinstance(n, ast.Call)]
    head_calls = [ast.unparse(n) for s in head for n in ast.walk(s) if isinstance(n, ast.Call)]
    for name in ("sin", "cos"):
        assert calls.count(f"{name}(x3)") == head_calls.count(f"{name}(x3)") == 1
    arms = [branch.body, branch.orelse[0].body, branch.orelse[0].orelse]
    for part in [*arms, tail]:
        read = {n.id for s in part for n in ast.walk(s) if isinstance(n, ast.Name)}
        assert {"x9", "x10"} <= read


def _on_and_beyond(eps):
    return (eps, -eps, math.nextafter(eps, 1.0), math.nextafter(-eps, -1.0), 0.0, -0.0)


@pytest.mark.parametrize("gravity", [9.81, -0.0], ids=["plant", "G=-0.0"])
@pytest.mark.parametrize("g_modified", [False, True], ids=["law3", "law3g"])
def test_generated_control_matches_the_exact_path_on_boundary_states(gravity, g_modified):
    # 2,500 states per plant and family, 10^4 in all: seeded around the operating point,
    # with x1 and x4 on and just beyond the supervisor's thresholds
    plant = dataclasses.replace(benchmark_plant(), G=gravity)
    laws = (*table_laws()[:2], law_descriptor(3, g_modified=g_modified))
    gains = [pole_gains(pole, law.order) for law, pole in zip(laws, (-4.0, -3.0, -2.5))]
    ref = TrackingReference(0.4, 3.0)
    exact = _exact_supervised(laws, gains, ref, plant, TH)
    rng = np.random.default_rng(19 + g_modified + 2 * (gravity == 0.0))
    states = rng.uniform(-0.3, 0.3, size=(2500, 4))
    states[:, 2] *= 5.0  # x3 up to 1.5 rad, near law 2's singularity
    edges = [(x1, x4) for x1 in _on_and_beyond(TH.eps1) for x4 in _on_and_beyond(TH.eps4)]
    states[: 10 * len(edges), [0, 3]] = np.tile(edges, (10, 1))
    times = rng.uniform(0.0, 30.0, size=len(states))
    fused = _fused_supervised(laws, gains, ref, plant, TH, times.tolist())
    laws_seen = set()
    for x, t in zip(states.tolist(), times.tolist()):
        expected = _law_outcome(exact, x, t)
        assert _law_outcome(fused, x, t) == expected
        laws_seen.add(supervisor(x, TH))
    assert laws_seen == {1, 2, 3}


@pytest.mark.parametrize(
    "table",
    [(2, 2, 2, 3), (3, 3, 3, 3), (2, 2, 2, 2), (1, 1, 2, 2)],
    ids=["2/3/2", "3/3/3", "2/2/2", "1 when the ball is out, else 2"],
)
def test_generated_branch_is_the_supervisor_under_any_table(monkeypatch, supervise, plant, table):
    # the step written from a substituted table: the supervisor's pick and its exact law, bit
    # for bit, on seeded states and every pair of edge values of x1 and x4
    supervise(*table)
    laws = table_laws()
    gains = [pole_gains(pole, law.order) for law, pole in zip(laws, (-4.0, -3.0, -2.5))]
    ref = TrackingReference(0.4, 3.0)
    exact = _exact_supervised(laws, gains, ref, plant, TH)
    rng = np.random.default_rng(26)
    states = rng.uniform(-0.2, 0.2, size=(200, 4)).tolist()
    edges = [*_on_and_beyond(TH.eps1), *_on_and_beyond(TH.eps4), math.nan, math.inf, -math.inf]
    states += [[x1, 0.1, 0.05, x4] for x1 in edges for x4 in edges]
    times = rng.uniform(0.0, 30.0, size=len(states)).tolist()
    fused = _fused_supervised(laws, gains, ref, plant, TH, times)
    seen = set()
    for x, t in zip(states, times):
        seen.add(supervisor(x, TH))
        assert _law_outcome(fused, x, t) == _law_outcome(exact, x, t)
    assert seen == set(table)
    import ast

    branched = "ball_out" in ast.unparse(_generated_step(monkeypatch, laws, plant))
    assert branched == (len(set(table)) > 1)  # one law everywhere: no branch
