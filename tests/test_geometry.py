import math

import numpy as np
import pytest

from switchlin import geometry
from switchlin.ballbeam import symbolic_system
from switchlin.expr import (
    Bindings,
    Constant,
    ScalarField,
    StateVar,
    VectorField,
    parse,
)
from switchlin.geometry import (
    ControlAffineSystem,
    ad_power,
    derivative_chain,
    involutivity_witness,
    lie_bracket,
    lie_derivative,
    matrix_rank,
    relative_degree_at,
    transversality_rank,
)

X1, X2, X3, X4 = StateVar(1), StateVar(2), StateVar(3), StateVar(4)


def _eval_vector(field, params, x):
    return np.array(field.evaluate(Bindings(params, tuple(x))))


def _eval_scalar(field, params, x):
    return field.evaluate(Bindings(params, tuple(x)))


# ---------------------------------------------------------------------------
# Lie derivatives


def test_lie_derivative_first_output(bb):
    assert lie_derivative(bb.h, bb.f).expr == X2


def test_lie_derivative_second_output_matches_closed_form(bb, params, rng):
    second = lie_derivative(lie_derivative(bb.h, bb.f), bb.f)
    states = rng.uniform(-2, 2, size=(200, 4))
    values = second.evaluate_many(params, states)
    expected = params["B"] * (
        states[:, 0] * states[:, 3] ** 2 - params["G"] * np.sin(states[:, 2])
    )
    np.testing.assert_allclose(values, expected, rtol=1e-12, atol=1e-12)


def test_lie_derivative_along_zero_field(bb):
    zero = VectorField.of(0, 0, 0, 0)
    assert lie_derivative(parse("x1*x4^2 + cos(x3)", 4), zero).is_zero()


def test_lie_derivative_dimension_mismatch(bb):
    with pytest.raises(ValueError):
        lie_derivative(parse("x1", 2), bb.f)


def test_leibniz_rule(bb, params, rng):
    # L_v(phi psi) = phi L_v(psi) + psi L_v(phi)
    phi = parse("x1*x4 + sin(x3)", 4)
    psi = parse("x2^2 - cos(x3)", 4)
    product = ScalarField(phi.expr * psi.expr, 4)
    lhs = lie_derivative(product, bb.f)
    d_phi = lie_derivative(phi, bb.f)
    d_psi = lie_derivative(psi, bb.f)
    for x in rng.uniform(-2, 2, size=(200, 4)):
        at_x = Bindings(params, tuple(x))
        rhs = phi.evaluate(at_x) * d_psi.evaluate(at_x) + psi.evaluate(at_x) * d_phi.evaluate(at_x)
        assert abs(lhs.evaluate(at_x) - rhs) < 1e-9


# ---------------------------------------------------------------------------
# Lie brackets


def test_bracket_f_g_closed_form(bb, params, rng):
    bracket = lie_bracket(bb.f, bb.g)
    for x in rng.uniform(-2, 2, size=(50, 4)):
        value = _eval_vector(bracket, params, x)
        expected = np.array([0.0, -2 * params["B"] * x[0] * x[3], -1.0, 0.0])
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12)


def test_bracket_of_field_with_itself_is_symbolically_zero(bb):
    bracket = lie_bracket(bb.f, bb.f)
    assert all(ScalarField(c, 4).is_zero() for c in bracket.components)


def test_bracket_g_ad2g_closed_form(bb, params, rng):
    ad2 = ad_power(bb.f, bb.g, 2)
    bracket = lie_bracket(bb.g, ad2)
    for x in rng.uniform(-2, 2, size=(50, 4)):
        value = _eval_vector(bracket, params, x)
        expected = np.array(
            [2 * params["B"] * x[0], -2 * params["B"] * x[1], 0.0, 0.0]
        )
        np.testing.assert_allclose(value, expected, rtol=0, atol=1e-12)


def test_bracket_antisymmetry_and_bilinearity(params, rng):
    f = VectorField.of(X2 * X4, parse("sin(x3)", 4).expr, X1 * X1, X2)
    g = VectorField.of(X3, X1 * X4, parse("cos(x1)", 4).expr, Constant(1))
    fg = lie_bracket(f, g)
    gf = lie_bracket(g, f)
    a, b = 1.75, -0.6
    combined = VectorField(
        tuple(a * fc + b * gc for fc, gc in zip(f.components, g.components))
    )
    lhs = lie_bracket(combined, g)
    for x in rng.uniform(-2, 2, size=(500, 4)):
        at_x = Bindings({}, tuple(x))
        fg_val = np.array(fg.evaluate(at_x))
        gf_val = np.array(gf.evaluate(at_x))
        np.testing.assert_allclose(fg_val, -gf_val, rtol=0, atol=1e-9)
        lhs_val = np.array(lhs.evaluate(at_x))
        rhs_val = a * fg_val + b * np.array(lie_bracket(g, g).evaluate(at_x))
        np.testing.assert_allclose(lhs_val, rhs_val, rtol=0, atol=1e-9)


def test_jacobi_identity(rng):
    f = VectorField.of(X2 * X2, X3, X1 * X2)
    g = VectorField.of(X3, X1 * X1, X2)
    h = VectorField.of(X1 * X3, X2, X1)
    total = [
        lie_bracket(f, lie_bracket(g, h)),
        lie_bracket(g, lie_bracket(h, f)),
        lie_bracket(h, lie_bracket(f, g)),
    ]
    for x in rng.uniform(-2, 2, size=(100, 3)):
        at_x = Bindings({}, tuple(x))
        value = sum(np.array(t.evaluate(at_x)) for t in total)
        np.testing.assert_allclose(value, np.zeros(3), rtol=0, atol=1e-8)


# ---------------------------------------------------------------------------
# iterated brackets against a finite-difference oracle


def _numeric_field(field, params):
    def fn(x):
        return np.array(field.evaluate(Bindings(params, tuple(x))))

    return fn


def _numeric_jacobian(fn, x, step):
    n = len(x)
    columns = []
    for i in range(n):
        shift = np.zeros(n)
        shift[i] = step
        columns.append((fn(x + shift) - fn(x - shift)) / (2 * step))
    return np.column_stack(columns)


def _numeric_bracket(fn_f, fn_g, step):
    def fn(x):
        return _numeric_jacobian(fn_g, x, step) @ fn_f(x) - _numeric_jacobian(
            fn_f, x, step
        ) @ fn_g(x)

    return fn


def test_ad_power_base_cases(bb):
    assert ad_power(bb.f, bb.g, 0) is bb.g
    ad1 = ad_power(bb.f, bb.g, 1)
    assert ad1 == lie_bracket(bb.f, bb.g)
    with pytest.raises(ValueError):
        ad_power(bb.f, bb.g, -1)


def test_ad_power_two_matches_nested_numeric_brackets(bb, params, rng):
    symbolic = ad_power(bb.f, bb.g, 2)
    fn_f = _numeric_field(bb.f, params)
    fn_g = _numeric_field(bb.g, params)
    inner = _numeric_bracket(fn_f, fn_g, step=1e-5)
    outer = _numeric_bracket(fn_f, inner, step=1e-4)
    for x in rng.uniform(-1.5, 1.5, size=(25, 4)):
        expected = outer(np.asarray(x, dtype=float))
        value = _eval_vector(symbolic, params, x)
        np.testing.assert_allclose(value, expected, rtol=1e-4, atol=1e-4)


# ---------------------------------------------------------------------------
# derivative chain


def test_chain_order_three(bb, params, rng):
    chain = derivative_chain(bb, 3)
    states = rng.uniform(-2, 2, size=(300, 4))
    a_vals = chain.a.evaluate_many(params, states)
    b_vals = chain.b.evaluate_many(params, states)
    B, G = params["B"], params["G"]
    np.testing.assert_allclose(
        a_vals, 2 * B * states[:, 0] * states[:, 3], rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        b_vals,
        B * states[:, 1] * states[:, 3] ** 2
        - B * G * states[:, 3] * np.cos(states[:, 2]),
        rtol=1e-12,
        atol=1e-12,
    )
    assert chain.uniform


def test_chain_lower_orders_have_zero_coefficient(bb):
    assert derivative_chain(bb, 1).a.is_zero()
    assert derivative_chain(bb, 2).a.is_zero()


def test_chain_order_validation(bb):
    with pytest.raises(ValueError):
        derivative_chain(bb, 0)
    with pytest.raises(ValueError):
        derivative_chain(bb, 5)


# ---------------------------------------------------------------------------
# relative degree


def _double_integrator():
    f = VectorField((StateVar(2), Constant(0)))
    g = VectorField((Constant(0), Constant(1)))
    return ControlAffineSystem(f=f, g=g, h=parse("x1", 2))


def test_relative_degree_regular_point(bb):
    assert relative_degree_at(bb, (1, 0, 0, 1)) == 3


def test_relative_degree_undefined_on_singular_set(bb):
    assert relative_degree_at(bb, (0, 0, 0, 0)) is None
    assert relative_degree_at(bb, (1, 1, 1, 0)) is None


def test_relative_degree_double_integrator(rng):
    system = _double_integrator()
    for x in rng.uniform(-5, 5, size=(10, 2)):
        assert relative_degree_at(system, tuple(x)) == 2


def test_relative_degree_sampling_fallback():
    # first input coefficient is sin^2 + cos^2 - 1: identically zero but
    # not syntactically, so the neighbourhood-sampling heuristic decides
    vanishing = parse("sin(x1)^2 + cos(x1)^2 - 1", 2).expr
    system = ControlAffineSystem(
        f=VectorField((StateVar(2), Constant(0))),
        g=VectorField((vanishing, Constant(1))),
        h=parse("x1", 2),
    )
    assert relative_degree_at(system, (0.3, -0.7)) == 2


def test_relative_degree_invariant_under_output_scaling(bb, rng):
    for c in (2.0, -3.5, 0.25):
        scaled = ControlAffineSystem(
            f=bb.f, g=bb.g, h=ScalarField(c * bb.h.expr, 4), params=bb.params
        )
        for x in [(1, 0, 0, 1), (0.3, -1, 0.5, -0.7), (-2, 0.1, 0.2, 1.5)]:
            assert relative_degree_at(scaled, x) == relative_degree_at(bb, x)


# ---------------------------------------------------------------------------
# involutivity witness


def _gaussian_rank(matrix, tol=1e-9):
    # independent elimination-based rank for cross-checking the SVD path
    m = np.array(matrix, dtype=float)
    rank = 0
    rows, cols = m.shape
    scale = max(np.max(np.abs(m)), 1.0)
    for col in range(cols):
        pivot = None
        for row in range(rank, rows):
            if abs(m[row, col]) > tol * scale:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        m[rank] = m[rank] / m[rank, col]
        for row in range(rows):
            if row != rank:
                m[row] -= m[row, col] * m[rank]
        rank += 1
    return rank


def test_involutivity_witness_generic_point(bb, params):
    w = involutivity_witness(bb, (1, 1, 0, 1))
    B = params["B"]
    np.testing.assert_allclose(
        w.bracket_value, (2 * B, -2 * B, 0.0, 0.0), rtol=0, atol=1e-12
    )
    assert (w.rank_without, w.rank_with) == (3, 4)
    assert w.rank_rises


def test_involutivity_witness_origin(bb):
    w = involutivity_witness(bb, (0, 0, 0, 0))
    np.testing.assert_allclose(w.bracket_value, np.zeros(4), rtol=0, atol=1e-15)
    assert not w.rank_rises


def test_involutivity_witness_axis_point(bb, params):
    w = involutivity_witness(bb, (1, 0, 0, 0))
    np.testing.assert_allclose(
        w.bracket_value, (2 * params["B"], 0.0, 0.0, 0.0), rtol=0, atol=1e-15
    )
    assert w.rank_rises


def test_involutivity_ranks_match_elimination_oracle(bb, params, rng):
    ad1 = ad_power(bb.f, bb.g, 1)
    ad2 = ad_power(bb.f, bb.g, 2)
    bracket = lie_bracket(bb.g, ad2)
    for x in rng.uniform(-2, 2, size=(40, 4)):
        w = involutivity_witness(bb, tuple(x))
        columns = [
            _eval_vector(bb.g, params, x),
            _eval_vector(ad1, params, x),
            _eval_vector(ad2, params, x),
        ]
        assert w.rank_without == _gaussian_rank(np.column_stack(columns))
        columns.append(_eval_vector(bracket, params, x))
        assert w.rank_with == _gaussian_rank(np.column_stack(columns))


def test_involutivity_requires_dim_four():
    with pytest.raises(ValueError):
        involutivity_witness(_double_integrator(), (0, 0))


def test_each_system_derives_its_chain_and_bracket_tower_once(plant, monkeypatch):
    # the probes read one derivation per system instead of re-deriving per point
    calls = {"derivative_chain": 0, "lie_bracket": 0}

    def counting(name):
        original = getattr(geometry, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(geometry, name, counting(name))
    system = symbolic_system(plant)
    probes = [(1, 0, 0, 1), (0, 0, 0, 0), (0.3, 0.1, 0.2, -0.5)]
    degrees = [relative_degree_at(system, x) for x in probes]
    assert degrees == [3, None, 3]
    assert calls == {"derivative_chain": 1, "lie_bracket": 0}
    probes = [(1, 1, 0, 1), (0, 0, 0, 0), (1, 0, 0, 0), (0.5, -0.2, 0.4, 0.3)]
    witnesses = [involutivity_witness(system, x) for x in probes]
    assert [w.rank_rises for w in witnesses] == [True, False, True, True]
    assert calls == {"derivative_chain": 1, "lie_bracket": 3}
    assert system.bracket_tower[2] == lie_bracket(system.g, ad_power(system.f, system.g, 2))


# ---------------------------------------------------------------------------
# transversality rank


def test_transversality_rank_examples():
    assert transversality_rank([(1, 0, 0, 0), (0, 0, 0, 1)]) == 2
    assert transversality_rank([(1, 0, 0, 0), (1, 0, 0, 0)]) == 1
    s = math.sin(math.pi / 4)
    assert transversality_rank([(1, 0, 0, 0), (0, 0, 0, 1), (0, 0, -s, 0)]) == 3


def test_transversality_rank_edge_cases():
    assert transversality_rank([]) == 0
    assert transversality_rank([(0.0, 0.0)]) == 0
    with pytest.raises(ValueError):
        transversality_rank([(1, 0), (1, 0, 0)])


def test_matrix_rank_relative_threshold():
    # second singular value 1e-8 relative: above the 1e-9 cutoff
    m = np.diag([1.0, 1e-8])
    assert matrix_rank(m) == 2
    m = np.diag([1.0, 1e-10])
    assert matrix_rank(m) == 1


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_matrix_rank_rejects_a_non_finite_entry(entry):
    with pytest.raises(ValueError, match="non-finite entry"):
        matrix_rank(np.array([[1.0, 0.0], [0.0, entry]]))


def test_matrix_rank_of_a_stack_ranks_each_matrix_alone(rng):
    stack = rng.normal(size=(6, 3, 4))
    stack[1] = 0.0
    stack[2, 2] = stack[2, 0] + stack[2, 1]
    stack[3] = [[1.0, 0, 0, 0], [0, 1e-10, 0, 0], [0, 0, 0, 0]]
    stack[4] = [[1.0, 0, 0, 0], [0, 1e-8, 0, 0], [0, 0, 0, 0]]
    ranks = matrix_rank(stack)
    assert ranks.tolist() == [matrix_rank(m) for m in stack] == [3, 0, 2, 1, 2, 3]
    assert matrix_rank(stack.reshape(2, 3, 3, 4)).tolist() == [[3, 0, 2], [1, 2, 3]]
    assert type(matrix_rank(stack[0])) is int and type(matrix_rank(stack[1])) is int
    assert matrix_rank(np.empty((0, 3, 4))).tolist() == []
    assert matrix_rank(np.empty((2, 0, 4))).tolist() == [0, 0]
    stack[5, 1, 2] = math.nan
    with pytest.raises(ValueError, match="non-finite entry"):
        matrix_rank(stack)
