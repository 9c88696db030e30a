import math

import numpy as np
import pytest

from switchlin.ballbeam import (
    PlantParams,
    benchmark_plant,
    full_dynamics,
    reduced_dynamics,
    symbolic_system,
    torque_from_u,
)
from switchlin.expr import Constant
from switchlin.geometry import derivative_chain


def test_benchmark_plant_mass_ratio():
    p = benchmark_plant()
    assert abs(p.B - 5 / 7) < 1e-12


def test_plant_params_validation():
    with pytest.raises(ValueError):
        PlantParams(M=0.0, R=0.01, J=0.02, Jb=2e-6)
    # R^2 underflows to 0, or overflows
    for radius in (1e-300, 1e200):
        with pytest.raises(ValueError, match=r"^plant parameter R must keep R\^2 inside the float"):
            PlantParams(M=0.05, R=radius, J=0.02, Jb=2e-6)
    # Jb/R^2 overflows to inf, so B would be 0; at R = 1e-155 it is tiny but positive
    with pytest.raises(ValueError, match=r"^plant parameters must give a positive B = M / \(M"):
        PlantParams(M=0.05, R=1e-160, J=0.02, Jb=2e-6)
    assert 0 < PlantParams(M=0.05, R=1e-155, J=0.02, Jb=2e-6).B < 1e-305


def test_reduced_dynamics_equilibrium():
    p = benchmark_plant()
    assert reduced_dynamics((0.0, 0.0, 0.0, 0.0), 0.0, p) == (0.0, 0.0, 0.0, 0.0)


def test_reduced_dynamics_centrifugal_term():
    p = benchmark_plant()
    dx = reduced_dynamics((1.0, 0.0, 0.0, 2.0), 0.0, p)
    # hand substitution: x2dot = B * 1 * 4 = 20/7
    assert dx == pytest.approx((0.0, 20 / 7, 2.0, 0.0), rel=1e-12)


def test_reduced_dynamics_gravity_term():
    p = benchmark_plant()
    dx = reduced_dynamics((0.0, 0.0, math.pi / 2, 0.0), 1.0, p)
    assert dx[0] == 0.0
    assert dx[1] == pytest.approx(-(5 / 7) * 9.81, rel=1e-12)
    assert dx[2] == 0.0
    assert dx[3] == 1.0


def test_reduced_dynamics_without_gravity():
    p = PlantParams(M=0.05, R=0.01, J=0.02, Jb=2e-6, G=0.0)
    for x3 in (0.0, 0.7, -2.0):
        dx = reduced_dynamics((0.5, 0.0, x3, 1.5), 0.0, p)
        assert dx[1] == pytest.approx(p.B * 0.5 * 1.5**2, rel=1e-12)


def test_full_dynamics_equilibrium():
    p = benchmark_plant()
    assert full_dynamics((0.0, 0.0, 0.0, 0.0), 0.0, p) == (0.0, 0.0, 0.0, 0.0)


def test_full_dynamics_unit_beam_acceleration():
    p = benchmark_plant()
    dx = full_dynamics((0.0, 0.0, 0.0, 0.0), p.J + p.Jb, p)
    assert dx[3] == pytest.approx(1.0, rel=0, abs=0)


def test_full_dynamics_ball_acceleration():
    p = benchmark_plant()
    dx = full_dynamics((1.0, 0.0, 0.0, 2.0), 0.0, p)
    assert dx[1] == pytest.approx(20 / 7, rel=1e-12)


def test_torque_at_rest_with_unit_input():
    p = benchmark_plant()
    assert torque_from_u((0.0, 0.0, 0.0, 0.0), 1.0, p) == pytest.approx(
        0.020002, rel=1e-12
    )


def test_torque_gravity_moment():
    p = benchmark_plant()
    assert torque_from_u((0.1, 0.0, 0.0, 0.0), 0.0, p) == pytest.approx(
        0.04905, rel=1e-12
    )


def test_preliminary_feedback_composition(rng):
    # the exact algebraic cancellation survives floating point to < 1e-12
    p = benchmark_plant()
    for _ in range(1000):
        x = tuple(rng.uniform(-2, 2, size=4))
        u = float(rng.uniform(-10, 10))
        tau = torque_from_u(x, u, p)
        full = full_dynamics(x, tau, p)
        reduced = reduced_dynamics(x, u, p)
        assert abs(full[3] - u) < 1e-12
        assert abs(full[1] - reduced[1]) < 1e-12
        assert full[:3] == reduced[:3]


def test_symbolic_system_structure(plant):
    system = symbolic_system(plant)
    assert [c for c in system.g.components] == [
        Constant(0),
        Constant(0),
        Constant(0),
        Constant(1),
    ]
    assert str(system.h) == "x1"
    assert system.params["G"] == 9.81


def test_symbolic_chain_matches_numeric_dynamics(plant, rng):
    system = symbolic_system(plant)
    chain = derivative_chain(system, 3)
    states = rng.uniform(-2, 2, size=(200, 4))
    a_vals = chain.a.evaluate_many(plant.symbol_values(), states)
    np.testing.assert_allclose(
        a_vals, 2 * plant.B * states[:, 0] * states[:, 3], rtol=1e-12, atol=1e-12
    )


def test_symbolic_system_matches_reduced_dynamics(plant, rng):
    from switchlin.expr import Bindings

    system = symbolic_system(plant)
    for _ in range(100):
        x = tuple(rng.uniform(-2, 2, size=4))
        symbolic = system.f.evaluate(Bindings(system.params, x))
        numeric = reduced_dynamics(x, 0.0, plant)
        np.testing.assert_allclose(symbolic[:3], numeric[:3], rtol=1e-12, atol=1e-15)
        assert symbolic[3] == 0.0


def test_symbolic_system_without_plant_keeps_parameters_free():
    system = symbolic_system()
    assert system.params == {}


def test_ball_equation_is_written_once(rng):
    # law 1's third coordinate is the field reduced_dynamics is generated
    # from, and the generated derivative rounds as the hand-written formula
    from switchlin.ballbeam import BALL_ACCELERATION, REDUCED_FIELD
    from switchlin.controllers import law_descriptor
    from switchlin.expr import _emit

    assert law_descriptor(1).coordinates[2] is BALL_ACCELERATION
    assert REDUCED_FIELD[1] is BALL_ACCELERATION.expr
    sources, names = _emit(REDUCED_FIELD, 5)
    assert sources == ["x2", "(p0 * (((x1 * x4) * x4) - (p1 * sin(x3))))", "x4", "x5"]
    assert names == {"B": "p0", "G": "p1"}
    states = rng.uniform(-3.0, 3.0, size=(500, 4))
    states[::50] = -0.0
    inputs = rng.uniform(-50.0, 50.0, size=500)
    for g in (9.81, 0.0, -0.0):
        p = PlantParams(M=0.05, R=0.01, J=0.02, Jb=2e-6, G=g)
        for (x1, x2, x3, x4), u in zip(states.tolist(), inputs.tolist()):
            expected = (x2, p.B * (x1 * x4 * x4 - p.G * math.sin(x3)), x4, u)
            got = reduced_dynamics((x1, x2, x3, x4), u, p)
            assert [v.hex() for v in got] == [v.hex() for v in expected]
