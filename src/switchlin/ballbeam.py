"""Ball-and-beam plant: full Lagrangian dynamics and the reduced model.

A beam pivots in a vertical plane under an applied torque while a ball
rolls without slipping along it.  State x = (x1, x2, x3, x4) = (r, rdot,
theta, thetadot): ball position along the beam [m], its velocity [m/s],
beam angle [rad], beam rate [rad/s].

With B = M / (M + Jb/R^2) the equations of motion reduce to

    x1dot = x2
    x2dot = B (x1 x4^2 - G sin x3)
    x3dot = x4
    x4dot = u

after the preliminary torque feedback tau = 2 M r rdot thetadot
+ M G r cos(theta) + (M r^2 + J + Jb) u, which turns the beam equation
into thetaddot = u exactly.  For a rolling solid sphere Jb = (2/5) M R^2,
so B = 5/7.

The ball equation is written once, as :data:`BALL_ACCELERATION`:
:func:`reduced_dynamics` evaluates it with the exact tree evaluator, and
law 1's third output coordinate and the simulator's generated RK4 step
are built from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .expr import Bindings, Parameter, ScalarField, Sin, StateVar, VectorField, evaluate, parse
from .geometry import ControlAffineSystem

__all__ = [
    "BALL_ACCELERATION",
    "PlantParams",
    "benchmark_plant",
    "full_dynamics",
    "reduced_dynamics",
    "symbolic_system",
    "torque_from_u",
]


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the ball-and-beam.

    Attributes:
        M: ball mass [kg]
        R: ball radius [m]
        J: beam moment of inertia about the pivot [kg m^2]
        Jb: ball moment of inertia about its centre [kg m^2]
        G: gravitational acceleration [m/s^2]
    """

    M: float
    R: float
    J: float
    Jb: float
    G: float = 9.81

    def __post_init__(self):
        for name in ("M", "R", "J", "Jb"):
            if not getattr(self, name) > 0:
                raise ValueError(f"plant parameter {name} must be positive")
        if self.G < 0:
            # zero gravity is allowed: it isolates the centrifugal term
            raise ValueError("plant parameter G must be non-negative")
        for name in ("M", "R", "J", "Jb", "G"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"plant parameter {name} must be finite")
        try:
            positive = self.B > 0
        except ArithmeticError:  # R^2 overflows, or underflows to zero
            raise ValueError("plant parameter R must keep R^2 inside the float range") from None
        if not positive:  # Jb/R^2 overflows, or the ratio underflows to zero
            raise ValueError("plant parameters must give a positive B = M / (M + Jb/R^2)")

    @functools.cached_property
    def B(self) -> float:
        """Reduced-mass ratio M / (M + Jb/R^2); 5/7 for a rolling solid sphere."""
        return self.M / (self.M + self.Jb / self.R**2)

    def symbol_values(self) -> dict[str, float]:
        """Bindings for the symbolic parameters of the reduced model."""
        return {"B": self.B, "G": self.G}


def benchmark_plant() -> PlantParams:
    """The standard laboratory parameter set used by the shipped scenarios."""
    return PlantParams(M=0.05, R=0.01, J=0.02, Jb=2e-6, G=9.81)


#: x2dot, the ball's acceleration along the beam.  ``x4*x4``, not ``x4^2``:
#: the simulated trajectories round as this product does.
BALL_ACCELERATION = parse("B*(x1*x4*x4 - G*sin(x3))", 4)


#: the reduced model's derivative, one component per state, with the input as x5
REDUCED_FIELD = (StateVar(2), BALL_ACCELERATION.expr, StateVar(4), StateVar(5))


def reduced_dynamics(
    x: Sequence[float], u: float, p: PlantParams
) -> tuple[float, float, float, float]:
    """State derivative of the reduced model under the input u = thetaddot.

    :data:`REDUCED_FIELD` at (x, u), each component by :func:`~switchlin.expr.evaluate`.
    """
    x1, x2, x3, x4 = x
    bindings = Bindings(p.symbol_values(), (x1, x2, x3, x4, u))
    return tuple([evaluate(f, bindings) for f in REDUCED_FIELD])


def _beam_terms(x: Sequence[float], p: PlantParams) -> tuple[float, float, float]:
    # shared between torque_from_u and full_dynamics so the preliminary
    # feedback cancels to rounding error, not just approximately
    x1, x2, x3, x4 = x
    coriolis = 2.0 * p.M * x1 * x2 * x4
    gravity_moment = p.M * p.G * x1 * math.cos(x3)
    inertia = p.M * x1 * x1 + p.J + p.Jb
    return coriolis, gravity_moment, inertia


def full_dynamics(
    x: Sequence[float], tau: float, p: PlantParams
) -> tuple[float, float, float, float]:
    """State derivative of the full two-degree-of-freedom model under torque tau.

    The ball equation is the reduced model's.  The beam inertia M r^2 + J
    + Jb is strictly positive, so the equations are defined everywhere.
    """
    coriolis, gravity_moment, inertia = _beam_terms(x, p)
    return reduced_dynamics(x, (tau - coriolis - gravity_moment) / inertia, p)


def torque_from_u(x: Sequence[float], u: float, p: PlantParams) -> float:
    """Preliminary feedback: the torque realising thetaddot = u exactly."""
    coriolis, gravity_moment, inertia = _beam_terms(x, p)
    return coriolis + gravity_moment + inertia * u


def symbolic_system(p: PlantParams | None = None) -> ControlAffineSystem:
    """The reduced model as a symbolic control-affine system with output y = x1.

    B and G stay symbolic parameters in the expressions; when a plant is
    supplied its values are attached as evaluation bindings.
    """
    x1, x2, x3, x4 = StateVar(1), StateVar(2), StateVar(3), StateVar(4)
    B, G = Parameter("B"), Parameter("G")
    f = VectorField.of(x2, B * (x1 * x4**2 - G * Sin(x3)), x4, 0)
    g = VectorField.of(0, 0, 0, 1)
    h = ScalarField(x1, 4)
    params = {} if p is None else p.symbol_values()
    return ControlAffineSystem(f=f, g=g, h=h, params=params)
