"""Lie calculus and structural analysis of SISO control-affine systems.

Provides the differential-geometric machinery behind input-output
linearisation: Lie derivatives L_v(phi) = grad(phi) . v, Lie brackets
[f, g] = (dg/dx) f - (df/dx) g, iterated brackets ad_f^j g, the output
derivative chain with its control coefficient a = L_g L_f^(order-1) h and
offset b = L_f^order h, a numeric relative-degree probe, the bracket
witness showing that span{g, ad_f g, ad_f^2 g} fails to be involutive, and
stacked-differential rank tests for transversality of hypersurface
intersections.

Everything here is a pure function over immutable symbolic inputs, so all
operations are thread-safe and freely parallelisable.  Each system derives
its output chain and its bracket tower once, on first use, and keeps them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .expr import (
    Bindings,
    Constant,
    Add,
    Mul,
    Real,
    ScalarField,
    StateVar,
    Sub,
    VectorField,
    differentiate,
    simplify,
)

__all__ = [
    "ControlAffineSystem",
    "DerivativeChain",
    "InvolutivityWitness",
    "SingularityFactor",
    "ad_power",
    "derivative_chain",
    "involutivity_witness",
    "lie_bracket",
    "lie_derivative",
    "matrix_rank",
    "relative_degree_at",
    "transversality_rank",
]

#: relative singular-value threshold for all numeric rank decisions
RANK_RTOL = 1e-9

#: tolerance for deciding that a mixed derivative is nonzero
RELDEG_TOL = 1e-9

#: radius of the sampled neighbourhood used by the relative-degree probe
NEIGHBOURHOOD_RADIUS = 1e-3
NEIGHBOURHOOD_SAMPLES = 32


@dataclass(frozen=True)
class ControlAffineSystem:
    """SISO system  xdot = f(x) + g(x) u,  y = h(x).

    ``params`` maps parameter names appearing in f, g, h to numeric values
    used whenever the system is evaluated at a point.
    """

    f: VectorField
    g: VectorField
    h: ScalarField
    params: Mapping[str, Real] = field(default_factory=dict)

    def __post_init__(self):
        if not (self.f.dim == self.g.dim == self.h.dim):
            raise ValueError(
                f"dimension mismatch: f is {self.f.dim}-d, g is {self.g.dim}-d, "
                f"h is {self.h.dim}-d"
            )

    @property
    def dim(self) -> int:
        return self.f.dim

    def bindings(self, x: Sequence[Real]) -> Bindings:
        return Bindings(self.params, tuple(x))

    @functools.cached_property  # derived once per system, read at every probe point
    def chain(self) -> DerivativeChain:
        """The output derivative chain through order ``dim``."""
        return derivative_chain(self, self.dim)

    @functools.cached_property  # derived once per system, read at every probe point
    def bracket_tower(self) -> tuple[VectorField, VectorField, VectorField]:
        """(ad_f g, ad_f^2 g, [g, ad_f^2 g])."""
        ad1 = lie_bracket(self.f, self.g)
        ad2 = lie_bracket(self.f, ad1)
        return ad1, ad2, lie_bracket(self.g, ad2)


def lie_derivative(phi: ScalarField, v: VectorField) -> ScalarField:
    """L_v(phi) = sum_i (d phi / d x_i) v_i, simplified."""
    if phi.dim != v.dim:
        raise ValueError(f"dimension mismatch: field is {phi.dim}-d, vector {v.dim}-d")
    total = Constant(0)
    for i in range(1, phi.dim + 1):
        total = Add(total, Mul(differentiate(phi.expr, i), v.components[i - 1]))
    return ScalarField(simplify(total), phi.dim)


def lie_bracket(f: VectorField, g: VectorField) -> VectorField:
    """[f, g] = (dg/dx) f - (df/dx) g: component k is L_f g_k - L_g f_k, simplified."""
    if f.dim != g.dim:
        raise ValueError(f"dimension mismatch: {f.dim}-d vs {g.dim}-d")
    components = []
    for k in range(1, f.dim + 1):
        forward = lie_derivative(g.component_field(k), f)
        backward = lie_derivative(f.component_field(k), g)
        components.append(simplify(Sub(forward.expr, backward.expr)))
    return VectorField(tuple(components))


def ad_power(f: VectorField, g: VectorField, j: int) -> VectorField:
    """Iterated bracket ad_f^j g, with ad_f^0 g = g."""
    if isinstance(j, bool) or not isinstance(j, int) or j < 0:
        raise ValueError(f"bracket power must be a non-negative integer, got {j!r}")
    result = g
    for _ in range(j):
        result = lie_bracket(f, result)
    return result


@dataclass(frozen=True)
class DerivativeChain:
    """Output derivative chain of a system up to a given order.

    ``outputs[j]`` is L_f^j h for j = 0..order and ``mixed[j]`` is
    L_g L_f^j h for j = 0..order-1.  The chain is *uniform* when every
    mixed derivative below the last is symbolically zero, in which case
    y^(order) = b(x) + a(x) u with the coefficient and offset below.
    """

    outputs: tuple[ScalarField, ...]
    mixed: tuple[ScalarField, ...]
    order: int

    @property
    def a(self) -> ScalarField:
        """Control coefficient L_g L_f^(order-1) h."""
        return self.mixed[-1]

    @property
    def b(self) -> ScalarField:
        """Offset L_f^order h."""
        return self.outputs[-1]

    @property
    def uniform(self) -> bool:
        return all(m.is_zero() for m in self.mixed[:-1])


def derivative_chain(sys: ControlAffineSystem, order: int) -> DerivativeChain:
    """Differentiate the output ``order`` times along f, tracking L_g terms."""
    if not 1 <= order <= sys.dim:
        raise ValueError(f"order must be in 1..{sys.dim}, got {order}")
    outputs = [sys.h.simplified()]
    mixed = []
    for _ in range(order):
        mixed.append(lie_derivative(outputs[-1], sys.g))
        outputs.append(lie_derivative(outputs[-1], sys.f))
    return DerivativeChain(tuple(outputs), tuple(mixed), order)


def relative_degree_at(sys: ControlAffineSystem, x0: Sequence[float]) -> int | None:
    """Relative degree at x0, or None if undefined through order ``sys.dim``.

    Returns the smallest gamma with |L_g L_f^(gamma-1) h(x0)| > RELDEG_TOL
    such that every lower mixed derivative vanishes near x0.  "Vanishes near"
    is decided symbolically when the derivative simplifies to zero, and
    otherwise by sampling points in a small ball around x0 (a heuristic
    fallback; the symbolic path is exact for the systems shipped here).
    """
    at_x0 = sys.bindings(x0)
    for gamma in range(1, sys.dim + 1):
        if abs(sys.chain.mixed[gamma - 1].evaluate(at_x0)) <= RELDEG_TOL:
            continue
        lower = sys.chain.mixed[: gamma - 1]
        if all(_vanishes_near(m, x0, sys.params) for m in lower):
            return gamma
        return None
    return None


def _vanishes_near(field_: ScalarField, x0: Sequence[float], params: Mapping[str, Real]) -> bool:
    if field_.is_zero():
        return True
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(NEIGHBOURHOOD_SAMPLES, field_.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(0.0, 1.0, NEIGHBOURHOOD_SAMPLES) ** (1.0 / field_.dim)
    points = np.asarray(x0, dtype=float) + NEIGHBOURHOOD_RADIUS * radii[:, None] * directions
    values = field_.evaluate_many(params, points)
    return bool(np.max(np.abs(values)) <= RELDEG_TOL)


def matrix_rank(matrix: np.ndarray) -> int | np.ndarray:
    """Numeric rank: singular values above RANK_RTOL times the largest one (0 if all are 0).

    A stack of shape (..., k, n) gives an integer array of shape (...) from one batched SVD,
    each matrix ranked as if alone.  An infinite or NaN entry anywhere leaves no numeric rank:
    ValueError.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.size == 0:
        ranks = np.zeros(matrix.shape[:-2], dtype=int)
    elif not np.isfinite(matrix).all():
        raise ValueError("cannot take the rank of a matrix with a non-finite entry")
    else:
        sigma = np.linalg.svd(matrix, compute_uv=False)
        ranks = np.count_nonzero(sigma > RANK_RTOL * sigma[..., :1], axis=-1)
    return int(ranks) if matrix.ndim <= 2 else ranks


def transversality_rank(differentials: Sequence[Sequence[float]]) -> int:
    """Rank of stacked covectors at a point.

    Full rank k means the k hypersurfaces whose differentials were stacked
    intersect transversally there.
    """
    rows = [tuple(row) for row in differentials]
    if not rows:
        return 0
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("all covectors must have the same length")
    return matrix_rank(np.array(rows, dtype=float))


@dataclass(frozen=True)
class InvolutivityWitness:
    """Evaluation of [g, ad_f^2 g] at a point and the induced rank jump."""

    bracket_value: tuple[float, ...]
    rank_without: int
    rank_with: int

    @property
    def rank_rises(self) -> bool:
        return self.rank_with > self.rank_without


def involutivity_witness(sys: ControlAffineSystem, x0: Sequence[float]) -> InvolutivityWitness:
    """Evaluate the bracket [g, ad_f^2 g] at x0 against span{g, ad_f g, ad_f^2 g}.

    A rank rise shows the bracket leaves the span, i.e. the distribution is
    not involutive at x0 and exact full-state linearisation fails there.
    """
    if sys.dim != 4:
        raise ValueError("the involutivity witness is built for 4-dimensional systems")
    ad1, ad2, bracket = sys.bracket_tower
    at_x0 = sys.bindings(x0)
    columns = [sys.g.evaluate(at_x0), ad1.evaluate(at_x0), ad2.evaluate(at_x0)]
    bracket_value = bracket.evaluate(at_x0)
    without = np.column_stack(columns)
    with_bracket = np.column_stack(columns + [bracket_value])
    return InvolutivityWitness(bracket_value, matrix_rank(without), matrix_rank(with_bracket))


@dataclass(frozen=True)
class SingularityFactor:
    """A smooth factor phi of a control coefficient, with a display label.

    The zero set {phi = 0} is one component of the singularity manifold;
    the factor is expected to have a nonvanishing gradient there.
    """

    field: ScalarField
    label: str

    @property
    def pinned_coordinate(self) -> int | None:
        """Index of the state coordinate when phi is a bare coordinate."""
        if isinstance(self.field.expr, StateVar):
            return self.field.expr.index
        return None
