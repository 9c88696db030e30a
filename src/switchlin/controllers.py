"""Control laws, the tracking outer loop, and the supervisory switching rule.

Every law has the form u = (-b_i(x) + v) / a_i(x) and is written once, as
a :class:`LawDescriptor` built by :func:`law_descriptor`: coefficient a_i,
offset b_i, the singularity factors of a_i, and the output coordinates in
which its outer loop places poles.  ``apply_law`` and ``outer_loop_v``
evaluate the descriptors exactly.  For simulation, each law's control,
outer loop included (``outer_loop_v``'s sum, run on trees), is one tree
written by ``expr._emit`` as one arm of the supervisor's branch in the
step that ``sim.ClosedLoop`` generates; the plant, the reference's scales
and the gains are its parameters, bound per run.

Law 1 (order 3, a_1 = 2 B x1 x4) inverts the exact output chain; its
coefficient vanishes when the ball sits at the pivot (x1 = 0) or the beam
is momentarily at rest (x4 = 0).  Law 2 (order 4, a_2 = -B G cos x3) drops
the centrifugal term B x1 x4^2 (higher order near those sets) and inverts
the resulting chain in the approximate coordinates

    xi = (x1, x2, -B G sin x3, -B G x4 cos x3),

trading the old singularity for a new one at cos(x3) = 0, transverse to
the old.  Law 3 is law 2 frozen at the operating point x = 0: its
coefficient and offset are law 2's with x1..x4 set to 0, simplified to a
constant, nowhere-singular a_3 = -B G and b_3 = 0; the supervisor only
engages it where |x1| and |x4| are small, so the frozen terms are small
there.  A fourth descriptor exposes the unfrozen g-modification coefficient
2 B x2 x4 - B G cos(x3); it is not used by the supervisor but lets the
coverage analysis exhibit how modified laws keep vanishing on the
singularity components they do not target.

The memoryless supervisor sigma(x) is :data:`SUPERVISOR`, read by
:func:`supervisor` and ``sim.ClosedLoop``: law 1 when |x1| > eps1 and
|x4| > eps4, law 3 when |x1| <= eps1 and |x4| <= eps4, law 2 otherwise.
The outer loop places all tracking-error poles at a single point p via
the binomial gains of (s - p)^order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .ballbeam import BALL_ACCELERATION, PlantParams
from .expr import Bindings, Constant, Cos, Parameter, Real, ScalarField, Sin, StateVar, parse
from .expr import _emit, _substitute, simplify
from .geometry import SingularityFactor

__all__ = [
    "GainSet",
    "LawDescriptor",
    "SUPERVISOR",
    "SingularControlError",
    "SwitchThresholds",
    "TrackingReference",
    "apply_law",
    "law_descriptor",
    "outer_loop_v",
    "pole_gains",
    "supervisor",
    "table_laws",
]

#: coefficient magnitude below which a law refuses to divide; practical
#: guarding is the supervisor's job, this floor only stops 1/0
COEFFICIENT_FLOOR = 1e-300


class SingularControlError(ArithmeticError):
    """A control law was evaluated essentially on its singularity set."""

    def __init__(self, law_id: int, coefficient: float):
        super().__init__(
            f"law {law_id} coefficient {coefficient!r} is below the floor "
            f"{COEFFICIENT_FLOOR}"
        )
        self.law_id = law_id
        self.coefficient = coefficient


@dataclass(frozen=True)
class SwitchThresholds:
    """Switching thresholds on |x1| [m] and |x4| [rad/s]; strictly positive."""

    eps1: float
    eps4: float

    def __post_init__(self):
        if not (self.eps1 > 0 and self.eps4 > 0):
            raise ValueError("switching thresholds must be strictly positive")
        if not (math.isfinite(self.eps1) and math.isfinite(self.eps4)):
            raise ValueError("switching thresholds must be finite")


#: sin x3 and cos x3 as the closed-loop step reads them, x9 and x10, each computed once a step
_STEP_TRIG = MappingProxyType({Sin(StateVar(3)): StateVar(9), Cos(StateVar(3)): StateVar(10)})


#: the supervisor's law for each region, keyed by (|x1| > eps1, |x4| > eps4)
SUPERVISOR = MappingProxyType(
    {(True, True): 1, (True, False): 2, (False, True): 2, (False, False): 3}
)


def supervisor(x: Sequence[float], thresholds: SwitchThresholds) -> int:
    """Memoryless law selection: the :data:`SUPERVISOR` entry of x's region."""
    return SUPERVISOR[abs(x[0]) > thresholds.eps1, abs(x[3]) > thresholds.eps4]


@dataclass(frozen=True)
class TrackingReference:
    """Cosine reference y_d(t) = amplitude * cos(2 pi t / period) [m]."""

    amplitude: float
    period: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("reference amplitude must be non-negative")
        if not self.period > 0:
            raise ValueError("reference period must be positive")
        if not (math.isfinite(self.amplitude) and math.isfinite(self.period)):
            raise ValueError("reference amplitude and period must be finite")

    def derivative(self, t: float, order: int = 0) -> float:
        """Exact analytic derivative y_d^(order)(t) for order >= 0."""
        if order < 0:
            raise ValueError("derivative order must be non-negative")
        omega, scales = _reference_scales(self, order)
        phase = omega * t
        return scales[order] * (math.sin(phase) if _CYCLE[order % 4][1] else math.cos(phase))

    def value(self, t: float) -> float:
        return self.derivative(t, 0)


#: y_d^(j) = +-scale_j * (cos or sin)(phase), (negated, sine) = _CYCLE[j % 4]:
#: d/dt cycles cos -> -sin -> -cos -> sin
_CYCLE = ((False, False), (True, True), (True, False), (False, True))


def _reference_scales(ref: TrackingReference, order: int) -> tuple[float, tuple[float, ...]]:
    """omega and the signed scales of y_d, ..., y_d^(order).

    y_d^(j)(t) = scales[j] * (cos or sin)(omega t), the wave read from
    ``_CYCLE[j % 4]``; each scale is amplitude * omega**j, computed once.
    """
    omega = 2.0 * math.pi / ref.period
    scales = []
    for j in range(order + 1):
        scale = ref.amplitude * omega**j
        scales.append(-scale if _CYCLE[j % 4][0] else scale)
    return omega, tuple(scales)


@dataclass(frozen=True)
class GainSet:
    """Outer-loop gains: alphas[j] multiplies the j-th error derivative.

    These are the trailing coefficients of (s - pole)^order, so the
    closed-loop error dynamics put all ``order`` poles at ``pole``.
    """

    pole: float
    order: int
    alphas: tuple[float, ...]


def pole_gains(pole: float, multiplicity: int) -> GainSet:
    """Binomial expansion of (s - pole)^multiplicity, leading 1 excluded."""
    if not pole < 0:
        raise ValueError(f"pole must be strictly negative, got {pole!r}")
    if not math.isfinite(pole):
        raise ValueError(f"pole must be finite, got {pole!r}")
    if isinstance(multiplicity, bool) or not isinstance(multiplicity, int) or multiplicity < 1:
        raise ValueError(f"multiplicity must be a positive integer, got {multiplicity!r}")
    try:
        alphas = tuple(
            math.comb(multiplicity, j) * (-pole) ** (multiplicity - j)
            for j in range(multiplicity)
        )
    except OverflowError:
        raise ValueError(f"pole {pole!r} gives gains beyond the float range") from None
    return GainSet(pole=pole, order=multiplicity, alphas=alphas)


# ---------------------------------------------------------------------------
# symbolic law descriptors


@dataclass(frozen=True)
class LawDescriptor:
    """Symbolic description of one control law u = (-offset + v) / coefficient.

    ``coordinates`` are the outer loop's output coordinates, one per
    order: the tracking errors are e^(j) = coordinates[j] - y_d^(j).
    ``factors`` lists the smooth factors whose simultaneous non-vanishing
    defines the validity domain; their zero sets are the law's declared
    singularity components.  A law with no factors is valid everywhere.
    """

    law_id: int
    name: str
    order: int
    coefficient: ScalarField
    offset: ScalarField
    factors: tuple[SingularityFactor, ...]
    coordinates: tuple[ScalarField, ...]

    def __post_init__(self):
        if len(self.coordinates) != self.order:
            raise ValueError(f"{self.name} needs {self.order} output coordinates")

    @functools.cached_property  # emitted once per descriptor; every run reads it
    def _control_body(self) -> tuple[tuple[str, ...], dict[str, str]]:
        """This law's arm of the supervisor's branch, and each parameter's code name.

        The arm computes u and sets ``law`` from the closed-loop step's
        variables: x1..x4, the reference's waves at t, x7 = cos and x8 = sin,
        and x9 = sin x3 and x10 = cos x3 (``_STEP_TRIG``).  Its parameters,
        the plant's, the reference's scales ``c<j>`` and the gains ``alpha<j>``,
        are written ``p<id>_<k>`` (<id> is ``law_id``, so laws can share a
        function).  One expr emit writes the coefficient and the numerator
        -offset + v of :meth:`control`, v being :func:`_virtual_input` on
        trees, with r_j = c_j times its wave; the floor check precedes the numerator.
        """
        tag, waves = self.law_id, (StateVar(7), StateVar(8))
        r = [Parameter(f"c{j}") * waves[_CYCLE[j % 4][1]] for j in range(self.order + 1)]
        a = [Parameter(f"alpha{j}") for j in range(self.order)]
        numerator = -self.offset.expr + _virtual_input(a, [c.expr for c in self.coordinates], r)
        trees = [_substitute(e, _STEP_TRIG) for e in (self.coefficient.expr, numerator)]
        (coefficient, numerator), names = _emit(trees, 10, f"p{tag}_")
        lines = (
            f"coefficient = {coefficient}",
            f"if abs(coefficient) < {COEFFICIENT_FLOOR!r}:",
            f"    raise SingularControlError({tag!r}, coefficient)",
            f"u = {numerator} / coefficient",
            f"law = {tag}",
        )
        return lines, names

    def coefficient_value(self, x: Sequence[float], params: Mapping[str, Real]) -> float:
        return self.coefficient.evaluate(Bindings(params, tuple(x)))

    def coordinate_values(
        self, x: Sequence[float], params: Mapping[str, Real]
    ) -> tuple[float, ...]:
        at_x = Bindings(params, tuple(x))
        return tuple(c.evaluate(at_x) for c in self.coordinates)

    def control(self, x: Sequence[float], v: float, params: Mapping[str, Real]) -> float:
        coefficient = self.coefficient_value(x, params)
        offset = self.offset.evaluate(Bindings(params, tuple(x)))
        if abs(coefficient) < COEFFICIENT_FLOOR:
            raise SingularControlError(self.law_id, coefficient)
        return (-offset + v) / coefficient


@functools.cache  # descriptors are immutable; apply_law builds one per call
def law_descriptor(law_id: int, *, g_modified: bool = False) -> LawDescriptor:
    """Build the symbolic descriptor for one law.

    ``g_modified=True`` selects the unfrozen variant of law 3 whose
    coefficient 2 B x2 x4 - B G cos(x3) retains its state dependence; it
    exists for coverage and transversality analysis, not for supervision.

    Squares are written ``x4*x4``: ``x4^2`` would regroup the products and
    change the rounding of simulated trajectories.
    """
    if g_modified and law_id != 3:
        raise ValueError("only law 3 has a g-modified variant")
    if law_id == 1:
        return LawDescriptor(
            law_id=1,
            name="law1",
            order=3,
            coefficient=parse("2*B*x1*x4", 4),
            offset=parse("B*x2*x4*x4 - B*G*x4*cos(x3)", 4),
            factors=(
                SingularityFactor(parse("x1", 4), "x1"),
                SingularityFactor(parse("x4", 4), "x4"),
            ),
            coordinates=(*_fields("x1", "x2"), BALL_ACCELERATION),
        )
    if law_id == 2:
        return LawDescriptor(
            law_id=2,
            name="law2",
            order=4,
            coefficient=parse("-B*G*cos(x3)", 4),
            offset=parse("B*G*x4*x4*sin(x3)", 4),
            factors=(SingularityFactor(parse("cos(x3)", 4), "cos(x3)"),),
            coordinates=_fields("x1", "x2", "-B*G*sin(x3)", "-B*G*x4*cos(x3)"),
        )
    if law_id == 3:  # law 2 frozen at the operating point x = 0
        law2, at_rest = law_descriptor(2), {StateVar(i): Constant(0) for i in range(1, 5)}
        coefficient, offset = (ScalarField(simplify(_substitute(f.expr, at_rest)), 4)
                               for f in (law2.coefficient, law2.offset))
        factors = ()
        if g_modified:
            text = "2*B*x2*x4 - B*G*cos(x3)"
            coefficient = parse(text, 4)
            factors = (SingularityFactor(coefficient, text),)
        return replace(law2, law_id=3, name="law3g" if g_modified else "law3",
                       coefficient=coefficient, offset=offset, factors=factors)
    raise ValueError(f"unknown law id {law_id!r}")


def _fields(*texts: str) -> tuple[ScalarField, ...]:
    return tuple(parse(text, 4) for text in texts)


def table_laws() -> tuple[LawDescriptor, ...]:
    """The three shipped laws."""
    return (law_descriptor(1), law_descriptor(2), law_descriptor(3))


# ---------------------------------------------------------------------------
# the laws as functions


def apply_law(law_id: int, x: Sequence[float], v: float, p: PlantParams) -> float:
    """u = (-b_i(x) + v) / a_i(x) for law ``law_id``, evaluated exactly."""
    return law_descriptor(law_id).control(x, v, p.symbol_values())


# ---------------------------------------------------------------------------
# outer loop


def outer_loop_v(
    x: Sequence[float],
    ref: TrackingReference,
    t: float,
    law: LawDescriptor,
    gains: GainSet,
    p: PlantParams,
) -> float:
    """Pole-placement virtual input v = y_d^(order) - sum_j alpha_j e^(j).

    The error derivatives are e^(j) = coordinates[j] - y_d^(j) in the
    law's output coordinates; the sum is :func:`_virtual_input`'s.
    """
    _check_order(law, gains)
    coordinates = law.coordinate_values(x, p.symbol_values())
    targets = [ref.derivative(t, j) for j in range(gains.order + 1)]
    return _virtual_input(gains.alphas, coordinates, targets)


def _virtual_input(alphas: Sequence, coordinates: Sequence, targets: Sequence):
    """The outer-loop sum targets[-1] - sum_j alphas[j] (coordinates[j] - targets[j]), from 0.0."""
    feedback = 0.0
    for alpha, coordinate, target in zip(alphas, coordinates, targets):
        feedback += alpha * (coordinate - target)
    return targets[-1] - feedback


def _check_order(law: LawDescriptor, gains: GainSet) -> None:
    if gains.order != law.order:
        raise ValueError(
            f"gain order {gains.order} does not match law order {law.order}"
        )

