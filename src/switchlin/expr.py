"""Symbolic scalar expressions over state variables and named parameters.

The expression language is deliberately small: it covers exactly what is
needed to write control-affine dynamics and their Lie-derivative chains in
closed form, and to differentiate them symbolically without ever leaving
the language.  There is no general computer algebra here -- no trig
identities, no polynomial canonical forms, no floating exponents.

Grammar (infix, binary operators left-associative)::

    expr   := term (("+" | "-") term)*
    term   := power (("*" | "/") power)*
    power  := unary ("^" INTEGER)*
    unary  := "-" unary | atom
    atom   := NUMBER | IDENT | IDENT "(" expr ")" | "(" expr ")"

Precedence from tightest to loosest: unary minus, ``^``, ``*`` and ``/``,
``+`` and ``-``.  Unary minus binds tighter than ``^``, so ``-x1^2``
parses as ``(-x1)^2``.  Exponents must be non-negative integer literals.
Identifiers ``x1 .. x<dim>`` are state variables; ``sin`` and ``cos`` must
be applied as functions; every other identifier is a named parameter.

``simplify`` applies a fixed rewrite system bottom-up, at each node until
stable, so the result is deterministic; a subtree the rules leave alone is
returned as the same object.  The complete rule set:

* constant folding for ``+ - * ^`` and negation (integer arithmetic stays
  exact; ``/`` folds only to an exact integer or when a float is involved,
  so simplified trees always print to text that re-parses identically),
* ``0*e -> 0``, ``e*0 -> 0``, ``1*e -> e``, ``e*1 -> e``,
* ``0+e -> e``, ``e+0 -> e``, ``e-0 -> e``, ``0-e -> -e``, ``e-e -> 0``,
* ``e/1 -> e``,
* ``e^0 -> 1``, ``e^1 -> e``,
* ``-(-e) -> e``,
* ``sin(0) -> 0``, ``cos(0) -> 1``.

A denominator that would fold to the zero constant is kept in its original
form, so simplified trees never contain a syntactically zero denominator
(construction of such a node is rejected outright).  Evaluating an
expression whose denominator vanishes raises :class:`EvaluationError`
carrying the offending subexpression.

All node types are immutable values: they hash, compare structurally, and
are safe to share between threads.  A node also keeps the kernels
:func:`evaluate_many` compiles for it; that cache is not part of its value,
its equality, its hash, its ``repr`` or its pickle, and no other node reads
it, so ``(0.0)`` and ``(-0.0)``, which compare equal, keep kernels of their
own.  ``to_text`` emits fully parenthesised text; parsing it back yields a
structurally identical tree for every tree the parser or the simplifier can
produce.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Add",
    "Bindings",
    "Constant",
    "Cos",
    "Div",
    "EvaluationError",
    "Expr",
    "ExprError",
    "IntPow",
    "Mul",
    "Negate",
    "ParseError",
    "Parameter",
    "ScalarField",
    "Sin",
    "StateVar",
    "Sub",
    "VectorField",
    "as_expr",
    "bounds",
    "differentiate",
    "evaluate",
    "evaluate_many",
    "max_state_index",
    "parameter_names",
    "parse",
    "state_indices",
    "simplify",
    "to_text",
]

Real = Union[int, float, Fraction]


class ExprError(ValueError):
    """Malformed expression construction (bad node arguments)."""


class ParseError(ValueError):
    """Input text does not conform to the expression grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Expression could not be evaluated at the given bindings.

    ``expression`` holds the offending subexpression (for division by an
    exact zero, the division node itself).
    """

    def __init__(self, message: str, expression: "Expr | None" = None):
        super().__init__(message)
        self.expression = expression


class Expr:
    """Base class for expression-tree nodes.

    Arithmetic operators build new nodes, coercing int/float operands to
    constants, so fields can be written naturally::

        B, x1, x4 = Parameter("B"), StateVar(1), StateVar(4)
        a = 2 * B * x1 * x4
    """

    __slots__ = ()

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Negate(self)

    def __pow__(self, exponent):
        return IntPow(self, exponent)

    def __str__(self):
        return to_text(self)

    @functools.cached_property  # this node's own: no other node, even an equal one, reads it
    def _kernels(self) -> dict[int, tuple[Callable, dict[str, str]]]:
        """:func:`evaluate_many`'s kernel of this tree, and its parameters' code names, by width."""
        return {}

    def __getstate__(self):  # pickles and copies carry the node's value, never its kernels
        state = dict(self.__dict__)
        state.pop("_kernels", None)
        return state


@dataclass(frozen=True)
class Constant(Expr):
    """Numeric literal: an exact integer or a finite float."""

    value: int | float

    def __post_init__(self):
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise ExprError(
                f"constant must be an int or float, got {type(self.value).__name__}"
            )
        if isinstance(self.value, float) and not math.isfinite(self.value):
            raise ExprError("constant must be finite")


@dataclass(frozen=True)
class Parameter(Expr):
    """Named symbolic parameter, bound to a value only at evaluation time."""

    name: str

    def __post_init__(self):
        # the printed name must parse back as this parameter
        if (
            not isinstance(self.name, str)
            or not _IDENT_RE.fullmatch(self.name)
            or _STATEVAR_RE.match(self.name)
            or self.name in _FUNCTION_NODES
        ):
            raise ExprError(f"invalid parameter name {self.name!r}")


@dataclass(frozen=True)
class StateVar(Expr):
    """State variable x<index>, 1-based."""

    index: int

    def __post_init__(self):
        if (
            isinstance(self.index, bool)
            or not isinstance(self.index, int)
            or self.index < 1
        ):
            raise ExprError(
                f"state variable index must be a positive integer, got {self.index!r}"
            )


@dataclass(frozen=True)
class Negate(Expr):
    operand: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr

    def __post_init__(self):
        if isinstance(self.right, Constant) and self.right.value == 0:
            raise ExprError("division by a syntactically zero denominator")


@dataclass(frozen=True)
class IntPow(Expr):
    """Integer power with a non-negative machine-integer exponent."""

    base: Expr
    exponent: int

    def __post_init__(self):
        if (
            isinstance(self.exponent, bool)
            or not isinstance(self.exponent, int)
            or self.exponent < 0
        ):
            raise ExprError(
                f"exponent must be a non-negative integer, got {self.exponent!r}"
            )


@dataclass(frozen=True)
class Sin(Expr):
    argument: Expr


@dataclass(frozen=True)
class Cos(Expr):
    argument: Expr


_FUNCTION_NODES = {"sin": Sin, "cos": Cos}


def as_expr(value) -> Expr:
    """Coerce an int or float to a Constant; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        return Constant(value)
    raise ExprError(f"cannot convert {type(value).__name__} to an expression")


def _children(node: Expr) -> tuple[Expr, ...]:
    match node:  # the binary nodes, most of every tree, first
        case (
            Add(left=l, right=r)
            | Sub(left=l, right=r)
            | Mul(left=l, right=r)
            | Div(left=l, right=r)
        ):
            return (l, r)
        case Constant() | Parameter() | StateVar():
            return ()
        case Negate(operand=e) | Sin(argument=e) | Cos(argument=e):
            return (e,)
        case IntPow(base=b):
            return (b,)
    raise TypeError(f"not an expression node: {node!r}")


def _nodes(expr: Expr) -> Iterator[Expr]:
    """Every node of the tree, parents before children."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def max_state_index(expr: Expr) -> int:
    """Largest state-variable index referenced; 0 if none."""
    return max(state_indices(expr), default=0)


def state_indices(expr: Expr) -> frozenset[int]:
    """Indices of all state variables referenced by the expression."""
    return frozenset(node.index for node in _nodes(expr) if isinstance(node, StateVar))


def parameter_names(expr: Expr) -> frozenset[str]:
    """Names of all parameters referenced by the expression."""
    return frozenset(node.name for node in _nodes(expr) if isinstance(node, Parameter))


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class Bindings:
    """Numeric values for parameters and the state vector.

    Parameter and state values may be ints, floats, or exact Fractions;
    exact inputs propagate exactly through the rational operators.
    """

    params: Mapping[str, Real]
    state: tuple[Real, ...]

    def __post_init__(self):
        object.__setattr__(self, "state", tuple(self.state))


def evaluate(expr: Expr, bindings: Bindings) -> float:
    """IEEE double value of the expression at the given bindings.

    Integer constants are carried as exact rationals internally, so trees
    built from integer literals and exact bindings round only once, at the
    final conversion.
    """
    return float(_eval(expr, bindings.params, bindings.state))


def _eval(node: Expr, params: Mapping[str, Real], state: Sequence[Real]):
    match node:
        case Constant(value=v):
            return Fraction(v) if isinstance(v, int) else v
        case Parameter(name=n):
            try:
                return params[n]
            except KeyError:
                raise EvaluationError(f"unbound parameter '{n}'", node) from None
        case StateVar(index=i):
            if i > len(state):
                raise EvaluationError(
                    f"state variable x{i} outside state vector of length {len(state)}",
                    node,
                )
            return state[i - 1]
        case Negate(operand=e):
            return -_eval(e, params, state)
        case Add(left=l, right=r):
            return _eval(l, params, state) + _eval(r, params, state)
        case Sub(left=l, right=r):
            return _eval(l, params, state) - _eval(r, params, state)
        case Mul(left=l, right=r):
            return _eval(l, params, state) * _eval(r, params, state)
        case Div(left=l, right=r):
            denominator = _eval(r, params, state)
            if denominator == 0:
                raise EvaluationError("division by zero", node)
            return _eval(l, params, state) / denominator
        case IntPow(base=b, exponent=n):
            return _eval(b, params, state) ** n
        case Sin(argument=a):
            return math.sin(_eval(a, params, state))
        case Cos(argument=a):
            return math.cos(_eval(a, params, state))
    raise TypeError(f"not an expression node: {node!r}")


def evaluate_many(
    expr: Expr, params: Mapping[str, Real], states: np.ndarray
) -> np.ndarray:
    """Vectorised evaluation over a batch of states, shape (n, dim).

    Uses raw IEEE semantics throughout (a vanishing denominator yields
    inf/nan rather than an error); intended for sampling loops where the
    expressions are known to be benign.  The expression is emitted as one
    straight-line numpy function, which takes the parameters as float
    arguments under generated names, and compiled (see :func:`_compile`)
    on the first call for each state width; the tree object keeps that
    kernel, so later calls only bind and check the parameters and run it.
    The source nests one pair of parentheses per tree level, and Python's
    parser refuses more than 200, so a deeper tree (:func:`parse` reads
    longer chains of unary minus) raises SyntaxError, or RecursionError.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError("states must be a 2-d array of shape (n, dim)")
    dim = states.shape[1]
    kernels = expr._kernels
    if dim not in kernels:  # threads that race here emit equal kernels; either one serves
        (source,), names = _emit((expr,), dim)
        arguments = [*(f"x{i}" for i in range(1, dim + 1)), *names.values()]
        code = f"def kernel({', '.join(arguments)}):\n    return {source}\n"
        kernels[dim] = _compile(code, "kernel", sin=np.sin, cos=np.cos), names
    kernel, names = kernels[dim]
    with np.errstate(divide="ignore", invalid="ignore"):
        result = kernel(*states.T, *_bind(names, params).values())
    return np.broadcast_to(np.asarray(result, dtype=float), (states.shape[0],)).copy()


@functools.lru_cache(maxsize=256)
def _compile(source: str, name: str, **names) -> Callable:
    """Run ``source`` with only ``names`` and no builtins in scope; return its ``name``.

    This is the package's only ``exec``: all generated code is compiled
    here, once per distinct (source, name, namespace).  The cache is keyed
    by the source, never by expression trees: trees compare equal when
    their constants differ only in the sign of a zero, and their code does
    not.
    """
    namespace = {"__builtins__": {}, **names}
    exec(source, namespace)
    return namespace[name]


def _emit(exprs: Sequence[Expr], dim: int, prefix: str = "p") -> tuple[list[str], dict[str, str]]:
    """Python source of each expression over x1..x<dim>, and each parameter's code name.

    The k-th distinct parameter, in order of first appearance, is written
    ``<prefix><k>`` and :func:`_bind` supplies its value when the code is
    called, so user names never reach the code and the code depends only on
    the expressions: a law's control is generated once, and the plant,
    reference and gains are bound per run.  ``sin`` and ``cos`` are left
    for the namespace to supply.  Every code generator shares this emitter,
    so each performs the operations of :func:`evaluate` in the same order.

    Each value is computed once: a repeated subtree is written ``(t<k> :=
    ...)`` where first computed, so the sources must run in order, and each
    operation runs where it would unshared.  As every temporary is assigned
    before it is read, emits whose sources share a function may reuse the
    names.  Keyed by code, (0.0) and (-0.0) stay apart.
    """
    names: dict[str, str] = {}
    forms: dict[str, tuple[str, list[str]]] = {}  # by code: template, operands
    uses: dict[str, int] = {}  # by code: times computed once shared subtrees are not
    temps: dict[str, str] = {}  # by code: the temporary that holds it

    def key(node: Expr) -> str:  # its code in full; counts operands once per new code
        parts = [key(child) for child in _children(node)]
        match node:
            case Constant(value=v):
                form = f"({float(v)!r})"
            case Parameter(name=n):
                form = names.setdefault(n, f"{prefix}{len(names)}")
            case StateVar(index=i):
                if i > dim:
                    raise EvaluationError(
                        f"state variable x{i} outside state vector of length {dim}", node
                    )
                form = f"x{i}"
            case IntPow(exponent=n):
                form = f"({{}} ** {n})"
            case _:
                form = _FORMS[type(node)]
        code = form.format(*parts)
        if code not in forms:
            forms[code] = form, parts
            for part in parts:
                uses[part] = uses.get(part, 0) + 1
        return code

    def emit(code: str) -> str:
        form, parts = forms[code]
        if not parts or code in temps:
            return temps.get(code, code)
        written = form.format(*map(emit, parts))
        if uses[code] == 1:
            return written
        temps[code] = name = f"t{len(temps)}"
        return f"({name} := {written})"

    codes = [key(expr) for expr in exprs]
    for code in codes:
        uses[code] = uses.get(code, 0) + 1
    return [emit(code) for code in codes], names


_FORMS = {Negate: "(-{})", Add: "({} + {})", Sub: "({} - {})", Mul: "({} * {})",
          Div: "({} / {})", Sin: "sin({})", Cos: "cos({})"}


def _bind(names: Mapping[str, str], params: Mapping[str, Real]) -> dict[str, float]:
    """``{code name: float value}`` for each parameter in ``names``, as :func:`_emit` maps them."""
    for n in names:
        if n not in params:
            raise EvaluationError(f"unbound parameter '{n}'", Parameter(n))
    return {code: float(params[n]) for n, code in names.items()}


#: widening of sin and cos intervals: numpy's and math's are within a few ulps, not exact
_TRIG_SLACK = 2.0**-48


def bounds(
    expr: Expr, box: Sequence[tuple[float, float]], params: Mapping[str, Real]
) -> tuple[float, float] | None:
    """``(lo, hi)`` holding every value :func:`evaluate_many` gives on states drawn from ``box``.

    Interval arithmetic in floats (Moore, Kearfott & Cloud, 2009): x<i> is
    ``[low, low + (high - low)]``, as draws are scaled; negation, +, -, * and / apply the
    generated code's float operation at the endpoints (* and / at the four corners), sound as
    rounding is monotone; sin and cos take their endpoint values, and +-1 where the argument
    may hold a peak, widened by ``_TRIG_SLACK`` ([-1, 1] so widened for an argument pi wide or
    more).  None for an unbound parameter, a state beyond the box, ``IntPow``, a denominator
    holding 0 or a non-finite bound: a bounded expression cannot overflow, divide by zero or
    give NaN on the box.
    """
    operands = [bounds(child, box, params) for child in _children(expr)]
    if None in operands:
        return None
    (a, b), (c, d) = (*operands, (0.0, 0.0), (0.0, 0.0))[:2]
    match expr:
        case Constant(value=v):
            lo = hi = float(v)
        case Parameter(name=n) if n in params:
            lo = hi = float(params[n])
        case StateVar(index=i) if i <= len(box):
            lo, high = map(float, box[i - 1])
            hi = lo + (high - lo)
        case Negate():
            lo, hi = -b, -a
        case Add():
            lo, hi = a + c, b + d
        case Sub():
            lo, hi = a - d, b - c
        case Mul():
            lo, hi = min(corners := (a * c, a * d, b * c, b * d)), max(corners)
        case Div() if not c <= 0.0 <= d:
            lo, hi = min(corners := (a / c, a / d, b / c, b / d)), max(corners)
        case Sin() | Cos():  # peaks, of value (-1)^k, where arg / pi - shift is an integer k
            shift, f = (0.5, math.sin) if isinstance(expr, Sin) else (0.0, math.cos)
            m_lo, m_hi = a / math.pi - shift, b / math.pi - shift  # within (|m| + 1) 2^-51
            first = math.ceil(m_lo - (abs(m_lo) + 1) * 2.0**-50)
            last = math.floor(m_hi + (abs(m_hi) + 1) * 2.0**-50)
            if b - a >= math.pi or last > first:
                return -1.0 - _TRIG_SLACK, 1.0 + _TRIG_SLACK
            ends = [f(a), f(b), *([-1.0 if first % 2 else 1.0] if first == last else [])]
            lo, hi = min(ends) - _TRIG_SLACK, max(ends) + _TRIG_SLACK
        case _:  # an unbound parameter, a state beyond the box, IntPow, a denominator holding 0
            return None
    return (lo, hi) if math.isfinite(lo) and math.isfinite(hi) else None


def _substitute(expr: Expr, replacements: Mapping[Expr, Expr]) -> Expr:
    """``expr`` with each subtree equal to a key of ``replacements`` replaced by its value."""
    if expr in replacements:
        return replacements[expr]
    operands = [_substitute(child, replacements) for child in _children(expr)]
    if isinstance(expr, IntPow):
        return IntPow(*operands, expr.exponent)
    return type(expr)(*operands) if operands else expr


# ---------------------------------------------------------------------------
# differentiation


def differentiate(expr: Expr, var: int) -> Expr:
    """Exact partial derivative with respect to x<var> (1-based), simplified."""
    if isinstance(var, bool) or not isinstance(var, int) or var < 1:
        raise ExprError(f"differentiation variable must be a positive index, got {var!r}")
    return simplify(_diff(expr, var))


def _diff(node: Expr, var: int) -> Expr:
    match node:
        case Constant() | Parameter():
            return Constant(0)
        case StateVar(index=i):
            return Constant(1 if i == var else 0)
        case Negate(operand=e):
            return Negate(_diff(e, var))
        case Add(left=l, right=r):
            return Add(_diff(l, var), _diff(r, var))
        case Sub(left=l, right=r):
            return Sub(_diff(l, var), _diff(r, var))
        case Mul(left=l, right=r):
            return Add(Mul(_diff(l, var), r), Mul(l, _diff(r, var)))
        case Div(left=l, right=r):
            numerator = Sub(Mul(_diff(l, var), r), Mul(l, _diff(r, var)))
            return Div(numerator, IntPow(r, 2))
        case IntPow(base=b, exponent=n):
            if n == 0:
                return Constant(0)
            return Mul(Mul(Constant(n), IntPow(b, n - 1)), _diff(b, var))
        case Sin(argument=a):
            return Mul(Cos(a), _diff(a, var))
        case Cos(argument=a):
            return Mul(Negate(Sin(a)), _diff(a, var))
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# simplification


def simplify(expr: Expr) -> Expr:
    """Apply the module's fixed rewrite rules bottom-up (see module docs).

    A node none of whose children the rules change is kept, not rebuilt, so
    a tree already simplified comes back as the very same object; then the
    node's own rules (:func:`_rewrite_step`) run until none applies.
    """
    originals = _children(expr)
    children = [simplify(child) for child in originals]
    if all(map(operator.is_, children, originals)):
        node = expr  # leaves too: they have no rules
    elif isinstance(expr, IntPow):
        node = IntPow(*children, expr.exponent)
    elif isinstance(expr, Div) and _is_zero(children[1]):
        node = Div(children[0], expr.right)  # keep: no syntactically zero denominators
    else:
        node = type(expr)(*children)
    while True:
        rewritten = _rewrite_step(node)
        if rewritten is None:
            return node
        node = rewritten


def _is_zero(node: Expr) -> bool:
    return isinstance(node, Constant) and node.value == 0


def _rewrite_step(node: Expr) -> Expr | None:
    """One local rewrite, or None when the node is stable.

    Only the rules of the node's own type (``_RULES``) are tried, in the
    order written, and the first that matches applies; leaves have none.
    """
    rules = _RULES.get(type(node))
    return None if rules is None else rules(node)


def _negate_rules(node: Negate) -> Expr | None:
    match node:
        case Negate(operand=Constant(value=v)):
            return Constant(-v)
        case Negate(operand=Negate(operand=e)):
            return e
    return None


def _add_rules(node: Add) -> Expr | None:
    match node:
        case Add(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a + b)
        case Add(left=l, right=r) if _is_zero(l):
            return r
        case Add(left=l, right=r) if _is_zero(r):
            return l
    return None


def _sub_rules(node: Sub) -> Expr | None:
    match node:
        case Sub(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a - b)
        case Sub(left=l, right=r) if _is_zero(r):
            return l
        case Sub(left=l, right=r) if _is_zero(l):
            return Negate(r)
        case Sub(left=l, right=r) if l == r:
            return Constant(0)
    return None


def _mul_rules(node: Mul) -> Expr | None:
    match node:
        case Mul(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a * b)
        case Mul(left=l, right=r) if _is_zero(l) or _is_zero(r):
            return Constant(0)
        case Mul(left=Constant(value=1), right=r):
            return r
        case Mul(left=l, right=Constant(value=1)):
            return l
    return None


def _div_rules(node: Div) -> Expr | None:
    match node:
        case Div(left=Constant(value=a), right=Constant(value=b)):
            if isinstance(a, float) or isinstance(b, float):
                return Constant(a / b)
            quotient = Fraction(a, b)
            if quotient.denominator == 1:
                return Constant(int(quotient))
            return None  # exact non-integer ratio: keep the division node
        case Div(left=l, right=Constant(value=1)):
            return l
    return None


def _intpow_rules(node: IntPow) -> Expr | None:
    match node:
        case IntPow(exponent=0):
            return Constant(1)
        case IntPow(base=b, exponent=1):
            return b
        case IntPow(base=Constant(value=v), exponent=n):
            return Constant(v**n)
    return None


def _sin_rules(node: Sin) -> Expr | None:
    match node:
        case Sin(argument=Constant(value=v)) if v == 0:
            return Constant(0)
    return None


def _cos_rules(node: Cos) -> Expr | None:
    match node:
        case Cos(argument=Constant(value=v)) if v == 0:
            return Constant(1)
    return None


_RULES = {Negate: _negate_rules, Add: _add_rules, Sub: _sub_rules, Mul: _mul_rules,
          Div: _div_rules, IntPow: _intpow_rules, Sin: _sin_rules, Cos: _cos_rules}


# ---------------------------------------------------------------------------
# printing


def to_text(expr: Expr) -> str:
    """Parseable text with explicit parentheses around every compound node."""
    match expr:
        case Constant(value=v):
            return repr(v) if isinstance(v, float) else str(v)
        case Parameter(name=n):
            return n
        case StateVar(index=i):
            return f"x{i}"
        case IntPow(base=b, exponent=n):
            return f"({to_text(b)}^{n})"
    parts = [to_text(child) for child in _children(expr)]  # TypeError for a non-node
    return _TEXT[type(expr)].format(*parts)


_TEXT = {**_FORMS, Mul: "({}*{})", Div: "({}/{})"}


def format_number(value: float) -> str:
    """9 significant digits, negative zero printed as 0: all numeric text output."""
    if value == 0.0:
        value = 0.0  # normalise negative zero
    return f"{value:.9g}"


def format_vector(values) -> str:
    return "(" + ", ".join(format_number(float(v)) for v in values) + ")"


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    r"|(?P<symbol>[-+*/^()])"
    r"|(?P<end>\Z)"
)
_INT_RE = re.compile(r"\d+\Z")
_STATEVAR_RE = re.compile(r"x(\d+)\Z")
# the binary operators' nodes, one level of the grammar each, loosest first
_BINARY = ({"+": Add, "-": Sub}, {"*": Mul, "/": Div})


class _Parser:
    """Recursive descent over the matches of ``_TOKEN_RE``, the last one the end."""

    def __init__(self, text: str, dim: int):
        self.dim = dim
        self.tokens: list[re.Match] = []
        # each number's value by position, converted while the text is read, so that a
        # literal too long for int() fails before any syntax error
        self.values: dict[int, int | float] = {}
        self.pos = 0
        at = 0
        while not self.tokens or self.tokens[-1].lastgroup != "end":
            if at < len(text) and text[at].isspace():
                at += 1
                continue
            token = _TOKEN_RE.match(text, at)
            if token is None:
                raise ParseError(f"unexpected character {text[at]!r}", at)
            if token.lastgroup == "number":
                literal = token.group()
                self.values[at] = int(literal) if _INT_RE.match(literal) else float(literal)
            self.tokens.append(token)
            at = token.end()

    def take(self, *wanted: str) -> re.Match | None:
        """The next token, consumed, if its symbol or else its kind is one of ``wanted``."""
        token = self.tokens[self.pos]
        if (token.group() if token.lastgroup == "symbol" else token.lastgroup) in wanted:
            self.pos += 1
            return token
        return None

    def parse(self) -> Expr:
        try:
            expr = self.binary()
        except RecursionError:
            position = self.tokens[self.pos].start()
            raise ParseError("expression nested too deeply", position) from None
        token = self.tokens[self.pos]
        if token.lastgroup != "end":
            raise ParseError(f"unexpected {token.group()!r}", token.start())
        return expr

    def binary(self, level: int = 0) -> Expr:
        """A left-associative chain of ``_BINARY[level]``; the last level chains powers."""
        nodes, deeper = _BINARY[level], level + 1 < len(_BINARY)
        left = self.binary(level + 1) if deeper else self.power()
        while op := self.take(*nodes):
            right = self.binary(level + 1) if deeper else self.power()
            try:
                left = nodes[op.group()](left, right)
            except ExprError:  # only Div refuses its operands
                raise ParseError("division by zero constant", op.start()) from None
        return left

    def power(self) -> Expr:
        base = self.unary()
        while caret := self.take("^"):
            exponent = self.take("number")
            value = self.values[exponent.start()] if exponent else None
            if not isinstance(value, int):
                raise ParseError(
                    "exponent must be a non-negative integer literal", caret.start()
                )
            base = IntPow(base, value)
        return base

    def unary(self) -> Expr:
        if not self.take("-"):
            return self.atom()
        if number := self.take("number"):
            # negative literal, so printed constants re-parse identically
            return Constant(-self.values[number.start()])
        return Negate(self.unary())

    def atom(self) -> Expr:
        if token := self.take("number"):
            return Constant(self.values[token.start()])
        function = None
        if token := self.take("ident"):
            name = token.group()
            if name not in _FUNCTION_NODES:
                m = _STATEVAR_RE.match(name)
                if not m:
                    return Parameter(name)
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"state index {index} out of range 1..{self.dim}", token.start()
                    )
                return StateVar(index)
            if not self.take("("):
                raise ParseError(
                    f"expected '(' after function {name!r}", self.tokens[self.pos].start()
                )
            function = _FUNCTION_NODES[name]
        elif not self.take("("):
            token = self.tokens[self.pos]
            raise ParseError(
                f"expected a number, identifier, or '(', got {token.group() or 'end of input'!r}",
                token.start(),
            )
        inner = self.binary()
        if not self.take(")"):
            raise ParseError("expected ')'", self.tokens[self.pos].start())
        return function(inner) if function else inner


def parse(text: str, dim: int) -> "ScalarField":
    """Parse expression text into a scalar field over a dim-dimensional state.

    Nesting deeper than the stack allows (197 parentheses at Python's
    default recursion limit) raises :class:`ParseError`, not RecursionError.
    """
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ExprError(f"dimension must be a positive integer, got {dim!r}")
    return ScalarField(_Parser(text, dim).parse(), dim)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued expression over a state space of fixed dimension."""

    expr: Expr
    dim: int

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, int) or self.dim < 1:
            raise ExprError(f"dimension must be a positive integer, got {self.dim!r}")
        top = max_state_index(self.expr)
        if top > self.dim:
            raise ExprError(
                f"expression references x{top} but the field dimension is {self.dim}"
            )

    def evaluate(self, bindings: Bindings) -> float:
        return evaluate(self.expr, bindings)

    def evaluate_many(
        self, params: Mapping[str, Real], states: np.ndarray
    ) -> np.ndarray:
        return evaluate_many(self.expr, params, states)

    def differentiate(self, var: int) -> "ScalarField":
        if not 1 <= var <= self.dim:
            raise ExprError(f"variable index {var} out of range 1..{self.dim}")
        return ScalarField(differentiate(self.expr, var), self.dim)

    def gradient(self) -> tuple["ScalarField", ...]:
        return self._gradient

    @functools.cached_property  # this field's own, so its trees keep their kernels across calls
    def _gradient(self) -> tuple["ScalarField", ...]:
        return tuple(self.differentiate(i) for i in range(1, self.dim + 1))

    def simplified(self) -> "ScalarField":
        return ScalarField(simplify(self.expr), self.dim)

    def is_zero(self) -> bool:
        """True when the field simplifies to the zero constant."""
        return _is_zero(simplify(self.expr))

    def __str__(self):
        return to_text(self.expr)


@dataclass(frozen=True)
class VectorField:
    """A vector field on R^n with n symbolic components."""

    components: tuple[Expr, ...]

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise ExprError("vector field needs at least one component")
        for component in components:
            if not isinstance(component, Expr):
                raise ExprError(
                    f"component must be an expression, got {type(component).__name__}"
                )
            top = max_state_index(component)
            if top > len(components):
                raise ExprError(
                    f"component references x{top} but the field dimension is "
                    f"{len(components)}"
                )
        object.__setattr__(self, "components", components)

    @classmethod
    def of(cls, *components) -> "VectorField":
        return cls(tuple(as_expr(c) for c in components))

    @property
    def dim(self) -> int:
        return len(self.components)

    def component_field(self, k: int) -> ScalarField:
        """Component k (1-based) as a scalar field on the same state space."""
        if not 1 <= k <= self.dim:
            raise ExprError(f"component index {k} out of range 1..{self.dim}")
        return ScalarField(self.components[k - 1], self.dim)

    def evaluate(self, bindings: Bindings) -> tuple[float, ...]:
        return tuple(evaluate(c, bindings) for c in self.components)

    def __str__(self):
        return "(" + ", ".join(to_text(c) for c in self.components) + ")"
