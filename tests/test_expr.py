import ast
import itertools
import math
import pathlib
import random
import re
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from switchlin import coverage
from switchlin.ballbeam import symbolic_system
from switchlin.controllers import law_descriptor
from switchlin.expr import (
    Add,
    Bindings,
    Constant,
    Cos,
    Div,
    EvaluationError,
    Expr,
    ExprError,
    IntPow,
    Mul,
    Negate,
    ParseError,
    Parameter,
    ScalarField,
    Sin,
    StateVar,
    Sub,
    VectorField,
    bounds,
    evaluate,
    evaluate_many,
    parse,
    simplify,
    to_text,
)
from switchlin.expr import _FUNCTION_NODES, _INT_RE, _STATEVAR_RE
from switchlin.expr import _children, _is_zero, _substitute

B, G = Parameter("B"), Parameter("G")
X1, X2, X3, X4 = StateVar(1), StateVar(2), StateVar(3), StateVar(4)


def bind(state, **params):
    return Bindings(params, tuple(state))


# ---------------------------------------------------------------------------
# parsing


def test_parse_single_state_token():
    assert parse("x2", 4).expr == StateVar(2)


def test_parse_statespace_rhs():
    # right-hand side of the ball-velocity equation
    expected = Mul(B, Sub(Mul(X1, IntPow(X4, 2)), Mul(G, Sin(X3))))
    assert parse("B*(x1*x4^2 - G*sin(x3))", 4).expr == expected


def test_parse_coefficient_chain():
    expected = Mul(Mul(Mul(Constant(2), B), X1), X4)
    assert parse("2*B*x1*x4", 4).expr == expected


def test_parse_unary_minus_binds_tighter_than_power():
    assert parse("-x1^2", 4).expr == IntPow(Negate(X1), 2)
    # parenthesised form for the other reading
    assert parse("-(x1^2)", 4).expr == Negate(IntPow(X1, 2))


def test_parse_left_associative_binary_ops():
    assert parse("x1 - 2 - 3", 4).expr == Sub(Sub(X1, Constant(2)), Constant(3))
    assert parse("12/4/x1", 4).expr == Div(Div(Constant(12), Constant(4)), X1)
    assert parse("x1^2^3", 4).expr == IntPow(IntPow(X1, 2), 3)


def test_parse_precedence_mul_over_add():
    assert parse("x1 + x2*x3", 4).expr == Add(X1, Mul(X2, X3))


def test_parse_negative_literal():
    assert parse("-2", 4).expr == Constant(-2)
    assert parse("x1 - -2.5", 4).expr == Sub(X1, Constant(-2.5))


def test_parse_scientific_notation():
    assert parse("1e-3", 4).expr == Constant(1e-3)
    assert parse("2.5e2", 4).expr == Constant(250.0)


def test_parse_functions_and_parameters():
    assert parse("sin(x3)", 4).expr == Sin(X3)
    assert parse("cos(theta)", 4).expr == Cos(Parameter("theta"))


@pytest.mark.parametrize(
    "name",
    ["x1", "x0", "x01", "x12", "\u00e9", "B\u00e9", "1B", "B C", "B-1", "B\n", "", "sin", "cos", 7],
)
def test_parameter_rejects_names_that_do_not_print_back(name):
    # x1 would print as the state variable, the others as text parse rejects
    with pytest.raises(ExprError, match="invalid parameter name"):
        Parameter(name)


def test_parameter_names_round_trip_through_printing(rng):
    letters = list("x1_0aBs")
    accepted = 0
    for _ in range(400):
        name = "".join(rng.choice(letters, size=int(rng.integers(1, 5))))
        try:
            p = Parameter(name)
        except ExprError:
            assert name[0].isdigit() or re.fullmatch(r"x\d+", name)
            continue
        accepted += 1
        e = Add(Mul(p, X1), Sin(Div(p, Negate(p))))
        assert parse(str(e), 4).expr == e
    assert accepted > 100


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("x5", "out of range"),
        ("x0", "out of range"),
        ("x1 +", "expected"),
        ("x1^x2", "exponent"),
        ("x1^-2", "exponent"),
        ("x1^2.5", "exponent"),
        ("sin x1", "expected '('"),
        ("(x1", "expected ')'"),
        ("", "expected"),
        ("x1/0", "division by zero"),
        ("x1 $ x2", "unexpected character"),
        ("x1 x2", "unexpected"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ParseError) as err:
        parse(text, 4)
    assert fragment in str(err.value)
    assert isinstance(err.value.position, int)


def test_parse_rejects_bad_dimension():
    with pytest.raises(ExprError):
        parse("x1", 0)


# the parser as it was before its two binary levels became one loop, kept as the reference
_REFERENCE_TOKEN_RE = re.compile(
    r"(?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<symbol>[-+*/^()])"
)


@dataclass
class _ReferenceToken:
    kind: str  # "number" | "ident" | "symbol" | "end"
    text: str
    position: int
    value: int | float | None = None


def _reference_tokenize(text: str) -> list[_ReferenceToken]:
    tokens: list[_ReferenceToken] = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            literal = m.group()
            value = int(literal) if _INT_RE.match(literal) else float(literal)
            tokens.append(_ReferenceToken("number", literal, pos, value))
        elif m.lastgroup == "ident":
            tokens.append(_ReferenceToken("ident", m.group(), pos))
        else:
            tokens.append(_ReferenceToken("symbol", m.group(), pos))
        pos = m.end()
    tokens.append(_ReferenceToken("end", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, tokens: list[_ReferenceToken], dim: int):
        self.tokens = tokens
        self.pos = 0
        self.dim = dim

    def peek(self) -> _ReferenceToken:
        return self.tokens[self.pos]

    def advance(self) -> _ReferenceToken:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at_symbol(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "symbol" and token.text in symbols

    def parse(self) -> Expr:
        expr = self.expression()
        token = self.peek()
        if token.kind != "end":
            raise ParseError(f"unexpected {token.text!r}", token.position)
        return expr

    def expression(self) -> Expr:
        left = self.term()
        while self.at_symbol("+", "-"):
            op = self.advance()
            right = self.term()
            left = Add(left, right) if op.text == "+" else Sub(left, right)
        return left

    def term(self) -> Expr:
        left = self.power()
        while self.at_symbol("*", "/"):
            op = self.advance()
            right = self.power()
            if op.text == "*":
                left = Mul(left, right)
            else:
                try:
                    left = Div(left, right)
                except ExprError:
                    raise ParseError("division by zero constant", op.position) from None
        return left

    def power(self) -> Expr:
        base = self.unary()
        while self.at_symbol("^"):
            caret = self.advance()
            token = self.peek()
            if token.kind != "number" or not isinstance(token.value, int):
                raise ParseError(
                    "exponent must be a non-negative integer literal", caret.position
                )
            self.advance()
            base = IntPow(base, token.value)
        return base

    def unary(self) -> Expr:
        if self.at_symbol("-"):
            self.advance()
            token = self.peek()
            if token.kind == "number":
                # negative literal, so printed constants re-parse identically
                self.advance()
                return Constant(-token.value)
            return Negate(self.unary())
        return self.atom()

    def atom(self) -> Expr:
        token = self.advance()
        if token.kind == "number":
            return Constant(token.value)
        if token.kind == "ident":
            if token.text in _FUNCTION_NODES:
                if not self.at_symbol("("):
                    raise ParseError(
                        f"expected '(' after function {token.text!r}",
                        self.peek().position,
                    )
                self.advance()
                argument = self.expression()
                self.expect_close()
                return _FUNCTION_NODES[token.text](argument)
            m = _STATEVAR_RE.match(token.text)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= self.dim:
                    raise ParseError(
                        f"state index {index} out of range 1..{self.dim}",
                        token.position,
                    )
                return StateVar(index)
            return Parameter(token.text)
        if token.kind == "symbol" and token.text == "(":
            inner = self.expression()
            self.expect_close()
            return inner
        raise ParseError(
            f"expected a number, identifier, or '(', got {token.text or 'end of input'!r}",
            token.position,
        )

    def expect_close(self) -> None:
        token = self.peek()
        if not self.at_symbol(")"):
            raise ParseError("expected ')'", token.position)
        self.advance()


def _reference_parse(text, dim):
    return ScalarField(_ReferenceParser(_reference_tokenize(text), dim).parse(), dim)


def _outcome(parser, text, dim):
    try:
        return repr(parser(text, dim))
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


_FRAGMENTS = (
    "x1 x4 x5 x0 x12 B G _a 1B sin cos 2 0 3.5 1e3 .5 2. ( ) + - * / ^ $".split() + [" ", "  "]
)


def _texts_in(path):
    # every string literal in the file, and the value of each of its "key = value" lines
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
            for line in node.value.splitlines():
                yield line.partition("=")[2]


def test_parser_matches_the_reference_on_random_texts():
    rng = random.Random(0)
    for _ in range(20_000):
        text = "".join(rng.choices(_FRAGMENTS, k=rng.randint(0, 9)))
        dim = rng.randint(1, 5)
        assert _outcome(parse, text, dim) == _outcome(_reference_parse, text, dim), text


@pytest.mark.parametrize(
    "text",
    ["x1 ) " + "9" * 5000, "x1^" + "2" * 5000, "1e999", "-1e999", "\u0663 * x1", "x1\u00a0+\u2003x2",
     "x1 + \u00e9", "-0", "- 0.0", "x1 / -0", "x1/0.0*2", "2^3^2", "-x1^2", "sin(x1", "cos", "( )"],
)
def test_parser_matches_the_reference_on_edge_texts(text):
    for dim in (1, 2):
        assert _outcome(parse, text, dim) == _outcome(_reference_parse, text, dim)


def test_parser_matches_the_reference_on_every_text_of_the_package_and_its_tests():
    root = pathlib.Path(__file__).resolve().parent.parent
    texts = {t for p in sorted(root.glob("src/switchlin/*.py")) + sorted(root.glob("tests/*.py"))
             for t in _texts_in(p) if len(t) < 200}
    assert {"B*(x1*x4*x4 - G*sin(x3))", "2*B*x2*x4 - B*G*cos(x3)", " x2"} <= texts
    for text in sorted(texts):
        for dim in (1, 2, 4):
            assert _outcome(parse, text, dim) == _outcome(_reference_parse, text, dim), text


def test_parse_reports_nesting_past_the_stack_as_a_parse_error():
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse("(" * 300 + "x1" + ")" * 300, 1)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_sin_at_zero():
    assert parse("sin(x3)", 4).evaluate(bind((0, 0, 0, 0))) == 0.0


def test_eval_coefficient_value():
    field = parse("2*B*x1*x4", 4)
    value = field.evaluate(bind((1, 0, 0, 1), B=Fraction(5, 7)))
    assert value == float(Fraction(10, 7))


def test_eval_velocity_equation_value():
    field = parse("B*(x1*x4^2 - G*sin(x3))", 4)
    value = field.evaluate(bind((1, 0, 0, 2), B=5 / 7, G=9.81))
    # hand substitution: (5/7) * (1*4 - 0) = 20/7
    assert value == pytest.approx(20 / 7, rel=1e-15)


def test_eval_exact_over_rationals():
    field = parse("(1/3)*x1 + 2/3", 1)
    assert field.evaluate(bind((Fraction(1),))) == 1.0


def test_eval_unbound_parameter():
    with pytest.raises(EvaluationError, match="unbound parameter 'B'"):
        parse("B*x1", 4).evaluate(bind((1, 0, 0, 0)))


def test_eval_division_by_zero_carries_subexpression():
    field = parse("x1/x2", 4)
    with pytest.raises(EvaluationError) as err:
        field.evaluate(bind((1, 0, 0, 0)))
    assert isinstance(err.value.expression, Div)


def test_eval_state_vector_too_short():
    with pytest.raises(EvaluationError, match="x4"):
        evaluate(X4, Bindings({}, (1.0, 2.0)))


def test_evaluate_many_uses_ieee_division():
    # the vectorised path deliberately skips the exact-zero check
    field = parse("1/x1", 2)
    values = field.evaluate_many({}, np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert values[0] == 0.5
    assert np.isinf(values[1])


def test_evaluate_many_compiles_each_kernel_once():
    from switchlin import expr

    expr._compile.cache_clear()
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    field = parse("B*x1 + x2", 2)
    first = field.evaluate_many({"B": 2.0}, states)
    second = parse("B*x1 + x2", 2).evaluate_many({"B": -1.0}, states)  # an equal tree
    info = expr._compile.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.tolist() == [4.0, 10.0] and second.tolist() == [1.0, 1.0]


def test_evaluate_many_tells_signed_zero_constants_apart():
    # the trees compare equal, but their kernels differ in the sign of zero
    plus, minus = Mul(Constant(0.0), X1), Mul(Constant(-0.0), X1)
    assert plus == minus
    states = np.array([[1.0]])
    assert math.copysign(1.0, evaluate_many(plus, {}, states)[0]) == 1.0
    assert math.copysign(1.0, evaluate_many(minus, {}, states)[0]) == -1.0


def test_evaluate_many_emits_each_tree_once_per_width(monkeypatch):
    from switchlin import expr

    emitted = []

    def counting_emit(exprs, *args, **options):
        emitted.append(exprs)
        return emit(exprs, *args, **options)

    emit = expr._emit
    monkeypatch.setattr(expr, "_emit", counting_emit)
    field = parse("B*x1 + sin(x2)", 2)
    for b in (2.0, -1.0, 0.5):
        assert field.evaluate_many({"B": b}, [[1.0, 0.0]]).tolist() == [b]
    assert emitted == [(field.expr,)]
    assert field.evaluate_many({"B": 3.0}, [[1.0, 0.0, 7.0]]).tolist() == [3.0]  # a second width
    assert emitted == [(field.expr,)] * 2
    with pytest.raises(EvaluationError, match="unbound parameter 'B'"):  # bound per call
        field.evaluate_many({}, [[1.0, 0.0]])
    assert len(emitted) == 2


def test_signed_zero_trees_keep_their_own_kernels():
    plus, minus = X1 * 0.0, X1 * -0.0
    assert plus == minus
    states = np.array([[1.0]])
    assert math.copysign(1.0, evaluate_many(plus, {}, states)[0]) == 1.0
    assert math.copysign(1.0, evaluate_many(minus, {}, states)[0]) == -1.0
    assert plus._kernels[1][0] is not minus._kernels[1][0]


def _law_descriptors():
    return [law_descriptor(1), law_descriptor(2), law_descriptor(3),
            law_descriptor(3, g_modified=True)]


def _law_trees(law):
    fields = (law.coefficient, law.offset, *(f.field for f in law.factors), *law.coordinates)
    return [f.expr for f in fields]


def test_trees_fields_and_laws_pickle_without_their_kernels(rng):
    import pickle

    from switchlin.expr import _nodes

    params, states = {"B": 5 / 7, "G": 9.81}, rng.uniform(-1, 1, (5, 4))
    field = parse("B*x1/(x2 - G) + cos(x3)^2", 4)
    laws = _law_descriptors()
    for f in (field, *(ScalarField(t, 4) for law in laws for t in _law_trees(law))):
        f.evaluate_many(params, states)
    assert 4 in field.expr._kernels and 4 in laws[0].coefficient.expr._kernels
    for value in (field.expr, field, *laws):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value
        trees = [copy] if value is field.expr else [copy.expr] if value is field else _law_trees(copy)
        for tree in trees:
            assert not any("_kernels" in vars(node) for node in _nodes(tree))
    copy = pickle.loads(pickle.dumps(field))
    assert copy.evaluate_many(params, states).tobytes() == field.evaluate_many(params, states).tobytes()


def test_walk_helpers():
    from switchlin.expr import parameter_names, state_indices

    expr = parse("B*(x1*x4^2 - G*sin(x3))", 4).expr
    assert parameter_names(expr) == frozenset({"B", "G"})
    assert state_indices(expr) == frozenset({1, 3, 4})


def test_evaluate_many_matches_scalar(rng):
    field = parse("B*(x1*x4^2 - G*sin(x3)) + cos(x2)/(x1^2 + 1)", 4)
    params = {"B": 5 / 7, "G": 9.81}
    states = rng.uniform(-2, 2, size=(64, 4))
    batch = field.evaluate_many(params, states)
    single = [field.evaluate(Bindings(params, tuple(s))) for s in states]
    np.testing.assert_allclose(batch, single, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# differentiation


def test_diff_bilinear_product():
    result = parse("2*B*x1*x4", 4).differentiate(4)
    assert result.expr == parse("2*B*x1", 4).expr


def test_diff_sine_chain():
    result = parse("-B*G*sin(x3)", 4).differentiate(3)
    assert result.expr == parse("-B*G*cos(x3)", 4).expr


def test_diff_power_coefficient():
    result = parse("B*x4^2*x1", 4).differentiate(1)
    assert result.expr == parse("B*x4^2", 4).expr


@pytest.mark.parametrize(
    "text, var, expected",
    [
        ("(x1*x2 + B)/(x1 - x4)", 1, "(x2*(x1 - x4) - (x1*x2 + B))/(x1 - x4)^2"),
        ("(x1*x2 + B)/(x1 - x4)", 4, "(x1*x2 + B)/(x1 - x4)^2"),
        ("x2*x1^0 + x1^0", 1, "0"),
        ("x2*x1^0", 2, "1"),
    ],
    ids=["quotient", "quotient, denominator only", "power 0", "power 0 as a factor"],
)
def test_diff_is_exact_on_rational_states(rng, text, var, expected):
    # the quotient rule, and x^0 whose derivative is 0, against closed forms at exact states
    derivative = parse(text, 4).differentiate(var)
    closed_form = parse(expected, 4)
    for _ in range(20):
        state = tuple(Fraction(int(v), 7) for v in rng.integers(-20, 21, size=4))
        if state[0] == state[3]:
            continue
        at_state = bind(state, B=Fraction(5, 7))
        assert derivative.evaluate(at_state) == closed_form.evaluate(at_state)


def test_substitute_reaches_inside_an_integer_power():
    field = parse("sin(x3)^2 + x1*cos(x3)^0", 4).expr
    replaced = _substitute(field, {Sin(X3): StateVar(9), Cos(X3): StateVar(10)})
    assert replaced == Add(IntPow(StateVar(9), 2), Mul(X1, IntPow(StateVar(10), 0)))


def test_diff_out_of_range():
    with pytest.raises(ExprError):
        parse("x1", 2).differentiate(3)


def _central_difference(field, params, states, var, step=1e-5):
    shift = np.zeros(states.shape[1])
    shift[var - 1] = step
    upper = field.evaluate_many(params, states + shift)
    lower = field.evaluate_many(params, states - shift)
    return (upper - lower) / (2 * step)


def _repo_fields():
    sys4 = symbolic_system()
    fields = [ScalarField(c, 4) for c in sys4.f.components]
    fields.append(sys4.h)
    for law_id in (1, 2, 3):
        descriptor = law_descriptor(law_id)
        fields.extend([descriptor.coefficient, descriptor.offset])
        fields.extend(f.field for f in descriptor.factors)
    alt = law_descriptor(3, g_modified=True)
    fields.append(alt.coefficient)
    fields.append(parse("B*x2*x4^2 - B*G*x4*cos(x3)", 4))
    return fields


def test_symbolic_derivatives_match_finite_differences(rng):
    # every field the package ships, 1000 random states in [-2, 2]^4
    params = {"B": 5 / 7, "G": 9.81}
    states = rng.uniform(-2, 2, size=(1000, 4))
    for field in _repo_fields():
        for var in range(1, 5):
            symbolic = field.differentiate(var).evaluate_many(params, states)
            numeric = _central_difference(field, params, states, var)
            scale = np.maximum(1.0, np.abs(symbolic))
            assert np.max(np.abs(symbolic - numeric) / scale) < 1e-6


# ---------------------------------------------------------------------------
# simplification


def test_simplify_strips_zero_product():
    assert parse("0*x1 + x2", 4).simplified().expr == X2


def test_simplify_folds_constants():
    assert parse("x4*0 + 1*(2*B)", 4).simplified().expr == Mul(Constant(2), B)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x1^0", Constant(1)),
        ("x1^1", X1),
        ("-(-x1)", X1),
        ("sin(0)", Constant(0)),
        ("cos(0)", Constant(1)),
        ("x1 - x1", Constant(0)),
        ("0 - x1", Negate(X1)),
        ("x1 - 0", X1),
        ("0 + x1", X1),
        ("x1/1", X1),
        ("6/2", Constant(3)),
        ("2^3", Constant(8)),
        ("1.5*2", Constant(3.0)),
    ],
)
def test_simplify_rule_table(text, expected):
    assert simplify(parse(text, 4).expr) == expected


def test_simplify_keeps_exact_ratio_as_division():
    # 5/7 is not an integer, so it must survive as a division node for the
    # print/parse round trip to stay structural
    assert simplify(parse("5/7", 4).expr) == Div(Constant(5), Constant(7))


def test_simplify_never_creates_zero_denominator():
    field = parse("x1/(3 - 3)", 4)
    simplified = field.simplified()
    assert isinstance(simplified.expr, Div)
    assert simplified.expr.right != Constant(0)
    with pytest.raises(EvaluationError):
        simplified.evaluate(bind((1, 0, 0, 0)))


def test_div_constructor_rejects_zero_denominator():
    with pytest.raises(ExprError):
        Div(X1, Constant(0))
    with pytest.raises(ExprError):
        X1 / 0


def _random_tree(rng, depth, rational_only):
    if depth == 0 or rng.random() < 0.25:
        kind = rng.integers(0, 3)
        if kind == 0:
            if rational_only or rng.random() < 0.5:
                return Constant(int(rng.integers(-4, 5)))
            return Constant(float(np.round(rng.uniform(-4, 4), 3)))
        if kind == 1:
            return Parameter(str(rng.choice(["a", "b"])))
        return StateVar(int(rng.integers(1, 5)))
    op = rng.integers(0, 8)
    left = _random_tree(rng, depth - 1, rational_only)
    right = _random_tree(rng, depth - 1, rational_only)
    if op == 0:
        return Add(left, right)
    if op == 1:
        return Sub(left, right)
    if op == 2:
        return Mul(left, right)
    if op == 3:
        if isinstance(right, Constant) and right.value == 0:
            right = Constant(1)
        return Div(left, right)
    if op == 4:
        return Negate(left)
    if op == 5:
        return IntPow(left, int(rng.integers(0, 4)))
    if op == 6:
        return Sin(left)
    return Cos(left)


def test_simplify_soundness_rational_trees(rng):
    checked = 0
    while checked < 1000:
        tree = _random_tree(rng, int(rng.integers(1, 5)), rational_only=True)
        bindings = Bindings(
            {"a": Fraction(int(rng.integers(-3, 4)), 2), "b": Fraction(int(rng.integers(1, 5)))},
            tuple(Fraction(int(v), 4) for v in rng.integers(-8, 9, size=4)),
        )
        try:
            original = evaluate(tree, bindings)
        except EvaluationError:
            continue
        assert evaluate(simplify(tree), bindings) == original
        checked += 1


def test_simplify_soundness_float_trees(rng):
    checked = 0
    while checked < 1000:
        tree = _random_tree(rng, int(rng.integers(1, 5)), rational_only=False)
        bindings = Bindings(
            {"a": float(rng.uniform(-2, 2)), "b": float(rng.uniform(0.5, 2))},
            tuple(float(v) for v in rng.uniform(-2, 2, size=4)),
        )
        try:
            original = evaluate(tree, bindings)
        except EvaluationError:
            continue
        simplified = evaluate(simplify(tree), bindings)
        assert simplified == pytest.approx(original, rel=1e-12, abs=1e-12)
        checked += 1


def _shipped_trees():
    system = symbolic_system()
    chain = system.chain
    return [
        *(f.expr for f in (*chain.outputs, *chain.mixed)),
        *(c for v in system.bracket_tower for c in v.components),
        *(t for law in _law_descriptors() for t in _law_trees(law)),
    ]


def test_simplify_returns_a_simplified_tree_itself():
    for tree in _shipped_trees():
        simplified = simplify(tree)
        assert simplify(simplified) is simplified


def _reference_rewrite_step(node):
    # the rule set as one match over every node type, first match wins
    match node:
        case Negate(operand=Constant(value=v)):
            return Constant(-v)
        case Negate(operand=Negate(operand=e)):
            return e
        case Add(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a + b)
        case Add(left=l, right=r) if _is_zero(l):
            return r
        case Add(left=l, right=r) if _is_zero(r):
            return l
        case Sub(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a - b)
        case Sub(left=l, right=r) if _is_zero(r):
            return l
        case Sub(left=l, right=r) if _is_zero(l):
            return Negate(r)
        case Sub(left=l, right=r) if l == r:
            return Constant(0)
        case Mul(left=Constant(value=a), right=Constant(value=b)):
            return Constant(a * b)
        case Mul(left=l, right=r) if _is_zero(l) or _is_zero(r):
            return Constant(0)
        case Mul(left=Constant(value=1), right=r):
            return r
        case Mul(left=l, right=Constant(value=1)):
            return l
        case Div(left=Constant(value=a), right=Constant(value=b)):
            if isinstance(a, float) or isinstance(b, float):
                return Constant(a / b)
            quotient = Fraction(a, b)
            if quotient.denominator == 1:
                return Constant(int(quotient))
            return None  # exact non-integer ratio: keep the division node
        case Div(left=l, right=Constant(value=1)):
            return l
        case IntPow(exponent=0):
            return Constant(1)
        case IntPow(base=b, exponent=1):
            return b
        case IntPow(base=Constant(value=v), exponent=n):
            return Constant(v**n)
        case Sin(argument=Constant(value=v)) if v == 0:
            return Constant(0)
        case Cos(argument=Constant(value=v)) if v == 0:
            return Constant(1)
    return None


def _reference_simplify(expr):
    # bottom-up, every node rebuilt from its simplified children
    children = [_reference_simplify(child) for child in _children(expr)]
    match expr:
        case Constant() | Parameter() | StateVar():
            return expr
        case IntPow(exponent=n):
            node = IntPow(*children, n)
        case Div(right=r) if _is_zero(children[1]):
            node = Div(children[0], r)
        case _:
            node = type(expr)(*children)
    while (rewritten := _reference_rewrite_step(node)) is not None:
        node = rewritten
    return node


_REWRITE_CONSTANTS = (0, 1, 0.0, -0.0, 1.0, -1, 2, -3, 2.5, -0.75, 1e-3)


def _rewrite_tree(rng, depth):
    # every node type; leaves often the constants the rules single out
    if depth == 0 or rng.random() < 0.3:
        kind = rng.integers(0, 4)
        if kind < 2:
            return Constant(_REWRITE_CONSTANTS[int(rng.integers(len(_REWRITE_CONSTANTS)))])
        return Parameter("a") if kind == 2 else StateVar(int(rng.integers(1, 3)))
    left, right = _rewrite_tree(rng, depth - 1), _rewrite_tree(rng, depth - 1)
    match int(rng.integers(0, 8)):
        case 0:
            return Add(left, right)
        case 1:
            return Sub(left, right if rng.random() < 0.8 else left)
        case 2:
            return Mul(left, right)
        case 3:
            return Div(left, Constant(2) if _is_zero(right) else right)
        case 4:
            return Negate(left)
        case 5:
            return IntPow(left, int(rng.integers(0, 4)))
        case 6:
            return Sin(left)
    return Cos(left)


def test_rewrite_step_tries_a_nodes_own_rules_as_the_one_match_did(rng):
    from switchlin.expr import _RULES, _diff, _nodes, _rewrite_step

    shipped = _shipped_trees()
    random_trees = [_rewrite_tree(rng, int(rng.integers(1, 6))) for _ in range(1500)]
    derivatives = [_diff(tree, var) for tree in (*shipped, *random_trees[:500]) for var in range(1, 5)]
    rewritten = set()
    for tree in (*shipped, *random_trees, *derivatives):
        for node in _nodes(tree):
            want = _reference_rewrite_step(node)
            own_rules = _RULES.get(type(node), lambda node: None)  # leaves have none
            for got in (_rewrite_step(node), own_rules(node)):
                assert repr(got) == repr(want)  # repr tells 0 from 0.0 from -0.0
                if any(want is part for part in _nodes(node)):
                    assert got is want
            if want is not None:
                rewritten.add(type(node))
    assert rewritten == {Negate, Add, Sub, Mul, Div, IntPow, Sin, Cos}
    for tree in random_trees:
        assert repr(simplify(tree)) == repr(_reference_simplify(tree))


# ---------------------------------------------------------------------------
# printing


def test_print_is_fully_parenthesised():
    assert to_text(parse("2*B*x1*x4", 4).expr) == "(((2*B)*x1)*x4)"
    assert to_text(parse("-x1^2", 4).expr) == "((-x1)^2)"
    assert to_text(Sin(Add(X1, Constant(1)))) == "sin((x1 + 1))"


def test_round_trip_repo_fields():
    for field in _repo_fields():
        assert parse(to_text(field.expr), 4).expr == field.expr
        simplified = simplify(field.expr)
        assert parse(to_text(simplified), 4).expr == simplified


def test_round_trip_parsed_and_simplified_random_trees(rng):
    for _ in range(400):
        tree = _random_tree(rng, int(rng.integers(1, 5)), rational_only=False)
        # parse(print(.)) is idempotent from the first application onward
        once = parse(to_text(tree), 4).expr
        assert parse(to_text(once), 4).expr == once
        simplified = simplify(tree)
        assert parse(to_text(simplified), 4).expr == simplified


# ---------------------------------------------------------------------------
# gradient and field types


def test_gradient_coordinate_fields():
    grad = parse("x1", 4).gradient()
    assert [g.expr for g in grad] == [Constant(1), Constant(0), Constant(0), Constant(0)]
    grad = parse("x4", 4).gradient()
    assert [g.expr for g in grad] == [Constant(0), Constant(0), Constant(0), Constant(1)]


def test_gradient_cosine():
    grad = parse("cos(x3)", 4).gradient()
    assert [g.expr for g in grad] == [
        Constant(0),
        Constant(0),
        Negate(Sin(X3)),
        Constant(0),
    ]


def test_scalar_field_rejects_out_of_range_index():
    with pytest.raises(ExprError):
        ScalarField(X4, 3)


def test_vector_field_dimension_checks():
    with pytest.raises(ExprError):
        VectorField((X3, X1))  # x3 outside a 2-component field
    field = VectorField.of(X2, 0)
    assert field.dim == 2
    assert field.component_field(1).expr == X2


def test_constant_rejects_non_numeric():
    with pytest.raises(ExprError):
        Constant("1")
    with pytest.raises(ExprError):
        Constant(float("nan"))
    with pytest.raises(ExprError):
        Constant(True)


def test_intpow_rejects_bad_exponent():
    with pytest.raises(ExprError):
        IntPow(X1, -1)
    with pytest.raises(ExprError):
        IntPow(X1, 1.5)


# ---------------------------------------------------------------------------
# compiled evaluation


def test_evaluate_many_keeps_user_names_out_of_generated_code(rng):
    # "lambda" is a Python keyword and "sum" a builtin
    field = parse("lambda*x1 + sum", 1)
    params = {"lambda": 2.0, "sum": 0.5}
    states = rng.uniform(-2, 2, size=(16, 1))
    batch = field.evaluate_many(params, states)
    assert batch.tolist() == [field.evaluate(Bindings(params, tuple(s))) for s in states]


def test_evaluate_many_unbound_parameter():
    with pytest.raises(EvaluationError, match="unbound parameter 'B'"):
        parse("B*x1", 4).evaluate_many({}, np.zeros((3, 4)))


def test_evaluate_many_state_array_too_narrow():
    with pytest.raises(EvaluationError, match="x4"):
        parse("x1 + x4", 4).evaluate_many({}, np.zeros((3, 2)))


def test_evaluate_many_is_thread_safe_on_the_law_factors(rng):
    # coverage_check evaluates in two threads at once; each thread's errstate stays its own,
    # so the non-finite rows' invalid operations stay silent and the caller's state is kept
    params = {"B": 5 / 7, "G": 9.81}
    fields = [
        factor.field
        for law_id, g_modified in ((1, False), (2, False), (3, True))
        for factor in law_descriptor(law_id, g_modified=g_modified).factors
    ]
    states = rng.uniform(-2, 2, size=(4096, 4))
    states[:3] = [[np.inf, 0.0, np.inf, np.inf], [0.0, np.inf, -np.inf, 0.0], [np.nan] * 4]
    serial = [field.evaluate_many(params, states).tobytes() for field in fields]
    before = np.geterr()
    barrier = threading.Barrier(2)
    results = [[], []]

    def evaluate_repeatedly(out):
        barrier.wait()
        for _ in range(50):
            out.append([field.evaluate_many(params, states).tobytes() for field in fields])

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        threads = [threading.Thread(target=evaluate_repeatedly, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert [len(out) for out in results] == [50, 50]
    assert all(arrays == serial for out in results for arrays in out)
    assert caught == []
    assert np.geterr() == before


def test_evaluate_many_matches_exact_evaluation_on_law_fields(rng):
    # the compiled numpy kernel performs the operations of the exact
    # evaluator in the same order, so each law field agrees with == on
    # every state, not just to a tolerance
    params = {"B": 5 / 7, "G": 9.81}
    fields = []
    for law_id in (1, 2, 3):
        law = law_descriptor(law_id)
        fields.extend([law.coefficient, law.offset, *law.coordinates])
    states = rng.uniform(-2, 2, size=(200, 4))
    exact = [tuple(float(v) for v in state) for state in states]
    for field in fields:
        assert field.evaluate_many(params, states).tolist() == [
            field.evaluate(Bindings(params, x)) for x in exact
        ]

# ---------------------------------------------------------------------------
# shared subexpressions


def _numpy_walk(node, params, columns):
    # the operations an emitted kernel performs, one tree node at a time and nothing shared
    match node:
        case Constant(value=v):
            return float(v)
        case Parameter(name=n):
            return float(params[n])
        case StateVar(index=i):
            return columns[i - 1]
        case Negate(operand=e):
            return -_numpy_walk(e, params, columns)
        case Add(left=l, right=r):
            return _numpy_walk(l, params, columns) + _numpy_walk(r, params, columns)
        case Sub(left=l, right=r):
            return _numpy_walk(l, params, columns) - _numpy_walk(r, params, columns)
        case Mul(left=l, right=r):
            return _numpy_walk(l, params, columns) * _numpy_walk(r, params, columns)
        case Div(left=l, right=r):
            return _numpy_walk(l, params, columns) / _numpy_walk(r, params, columns)
        case IntPow(base=b, exponent=n):
            return _numpy_walk(b, params, columns) ** n
        case Sin(argument=a):
            return np.sin(_numpy_walk(a, params, columns))
        case Cos(argument=a):
            return np.cos(_numpy_walk(a, params, columns))
    raise TypeError(node)


def test_emit_computes_each_shared_subtree_once():
    from switchlin.expr import _emit

    offset = parse("B*G*x4*x4*sin(x3)", 4).expr
    coordinate = parse("-B*G*sin(x3)", 4).expr
    exprs = [offset, coordinate, parse("cos(x3)", 4).expr]
    sources, names = _emit(exprs, 4)
    assert names == {"B": "p0", "G": "p1"}
    assert sources[0] == "((((p0 * p1) * x4) * x4) * (t0 := sin(x3)))"
    assert sources[1:] == ["(((-p0) * p1) * t0)", "cos(x3)"]


def test_code_names_never_meet_user_names(rng):
    # parameters named like the code _emit writes: p<k>, t<k> and the laws' p<id>_<k>
    from switchlin.expr import _emit

    params = {"p0": 0.5, "p1": -2.0, "t0": 3.0, "p1_0": 0.25}
    expr = parse("p1_0*x1 - t0*sin(p0*x2) + p1/(x1*x1 + 1.5) + x1*x1", 2).expr
    states = rng.uniform(-2.0, 2.0, size=(64, 2))
    expected = [evaluate(expr, Bindings(params, tuple(x))) for x in states.tolist()]
    assert evaluate_many(expr, params, states).tobytes() == np.array(expected).tobytes()
    assert ":=" in _emit_source(expr)  # x1*x1 is shared, so a t<k> is written
    _, names = _emit([expr], 2, prefix="p3_")
    assert names == {"p1_0": "p3_0", "t0": "p3_1", "p0": "p3_2", "p1": "p3_3"}
    _, names = _emit([law_descriptor(2).coefficient.expr], 4, prefix="p3_")
    assert names == {"B": "p3_0", "G": "p3_1"}


def test_emit_keeps_signed_zero_subtrees_apart():
    # (0.0)*x1 and (-0.0)*x1 compare equal as trees; each is computed, and shared, on its own
    from switchlin.expr import _emit

    plus, minus = Mul(Constant(0.0), X1), Mul(Constant(-0.0), X1)
    assert plus == minus
    expr = Sub(Sub(minus, plus), Add(plus, minus))
    (source,), _ = _emit([expr], 1)
    assert source == "(((t0 := ((-0.0) * x1)) - (t1 := ((0.0) * x1))) - (t1 + t0))"
    value = evaluate_many(expr, {}, np.array([[1.0]]))[0]
    assert math.copysign(1.0, value) == math.copysign(1.0, evaluate(expr, Bindings({}, (1.0,))))
    assert math.copysign(1.0, value) == -1.0  # merging either way would give 0.0


def test_emit_keeps_the_first_operation_that_raises():
    # x1*x1 overflows before the shared x2*x2 underflows: a shared subtree is computed
    # where the expression first computes it, not ahead of the operations on its left
    shared = Mul(X2, X2)
    expr = Add(Mul(X1, X1), Add(shared, shared))
    states = np.array([[1e200, 1e-200]])
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError, match="overflow encountered in multiply"):
            evaluate_many(expr, {}, states)
        with pytest.raises(FloatingPointError, match="underflow encountered in multiply"):
            evaluate_many(expr, {}, states[:, ::-1])


def test_evaluate_many_with_shared_subtrees_matches_the_unshared_operations(rng):
    # derivatives repeat their operands; the kernel's bytes are those of an unshared walk
    params = {"B": 5 / 7, "G": 9.81, "a": -1.25, "b": 0.75}
    chain = symbolic_system().chain
    fields = [field.expr for field in (*_repo_fields(), *chain.outputs, *chain.mixed)]
    pool = [_random_tree(rng, 3, rational_only=False) for _ in range(12)]
    for _ in range(60):
        p, q = (pool[k] for k in rng.integers(0, len(pool), size=2))
        fields += [Add(Mul(p, q), Sub(q, Sin(p))), Mul(Sub(p, q), IntPow(Sub(p, q), 2))]
    states = rng.uniform(-2, 2, size=(256, 4))
    states[:6] = [[0.0, -0.0, 0.0, -0.0], [np.inf] * 4, [-np.inf] * 4, [np.nan] * 4,
                  [1e200, -1e200, 1e-200, 3.0], [0.5, np.inf, -0.0, 1e308]]
    def outcome(evaluate_rows):
        try:
            with np.errstate(all="ignore"):
                values = np.asarray(evaluate_rows(), dtype=float)
        except (ZeroDivisionError, OverflowError) as exc:  # parameter-only float operations
            return str(exc)
        return np.broadcast_to(values, (len(states),)).tobytes()

    shared = 0
    for expr in fields:
        expected = outcome(lambda: _numpy_walk(expr, params, list(states.T)))
        assert outcome(lambda: evaluate_many(expr, params, states)) == expected
        shared += ":=" in _emit_source(expr)
    assert shared > 10


def _emit_source(expr):
    from switchlin.expr import _emit

    return "".join(_emit([expr], 4)[0])


# ---------------------------------------------------------------------------
# interval bounds

_UNIT_BOX = [(-1.0, 1.0)] * 4
_LAW_3G_FACTOR = law_descriptor(3, g_modified=True).factors[0].field.expr
_BOUNDED = {
    **{f.label: f.field.expr for law in (law_descriptor(1), law_descriptor(2)) for f in law.factors},
    "law 3g": _LAW_3G_FACTOR,
    **{text: parse(text, 4).expr for text in (
        "sin(x3) - x1*x2", "cos(x1*x3)/(x4 + 3)", "B*x1 - G*sin(x2 + x3)"
    )},
}


def _seeded_boxes(count, seed, digits=2):
    """Boxes with centres up to +-10^digits (of log-spread magnitude), widths from 1e-6 to 3."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(0.0, digits, (count, 4))
    centres = rng.uniform(-1.0, 1.0, (count, 4)) * magnitudes
    widths = 10.0 ** rng.uniform(-6.0, math.log10(3.0), (count, 4))
    return [list(zip((c - w / 2).tolist(), (c + w / 2).tolist())) for c, w in zip(centres, widths)]


def _rows(box, rng, n=2_000):
    """n rows ``_box_sampler`` draws, and the 16 corners its scaling gives for u = 0 and u = 1."""
    corners = np.array(list(itertools.product([0.0, 1.0], repeat=len(box))))
    drawn = coverage._box_sampler(box, rng)(n, len(box))
    return np.vstack([drawn, coverage._box_scaler(box)(corners)])


def test_bounds_hold_every_value_evaluate_many_gives_on_the_box(params):
    rng = np.random.default_rng(29)
    checked = declined = 0
    for box in _seeded_boxes(3_000, seed=30):
        states = _rows(box, rng)
        for text, node in _BOUNDED.items():
            interval = bounds(node, box, params)
            if interval is None:  # only x4 + 3 may hold 0
                assert text == "cos(x1*x3)/(x4 + 3)" and box[3][0] <= -3.0 <= box[3][1]
                declined += 1
                continue
            values = evaluate_many(node, params, states)
            assert interval[0] <= values.min() and values.max() <= interval[1], (text, box)
            checked += 1
    assert checked > 20_000 and declined < 100


def test_bounds_of_sin_and_cos_hold_values_some_ulps_off():
    # neither numpy's nor math's sin and cos are correctly rounded everywhere: the bounds
    # must also hold what a sin or cos 8 ulps (of 1) away from this platform's gives; with
    # arguments up to 1e15, where a peak's place is known only to a fraction of pi
    rng = np.random.default_rng(31)
    off = 8 * np.spacing(1.0)
    for box in _seeded_boxes(1_000, seed=32, digits=15):
        states = _rows(box, rng, n=200)
        for node in (Sin(X3), Cos(X3), Cos(X1 * X3)):
            lo, hi = bounds(node, box, {})
            values = evaluate_many(node, {}, states)
            assert lo <= values.min() - off and values.max() + off <= hi


def test_bounds_of_a_state_are_what_the_sampler_makes_of_0_and_1():
    # [low, low + (high - low)], which need not end at high
    box = [(-2.1008643283878454, 1.2680616635929753)]
    low, high = box[0]
    assert low + (high - low) != high
    assert bounds(X1, box, {}) == (low, low + (high - low))
    assert coverage._box_scaler(box)(np.array([[0.0], [1.0]])).ravel().tolist() == [
        low, low + (high - low)
    ]


def test_bounds_prove_the_shipped_factors_nonzero_on_the_unit_box(params):
    lo, hi = bounds(Cos(X3), _UNIT_BOX, params)
    assert 0.54 < lo < math.cos(1.0) and hi >= 1.0
    lo, hi = bounds(_LAW_3G_FACTOR, _UNIT_BOX, params)
    assert hi < -2.35
    assert bounds(X1, _UNIT_BOX, params) == (-1.0, 1.0)
    # sin's peak at pi/2 lies in [1.5, 1.6], and [-1, 1] is all an interval pi wide gives
    assert bounds(Sin(X1), [(1.5, 1.6)], {})[1] >= 1.0
    assert bounds(Cos(X1), [(0.0, math.pi)], {}) == (-1 - 2.0**-48, 1 + 2.0**-48)


@pytest.mark.parametrize(
    "node, box",
    [
        (B * X1, _UNIT_BOX),  # an unbound parameter
        (X2 / (X1 + 0.5), _UNIT_BOX),  # a denominator interval holding 0
        (X2 / X1, [(0.0, 1.0)] * 2),  # ... at its end
        (IntPow(X1, 2), _UNIT_BOX),
        (Constant(1e200) * X1 * Constant(1e200), _UNIT_BOX),  # an overflowing node
        (X1 - X2, [(-1.7e308, -1e308), (1e308, 1.7e308)]),
        (X4, _UNIT_BOX[:3]),  # a state beyond the box
    ],
    ids=["unbound", "zero denominator", "zero end", "intpow", "overflow", "overflow in -", "x4"],
)
def test_bounds_decline_what_they_cannot_bound(node, box):
    assert bounds(node, box, {"G": 9.81}) is None
