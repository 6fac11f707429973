import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pwsfold import expr
from pwsfold.exceptions import EvaluationError, ParseError, ValidationError
from pwsfold.regularize import builtin_sigmoid, compile_regularized_field
from pwsfold.sim import example_system


def ev(text, x1=0.0, x2=0.0, x3=0.0, lam=0.0):
    return expr.evaluate(expr.parse_expression(text), x1, x2, x3, lam)


class TestParse:
    def test_single_unary_node(self):
        assert expr.parse_expression("-x2") == expr.Neg(expr.Var("x2"))

    def test_attractor_component(self):
        assert ev("3/10*x2 - 1/5*x2*x3 - 2/5", x2=1.0, x3=1.0) == pytest.approx(-0.3)

    def test_trailing_operator_position(self):
        with pytest.raises(ParseError) as err:
            expr.parse_expression("x1 +")
        assert err.value.position == 4

    def test_empty(self):
        with pytest.raises(ParseError):
            expr.parse_expression("   ")

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            expr.parse_expression("x1 + y")

    @pytest.mark.parametrize("text", ["x1*²", "x1^²"])
    def test_non_decimal_digit_is_a_parse_error(self, text):
        # str.isdigit() holds for '²' but float() and int() reject it: the
        # error used to escape as a raw ValueError without the offset
        with pytest.raises(ParseError) as err:
            expr.parse_expression(text)
        assert err.value.position == 3

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            expr.parse_expression("exp(x1)")

    def test_precedence_pow_over_unary_minus(self):
        # -x2^2 is -(x2^2)
        assert ev("-x2^2", x2=3.0) == -9.0

    def test_precedence_mul_over_add(self):
        assert ev("1 + 2*3") == 7.0

    def test_left_associative_sub(self):
        assert ev("8 - 3 - 2") == 3.0

    def test_left_associative_div(self):
        assert ev("16 / 4 / 2") == 2.0

    def test_pow_chain_left_associative(self):
        assert ev("x1^2^3", x1=2.0) == 64.0  # (2^2)^3

    def test_negative_exponent(self):
        assert ev("x1^-2", x1=2.0) == 0.25

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ParseError, match="integer"):
            expr.parse_expression("x1^1.5")

    def test_functions(self):
        assert ev("sin(0) + cos(0) + tanh(0) + sqrt(4) + abs(-2)") == 5.0

    def test_lambda_is_a_variable(self):
        assert ev("1 - 2*lambda^2", lam=1.0) == -1.0


class TestNesting:
    @pytest.mark.parametrize("open_, close", [("(", ")"), ("sin(", ")"), ("-", "")])
    def test_bound_on_nesting_depth(self, open_, close):
        n = expr.MAX_NESTING
        expr.parse_expression(open_ * n + "x2" + close * n)
        with pytest.raises(ParseError) as err:
            expr.parse_expression(open_ * (n + 1) + "x2" + close * (n + 1))
        assert err.value.position == n * len(open_)

    def test_too_deep_to_compile_is_a_validation_error(self):
        # parses (the sum nests left, not in the parser), but its source
        # nests 250 parentheses deep, past Python's limit of 200
        tree = expr.parse_expression("+".join(["x2"] * 250))
        assert expr.evaluate(tree, 0.0, 1.0, 0.0, 0.0) == 250.0
        with pytest.raises(ValidationError, match="too deeply nested"):
            expr.compile_expression(tree)


class TestEvaluate:
    def test_plain_difference(self):
        assert ev("x3 - x2", x2=1.0, x3=2.0) == 1.0

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            ev("1/x1", x1=0.0)

    def test_sqrt_domain(self):
        with pytest.raises(EvaluationError):
            ev("sqrt(x1)", x1=-1.0)

    def test_nonfinite_binding(self):
        e = expr.parse_expression("x1")
        with pytest.raises(EvaluationError):
            expr.evaluate(e, math.inf, 0.0, 0.0, 0.0)

    def test_overflow_reported(self):
        with pytest.raises(EvaluationError):
            ev("(x1^8)^8", x1=1e38)


class TestDifferentiate:
    def test_polynomial_rule(self):
        d = expr.differentiate(expr.parse_expression("(1-lambda^2)"), "lambda")
        for lam in (-1.0, -0.3, 0.0, 0.7, 2.0):
            assert expr.evaluate(d, 0, 0, 0, lam) == pytest.approx(-2.0 * lam)

    def test_combination_derivative_matches_closed_form(self):
        text = "(1+lambda)/2*(-x2) + (1-lambda)/2*x3"
        d = expr.differentiate(expr.parse_expression(text), "lambda")
        rng = random.Random(7)
        for _ in range(20):
            x2, x3, lam = (rng.uniform(-3, 3) for _ in range(3))
            assert expr.evaluate(d, 0, x2, x3, lam) == pytest.approx(-(x2 + x3) / 2)

    def test_constant_in_var(self):
        assert expr.differentiate(expr.parse_expression("x3"), "x2") == expr.Const(0.0)

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            expr.differentiate(expr.Const(1.0), "x4")


# --- random-tree machinery -----------------------------------------------------


def random_tree(rng: random.Random, depth: int) -> expr.Expression:
    if depth == 0 or rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.4:
            return expr.Const(round(rng.uniform(-3, 3), 3))
        return expr.Var(rng.choice(expr.VARIABLES))
    roll = rng.random()
    if roll < 0.15:
        return expr.Neg(random_tree(rng, depth - 1))
    if roll < 0.75:
        op = rng.choice("+-*/")
        return expr.BinOp(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if roll < 0.85:
        return expr.Pow(random_tree(rng, depth - 1), rng.randint(1, 3))
    return expr.Call(rng.choice(expr.FUNCTIONS), random_tree(rng, depth - 1))


def try_eval(e, b):
    try:
        return expr.evaluate(e, *b)
    except EvaluationError:
        return None


def test_derivative_matches_central_difference_bulk():
    # 1000 random trees of depth <= 6; rel tol 1e-4 away from singular points
    rng = random.Random(20250811)
    checked = 0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        e = random_tree(rng, rng.randint(1, 6))
        var = rng.choice(expr.VARIABLES)
        b = [rng.uniform(-2, 2) for _ in range(4)]
        idx = expr.VARIABLES.index(var)
        h = 1e-5
        bp, bm = list(b), list(b)
        bp[idx] += h
        bm[idx] -= h
        vals = (try_eval(e, b), try_eval(e, bp), try_eval(e, bm))
        if any(v is None for v in vals) or any(abs(v) > 1e6 for v in vals):
            continue
        try:
            d = expr.differentiate(e, var)
            sym = expr.evaluate(d, *b)
        except EvaluationError:
            continue
        fd = (vals[1] - vals[2]) / (2 * h)
        # skip ill-conditioned spots (huge curvature relative to value scale)
        curv = abs(vals[1] - 2 * vals[0] + vals[2]) / h ** 2
        if curv > 1e5 or abs(sym) > 1e6:
            continue
        checked += 1
        assert abs(fd - sym) <= 1e-4 * max(abs(fd), abs(sym), 1e-2), \
            f"{expr.to_text(e)} d/d{var} at {b}: fd={fd} sym={sym}"
    assert checked == 1000


def test_print_parse_round_trip_bulk():
    rng = random.Random(424242)
    for _ in range(100):
        e = random_tree(rng, rng.randint(1, 5))
        text = expr.to_text(e)
        back = expr.parse_expression(text)
        again = expr.parse_expression(expr.to_text(back))
        for _ in range(10):
            b = [rng.uniform(-2, 2) for _ in range(4)]
            v0, v1 = try_eval(e, b), try_eval(again, b)
            if v0 is None or v1 is None:
                continue
            assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1), st.integers(1, 6))
def test_round_trip_hypothesis(seed, depth):
    rng = random.Random(seed)
    e = random_tree(rng, depth)
    text = expr.to_text(e)
    back = expr.parse_expression(text)
    assert expr.to_text(back) == text
    b = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    v0, v1 = try_eval(e, b), try_eval(back, b)
    if v0 is not None and v1 is not None:
        assert v1 == pytest.approx(v0, rel=1e-12, abs=1e-12)


def test_polynomial_degree():
    cases = [
        ("1 + lambda", 1),
        ("(1-lambda^2)*x2", 2),
        ("lambda*(1-lambda^2)", 3),
        ("x2*x3", 0),
        ("tanh(lambda)", None),
        ("1/(1+lambda)", None),
        ("(1+lambda)^2*(1-lambda)", 3),
    ]
    for text, want in cases:
        e = expr.parse_expression(text)
        assert expr.polynomial_degree(e, "lambda") == want, text


def test_compiled_matches_interpreter():
    rng = random.Random(99)
    for _ in range(200):
        e = random_tree(rng, rng.randint(1, 5))
        fn = expr.compile_expression(e)
        b = [rng.uniform(-1.5, 1.5) for _ in range(4)]
        want = try_eval(e, b)
        if want is None:
            continue
        assert fn(*b) == pytest.approx(want, rel=1e-15, abs=1e-300)


def test_non_finite_literal_rejected():
    for text in ("1e400*x1", "x2 - 1e999"):
        with pytest.raises(ParseError, match="not finite"):
            expr.parse_expression(text)


class TestIntegratorField:
    """expr._generate given binds: the field the Runge-Kutta stepper calls."""

    COMPONENTS = ("sin(x1) + x2", "sin(x1) * x3", "2*sin(x1)")

    def test_repeated_subexpression_computed_once(self):
        exprs = tuple(expr.parse_expression(c) for c in self.COMPONENTS)
        calls = []

        def counting_sin(v):
            calls.append(v)
            return math.sin(v)

        field = expr._generate(exprs, (("lam", "x1"),))
        s = math.sin(0.5)
        assert field(0.0, (0.5, 2.0, 3.0), _sin=counting_sin) == (s + 2.0, s * 3.0, 2.0 * s)
        assert calls == [0.5]
        # plain compiled fields keep one call per occurrence
        calls.clear()
        expr.compile_field(exprs)(0.5, 2.0, 3.0, 0.0, _sin=counting_sin)
        assert calls == [0.5, 0.5, 0.5]

    def test_signed_zero_constants_stay_apart(self):
        # Const(0.0) == Const(-0.0), but x2 * 0.0 and x2 * -0.0 differ in sign
        x2 = expr.Var("x2")
        exprs = (expr.BinOp("*", x2, expr.Const(0.0)),
                 expr.BinOp("*", x2, expr.Const(-0.0)), x2)
        out = expr._generate(exprs, (("lam", "x1"),))(0.0, (0.0, 1.0, 0.0))
        assert [v.hex() for v in out] == ["0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p+0"]


_STATE = st.floats(-3.0, 3.0)


@pytest.mark.parametrize("which", ["i", "ii", "iii"])
@pytest.mark.parametrize("sigmoid", ["tanh", "algebraic", "cubic"])
@settings(max_examples=60, deadline=None)
@given(x1=st.one_of(_STATE, st.floats(-0.02, 0.02)), x2=_STATE, x3=_STATE,
       eps=st.sampled_from([1e-3, 3e-4, 1e-5]))
def test_regularized_field_bit_equal_to_interpreter(which, sigmoid, x1, x2, x3, eps):
    sys = example_system(which)
    s = builtin_sigmoid(sigmoid)
    got = compile_regularized_field(sys, s, eps)(0.0, (x1, x2, x3))
    lam = s.value(x1 * (1.0 / eps))
    want = tuple(expr.evaluate(c, x1, x2, x3, lam) for c in sys.combined_expressions)
    assert [v.hex() for v in got] == [v.hex() for v in want]
