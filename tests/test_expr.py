"""Parser, evaluator, and forward-mode differentiation tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcsol.core import Problem
from qcsol.errors import BoundaryMismatchError, DimensionError, EvalError, ParseError
from qcsol.expr import (
    _MAX_DEPTH,
    Abs,
    Add,
    Const,
    Div,
    LinearIneq,
    Mul,
    Neg,
    Piecewise,
    Pow,
    Sqrt,
    Sub,
    Var,
    evaluate,
    evaluate_many,
    free_variables,
    grad,
    grad_many,
    parse,
    pretty,
)
from qcsol.sets import Box, ConvexSetDescriptor

def grad_fd(f, x, h=1e-6):
    """Central-difference gradient with step h: the independent reference
    for grad()."""
    xv = np.asarray(x, dtype=float)
    out = np.empty(xv.size)
    for i in range(xv.size):
        xp, xm = xv.copy(), xv.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (evaluate(f, xp) - evaluate(f, xm)) / (2.0 * h)
    return out


QUADRANT = (
    "pw[x1 >= 0 & x2 >= 0: x1^2 + x2^2; "
    "x1 <= 0 & x2 >= 0: x2^2; "
    "x1 <= 0 & x2 <= 0: -(x1^2 * x2^2); "
    "x1 >= 0 & x2 <= 0: x1^2]"
)


class TestParseEvaluate:
    def test_polynomial(self):
        f = parse("x1^3 - 2*x1*x2 + 4", 2)
        assert evaluate(f, [2.0, 1.0]) == pytest.approx(8.0)

    def test_ratio(self):
        f = parse("x2/x1", 2)
        assert evaluate(f, [2.0, 1.0]) == pytest.approx(0.5)

    def test_sqrt_abs(self):
        f = parse("sqrt(x1^2 + 4) + abs(x2)", 2)
        assert evaluate(f, [0.0, -3.0]) == pytest.approx(5.0)

    def test_unary_minus_and_precedence(self):
        f = parse("-x1^2", 1)
        assert evaluate(f, [3.0]) == pytest.approx(-9.0)
        g = parse("2 - 3 - 4", 1)
        assert evaluate(g, [0.0]) == pytest.approx(-5.0)

    def test_division_by_zero(self):
        f = parse("1/x1", 1)
        with pytest.raises(EvalError):
            evaluate(f, [0.0])

    def test_free_variables(self):
        assert free_variables(parse("x1 + x3", 3)) == {1, 3}

    def test_parse_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + ", 1)
        assert err.value.offset == 5

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError):
            parse("x3", 2)

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("sin(x1)", 1)


class TestPiecewise:
    def test_branch_values(self):
        f = parse(QUADRANT, 2)
        assert evaluate(f, [1.0, 1.0]) == pytest.approx(2.0)
        assert evaluate(f, [-1.0, 1.0]) == pytest.approx(1.0)
        assert evaluate(f, [-1.0, -2.0]) == pytest.approx(-4.0)
        assert evaluate(f, [1.0, -2.0]) == pytest.approx(1.0)

    def test_boundary_agreement(self):
        f = parse(QUADRANT, 2)
        # both branches at x1 = 0 agree, so the value is well defined
        assert evaluate(f, [0.0, 1.5]) == pytest.approx(2.25)
        g = grad(f, [0.0, 1.5])
        assert g == pytest.approx([0.0, 3.0])

    def test_boundary_mismatch_raises(self):
        f = parse("pw[x1 <= 0: 0; x1 >= 0: 1]", 1)
        with pytest.raises(BoundaryMismatchError):
            evaluate(f, [0.0])

    def test_no_branch_applies(self):
        f = parse("pw[x1 <= 0: 0]", 1)
        with pytest.raises(EvalError):
            evaluate(f, [1.0])

    def test_message_prints_the_point_as_floats(self):
        with pytest.raises(EvalError, match=r"point \(2\.0,\) outside"):
            evaluate(parse("pw[x1 <= 0: 1]", 1), [2.0])

    def test_nonlinear_guard_rejected(self):
        with pytest.raises(ParseError):
            parse("pw[x1^2 <= 1: x1]", 1)


class TestGradient:
    def test_ratio_gradient(self):
        f = parse("x2/x1", 2)
        assert grad(f, [1.0, 2.0]) == pytest.approx([-2.0, 1.0])

    def test_sqrt_gradient(self):
        f = parse("sqrt(x1^2 + 4)", 1)
        assert grad(f, [2.0]) == pytest.approx([2.0 / np.sqrt(8.0)])

    def test_matches_finite_differences(self):
        f = parse("-x1 - x2 + sqrt((x1 - x2)^2 + 4)", 2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-1.4, 1.4, size=2)
            assert grad(f, x) == pytest.approx(grad_fd(f, x), abs=1e-6)

    def test_dual_arithmetic(self):
        f = parse("x1 * x1 + 2 / x1", 1)
        assert evaluate(f, [3.0]) == pytest.approx(9.0 + 2.0 / 3.0)
        assert grad(f, [3.0]) == pytest.approx([6.0 - 2.0 / 9.0])


SMOOTH = parse("x1^3 - 2*x1*x2 + sqrt(x2^2 + 1)", 2)


@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_ad_agrees_with_fd(a, b):
    x = np.array([a, b])
    g = grad(SMOOTH, x)
    scale = 1.0 + float(np.max(np.abs(g)))
    assert np.max(np.abs(g - grad_fd(SMOOTH, x))) <= 1e-5 * scale


ROUND_TRIP_SOURCES = [
    ("x2/x1", 2),
    ("x1^3", 2),
    ("-x1 - x2 + sqrt((x1 - x2)^2 + 4)", 2),
    (QUADRANT, 2),
    ("pw[x1 <= 0: -(x1^2); x1 >= 0 & x1 <= 1: 0; x1 >= 1: (x1 - 1)^2]", 1),
    ("abs(x1) * 2 + 3/x2^4", 2),
]


@pytest.mark.parametrize("source,dim", ROUND_TRIP_SOURCES)
def test_pretty_round_trip(source, dim):
    ast = parse(source, dim)
    assert parse(pretty(ast), dim) == ast


def _bits(values):
    return [float(v).hex() for v in values]


class TestEvaluationErrors:
    def test_division_by_exact_zero_only(self):
        f = parse("1/x1", 1)
        assert evaluate(f, [1e-300]) == 1.0 / 1e-300
        assert evaluate_many(f, np.array([[1e-300]])).tolist() == [1.0 / 1e-300]
        with pytest.raises(EvalError, match="division by zero"):
            evaluate(f, [0.0])
        with pytest.raises(EvalError, match="division by zero"):
            evaluate_many(f, np.array([[1e-300], [0.0]]))

    def test_power_overflow(self):
        f = parse("x1^2", 1)
        with pytest.raises(EvalError, match="power overflows"):
            evaluate(f, [1e200])
        with pytest.raises(EvalError, match="power overflows"):
            evaluate_many(f, np.array([[1.0], [1e200]]))
        with pytest.raises(EvalError):
            grad(f, [1e200])

    def test_non_finite_value(self):
        f = parse("x1 * x1", 1)
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(f, [1e200])
        with pytest.raises(EvalError, match="non-finite"):
            evaluate_many(f, np.array([[1e200]]))
        with pytest.raises(EvalError, match="non-finite"):
            evaluate(parse("x1 + 1", 1), [float("nan")])


class TestEvaluateMany:
    def test_integer_power_is_libm_pow(self):
        # np.power differs from float ** int in the last bit on some of
        # these nodes; the batch must reproduce the scalar walker
        f = parse("x1^3", 1)
        X = np.linspace(0.0, 2.0, 201)[:, None]
        assert _bits(evaluate_many(f, X)) == _bits(evaluate(f, x) for x in X)

    def test_piecewise_rows(self):
        f = parse(QUADRANT, 2)
        X = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -2.0], [1.0, -2.0], [0.0, 1.5]])
        assert _bits(evaluate_many(f, X)) == _bits(evaluate(f, x) for x in X)

    def test_guard_boundary_rows_decide_like_evaluate(self):
        # Rows within rounding of an inexact guard boundary: numpy's row
        # sums and the BLAS dot of _guard_holds can round c . x apart
        c = (0.1, 0.7)
        f = Piecewise((((LinearIneq(c, 0.3 - 1e-12),), Const(1.0)),))
        t = np.linspace(-2.0, 2.0, 400)
        X = np.column_stack([t, (0.3 - 0.1 * t) / 0.7])
        expected = []
        for x in X:
            try:
                expected.append(evaluate(f, x))
            except EvalError:
                expected.append(None)
        assert None in expected and 1.0 in expected
        ok = np.array([v is not None for v in expected])
        assert _bits(evaluate_many(f, X[ok])) == _bits([1.0] * ok.sum())
        for x in X[~ok]:
            with pytest.raises(EvalError):
                evaluate_many(f, x[None, :])

    def test_first_failing_row_decides_the_error(self):
        f = parse("pw[x1 <= 0: 0; x1 >= 0: 1]", 1)
        g = parse("pw[x1 <= 0: 1/x1; x1 >= 0: 1]", 1)
        with pytest.raises(BoundaryMismatchError):
            evaluate_many(f, np.array([[-1.0], [0.0]]))
        # row 1 mismatches, but row 0 fails first with a plain EvalError
        with pytest.raises(EvalError) as info:
            evaluate_many(g, np.array([[2.0], [0.0], [5.0]]))
        assert type(info.value) is EvalError

    def test_shapes(self):
        f = parse("x1 + x2", 2)
        assert evaluate_many(f, np.empty((0, 2))).shape == (0,)
        with pytest.raises(DimensionError):
            evaluate_many(f, np.array([1.0, 2.0]))


# Random ASTs over two variables with every node kind; guards use small
# integer coefficients so that grid-like points land on their boundaries.
_LEAVES = st.one_of(
    st.builds(Var, st.integers(1, 2)),
    st.builds(Const, st.sampled_from([0.0, 1.0, -2.0, 0.5, 3.0, 1e-3, 1e150])),
)
_INEQS = st.builds(
    LinearIneq,
    st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 0.5]), st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
    st.sampled_from([0.0, 0.5, -0.25, 1.0]),
)


def _extend(children):
    branch = st.tuples(st.lists(_INEQS, min_size=1, max_size=2).map(tuple), children)
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.sampled_from([0, 1, 2, 3, 4])),
        st.builds(Neg, children),
        st.builds(Sqrt, children),
        st.builds(Abs, children),
        st.builds(Piecewise, st.lists(branch, min_size=1, max_size=3).map(tuple)),
    )


_ASTS = st.recursive(_LEAVES, _extend, max_leaves=8)
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0, 1e-300, 1e200, -1e100,
                     float("inf"), float("nan")]),
    st.floats(-3, 3, allow_nan=False),
)
_BATCHES = st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(_ASTS, _BATCHES)
@settings(max_examples=200, deadline=None)
def test_evaluate_many_equals_rowwise_evaluate(f, rows):
    X = np.array(rows, dtype=float)
    expected = []
    for x in X:
        try:
            expected.append(evaluate(f, x))
        except EvalError as exc:
            expected.append(exc)
    first_error = next((r for r in expected if isinstance(r, EvalError)), None)
    if first_error is None:
        assert _bits(evaluate_many(f, X)) == _bits(expected)
    else:
        with pytest.raises(EvalError) as info:
            evaluate_many(f, X)
        assert type(info.value) is type(first_error)
        assert str(info.value) == str(first_error)


def _grad_outcome(f, x):
    try:
        return _bits(grad(f, x))
    except EvalError as exc:
        return exc


class TestGradMany:
    def test_non_finite_value_or_gradient(self):
        # the value x1 * x1 overflows while its gradient 2e200 does not
        f = parse("x1 * x1", 1)
        with pytest.raises(EvalError, match="non-finite value"):
            grad(f, [1e200])
        with pytest.raises(EvalError, match="non-finite value"):
            grad_many(f, np.array([[1.0], [1e200]]))
        g = parse("1/x1", 1)  # the value 1e300 is finite, its slope is not
        with pytest.raises(EvalError, match="non-finite gradient"):
            grad(g, [1e-300])
        with pytest.raises(EvalError, match="non-finite gradient"):
            grad_many(g, np.array([[1.0], [1e-300]]))

    def test_flat_kink_differentiates_and_sharp_kink_raises(self):
        # sqrt(x1^2) has derivative 0 at 0 (the dual part of x1^2 vanishes
        # there); abs(x1) carries a nonzero dual part into its kink.  That
        # sqrt(x1^2) = |x1| and the norm pass their kinks as smooth points
        # is a known limit of the d == 0 slope rule (docs/grammar.md)
        smooth, sharp = parse("sqrt(x1^2)", 1), parse("abs(x1)", 1)
        assert _bits(grad(smooth, [0.0])) == _bits([0.0])
        assert _bits(grad_many(smooth, np.array([[0.0], [-2.0]])).ravel()) == _bits([0.0, -1.0])
        norm = parse("sqrt(x1^2 + x2^2)", 2)
        assert _bits(grad(norm, [0.0, 0.0])) == _bits([0.0, 0.0])
        assert _bits(grad_many(norm, np.zeros((1, 2))).ravel()) == _bits([0.0, 0.0])
        with pytest.raises(EvalError, match="abs not differentiable at zero"):
            grad(sharp, [0.0])
        with pytest.raises(EvalError, match="abs not differentiable at zero"):
            grad_many(sharp, np.array([[1.0], [0.0]]))

    def test_integer_power_is_libm_pow(self):
        # the slope 4 * x**3 of x1^4 is where np.power would differ
        f = parse("x1^4", 1)
        X = np.linspace(0.0, 2.0, 201)[:, None]
        assert _bits(grad_many(f, X).ravel()) == [b for x in X for b in _bits(grad(f, x))]

    def test_piecewise_gradient_mismatch_is_the_first_rows_error(self):
        kink = parse("pw[x1 <= 0: 0; x1 >= 0: x1]", 1)
        with pytest.raises(BoundaryMismatchError, match="gradients differ at"):
            grad_many(kink, np.array([[-1.0], [0.0], [1.0]]))
        assert _bits(grad_many(kink, np.array([[-1.0], [1.0]])).ravel()) == _bits([0.0, 1.0])

    def test_shapes(self):
        f = parse("x1 + x2", 2)
        assert grad_many(f, np.empty((0, 2))).shape == (0, 2)
        with pytest.raises(DimensionError):
            grad_many(f, np.array([1.0, 2.0]))
        with pytest.raises(DimensionError):
            grad_many(f, np.ones((3, 2)), dimension=3)


def test_gradient_values_are_evaluate_values():
    # x1 - x1 is NaN at x1 = inf, with zero derivatives: abs of it is NaN
    # for grad as for evaluate, so grad fails where evaluate fails
    f = parse("abs(x1 - x1) + x2", 2)
    x = [float("inf"), 1.0]
    with pytest.raises(EvalError, match="non-finite value"):
        evaluate(f, x)
    with pytest.raises(EvalError, match="non-finite value"):
        grad(f, x)
    with pytest.raises(EvalError, match="non-finite value"):
        grad_many(f, np.array([x]))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(_ASTS, _BATCHES)
@settings(max_examples=200, deadline=None)
def test_grad_many_equals_rowwise_grad(f, rows):
    X = np.array(rows, dtype=float)
    expected = [_grad_outcome(f, x) for x in X]
    first_error = next((r for r in expected if isinstance(r, EvalError)), None)
    if first_error is None:
        assert [_bits(g) for g in grad_many(f, X)] == expected
    else:
        with pytest.raises(EvalError) as info:
            grad_many(f, X)
        assert type(info.value) is type(first_error)
        assert str(info.value) == str(first_error)


# Random smooth ASTs: no piecewise and no abs, and sqrt only of a positive
# argument (u^2 + 1), so that every derivative exists where grad succeeds.
def _smooth_extend(children):
    return st.one_of(
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children),
        st.builds(Pow, children, st.integers(0, 3)),
        st.builds(Neg, children),
        children.map(lambda u: Sqrt(Add(Pow(u, 2), Const(1.0)))),
    )


_SMOOTH_ASTS = st.recursive(
    st.one_of(
        st.builds(Var, st.integers(1, 2)),
        st.builds(Const, st.sampled_from([0.5, 1.0, 2.0, -3.0, 0.3])),
    ),
    _smooth_extend,
    max_leaves=6,
)


def _to_sympy(e, sp, xs, values=None):
    """The expression in sympy, every constant as the exact rational of its
    float.  Given a list values, every node's result is appended to it,
    operands before their node."""
    if isinstance(e, Const):
        v = sp.Rational(e.value)
    elif isinstance(e, Var):
        v = xs[e.index - 1]
    elif isinstance(e, Neg):
        v = -_to_sympy(e.operand, sp, xs, values)
    elif isinstance(e, Sqrt):
        v = sp.sqrt(_to_sympy(e.operand, sp, xs, values))
    elif isinstance(e, Pow):
        v = _to_sympy(e.base, sp, xs, values) ** e.exponent
    else:
        left, right = _to_sympy(e.left, sp, xs, values), _to_sympy(e.right, sp, xs, values)
        if isinstance(e, Add):
            v = left + right
        elif isinstance(e, Sub):
            v = left - right
        elif isinstance(e, Mul):
            v = left * right
        else:
            v = left / right
    if values is not None:
        values.append(v)
    return v


def _slope_size(e, sp, xs, s):
    """The exact value of e and the sum of the magnitudes of the terms that
    forward mode adds into its slope along s.  Float rounding of the slope is
    relative to this size, not to the slope itself: x1 * (0.3 / x1) has slope
    0 from two terms of 6e13 at x1 = 5e-15."""
    if isinstance(e, Const):
        return sp.Rational(e.value), 0
    if isinstance(e, Var):
        x = xs[e.index - 1]
        return x, int(x == s)
    if isinstance(e, Neg):
        v, m = _slope_size(e.operand, sp, xs, s)
        return -v, m
    if isinstance(e, Sqrt):
        v, m = _slope_size(e.operand, sp, xs, s)
        return sp.sqrt(v), m / (2 * sp.sqrt(v))
    if isinstance(e, Pow):
        v, m = _slope_size(e.base, sp, xs, s)
        k = e.exponent
        return v**k, (abs(k * v ** (k - 1)) * m if k else 0)
    (l, ml), (r, mr) = _slope_size(e.left, sp, xs, s), _slope_size(e.right, sp, xs, s)
    if isinstance(e, Add):
        return l + r, ml + mr
    if isinstance(e, Sub):
        return l - r, ml + mr
    if isinstance(e, Mul):
        return l * r, ml * abs(r) + abs(l) * mr
    return l / r, (ml + abs(l / r) * mr) / abs(r)


# the least normal double, 2.2250738585072014e-308
_MIN_NORMAL = sys.float_info.min


def _underflows(e, sp, point) -> bool:
    """Whether the exact value of some node of e at point, a tuple of
    sympy Rationals, is nonzero and below the least normal double in
    magnitude.  Float evaluation rounds it to a subnormal or to zero, and
    forward mode then differentiates another program (docs/grammar.md,
    "Known limit: underflow")."""
    tiny, values = sp.Rational(_MIN_NORMAL), []
    _to_sympy(e, sp, point, values)
    return any(
        v.is_zero is False and v.is_finite and bool(abs(v) < tiny) for v in values
    )


@given(_SMOOTH_ASTS, st.floats(-2, 2), st.floats(-2, 2))
@example(Mul(Var(1), Div(Const(0.3), Var(1))), 4.888661471630653e-15, 0.0)
@settings(max_examples=100, deadline=None)
def test_grad_agrees_with_sympy(f, a, b):
    # An independent check of the one derivative rule that grad and
    # grad_many share: symbolic differentiation, evaluated exactly.
    sp = pytest.importorskip("sympy")
    try:
        g = grad(f, [a, b], 2)
    except EvalError:
        assume(False)
    xs = sp.symbols("x1 x2")
    point = {xs[0]: sp.Rational(a), xs[1]: sp.Rational(b)}
    # an underflowed intermediate changes the program that is differentiated
    assume(not _underflows(f, sp, tuple(point.values())))
    symbolic = _to_sympy(f, sp, xs)
    for i, s in enumerate(xs):
        exact = sp.diff(symbolic, s).evalf(30, subs=point)
        size = sp.sympify(_slope_size(f, sp, xs, s)[1]).evalf(30, subs=point)
        assume(exact.is_finite and size.is_finite)
        # rounding in the float evaluation, relative to the slope's terms
        assert abs(g[i] - float(exact)) <= 1e-12 * (1.0 + float(size)), (i, exact, size)


def test_an_underflowed_intermediate_changes_the_differentiated_program():
    # x1*x1 underflows to 0, so the float program is 0 / x1: its value is
    # 0.0, and the quotient rule (u' - (u/v) v') / v with u = 0 gives
    # u' / v = 2, where d(x1*x1/x1)/dx1 = 1 (docs/grammar.md)
    f = parse("x1*x1/x1", 2)
    assert f == Div(Mul(Var(1), Var(1)), Var(1))
    x = [2.3789477329612417e-199, 0.0]
    assert evaluate(f, x) == 0.0
    assert grad(f, x, 2).tolist() == [2.0, 0.0]
    assert grad_many(f, np.array([x]), 2).tolist() == [[2.0, 0.0]]
    # the sympy cross-check skips this point, but not one where x1*x1 is normal
    sp = pytest.importorskip("sympy")
    assert _underflows(f, sp, (sp.Rational(x[0]), sp.Rational(x[1])))
    assert not _underflows(f, sp, (sp.Rational(1e-150), sp.Rational(0)))


class TestCompileMemo:
    def test_signed_zero_constants_compile_apart(self):
        # Const(0.0) == Const(-0.0), but their programs differ in the sign
        # of a zero result
        plus, minus = Mul(Const(0.0), Var(1)), Mul(Const(-0.0), Var(1))
        assert plus == minus
        for _ in range(2):
            for f, sign in ((plus, 1.0), (minus, -1.0)):
                assert math.copysign(1.0, evaluate(f, [1.0])) == sign
                assert math.copysign(1.0, evaluate_many(f, np.array([[1.0]]))[0]) == sign

    def test_a_call_does_not_hash_the_tree(self, monkeypatch):
        f = parse("sqrt(x1^2 + x2^2) + x1 * x2", 2)
        evaluate(f, [0.3, 0.4])
        grad(f, [0.3, 0.4])
        hashes = []
        for node in (Add, Mul, Pow, Sqrt, Var):
            monkeypatch.setattr(node, "__hash__", lambda self: hashes.append(self) or 0)
        for _ in range(3):
            evaluate(f, [0.3, 0.4])
            grad(f, [0.3, 0.4])
            evaluate_many(f, np.array([[0.3, 0.4]]))
        assert hashes == []


def _nested(shape, k):
    """x1 under k levels of one construct."""
    return {
        "parentheses": "(" * k + "x1" + ")" * k,
        "sqrt": "sqrt(" * k + "x1" + ")" * k,
        "minus": "-" * k + "x1",
        "terms": "x1+" * k + "x1",
    }[shape]


@pytest.mark.parametrize(
    "shape,k", [("parentheses", 200), ("sqrt", 200), ("minus", 400), ("terms", 400)]
)
def test_a_deep_expression_is_a_parse_error(shape, k):
    with pytest.raises(ParseError, match=f"deeper than {_MAX_DEPTH} levels"):
        parse(_nested(shape, k), 1)


@pytest.mark.parametrize(
    "shape,k",
    # the deepest of each: 100 groups around x1; a tree 100 levels deep
    [("parentheses", _MAX_DEPTH), ("sqrt", _MAX_DEPTH - 1), ("minus", _MAX_DEPTH - 1),
     ("terms", _MAX_DEPTH - 1)],
)
def test_an_expression_at_the_depth_bound_is_usable(shape, k):
    with pytest.raises(ParseError):
        parse(_nested(shape, k + 1), 1)
    f = parse(_nested(shape, k), 1)
    p = Problem(f, ConvexSetDescriptor(1, ()), 1, Box((0.5,), (1.0,)))
    assert repr(f) in repr(p)
    assert parse(pretty(f), 1) == f
    X = np.array([[0.6], [0.7]])
    assert evaluate_many(f, X).tolist() == [evaluate(f, x) for x in X]
    assert grad_many(f, X).tolist() == [grad(f, x).tolist() for x in X]
