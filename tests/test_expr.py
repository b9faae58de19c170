"""Parser, evaluator, and forward-mode differentiation tests."""

import math
import sys
from fractions import Fraction
import typing

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcsol import expr
from qcsol.core import Problem
from qcsol.errors import BoundaryMismatchError, DimensionError, EvalError, ParseError, QcsolError
from qcsol.expr import (
    _MAX_DEPTH,
    _ast_key,
    _dot,
    _norm,
    _extract_linear,
    _tokenize,
    _program,
    Abs,
    Add,
    Const,
    Div,
    Expr,
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

    def test_reads(self):
        assert _program(parse("x1 + x3", 3), 0)[1] == 3

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

    @pytest.mark.parametrize("text, offset, message", [
        ("sqrt x1", 5, "expected '(', found 'x1'"),
        ("x1^1.5", 3, "exponent must be a nonnegative integer literal"),
        ("pw[x1: x1]", 5, "expected '<=' or '>=' in guard"),
        ("pw[1/x1 <= 1: x1]", 3, "guard expression must be affine"),
        ("x1^" + "9" * 5000, 3, "integer of 5000 digits is too long"),
        ("x" + "1" * 5000, 0, "integer of 5000 digits is too long"),
        ("2 * x" + "0" * 4999 + "1", 4, "integer of 5000 digits is too long"),
        ("x2 / x1 + 1e999*0", 10, "number literal '1e999' overflows a float"),
    ], ids=["sqrt without parentheses", "fractional exponent", "guard without comparison",
            "non-affine guard", "long exponent", "long variable index", "long zero-padded index",
            "overflowing literal"])
    def test_refusals_carry_their_offsets(self, text, offset, message):
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset)

    def test_the_largest_float_literal_parses_and_prints_back(self):
        # pretty writes what parse reads: a literal that overflowed to inf did not
        f = parse("1.7976931348623157e308 * x1", 1)
        assert f == Mul(Const(1.7976931348623157e308), Var(1))
        assert parse(pretty(f), 1) == f

    def test_an_exponent_of_as_many_digits_as_python_converts_parses(self):
        assert parse("x1^" + "0" * 4299 + "7", 1) == parse("x1^7", 1)

    def test_unary_plus_is_dropped(self):
        assert parse("+x1", 1) == parse("++x1", 1) == Var(1)

    def test_a_dimension_below_one_is_refused(self):
        for dimension in (0, -1):
            with pytest.raises(DimensionError, match="dimension must be >= 1"):
                parse("1", dimension)


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
        # the value alone and the gradient word the mismatch alike
        for run in (evaluate, grad):
            with pytest.raises(BoundaryMismatchError) as info:
                run(f, [0.0])
            assert str(info.value) == "branch values differ at (0.0,): 0.0 vs 1.0"

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

    @pytest.mark.parametrize("guard, dim", [
        ("0.1*x1 + 0.7*x2 - 0.3", 2),
        ("1e20 + 0.1*x3 - x1", 3),  # f(e_i) - f(0) rounds the coefficients to 0
        ("-(x2 - 3*x1)/7 + 1/3", 2),
        ("1e-300*x1 - 1e300*x2 + 0.3", 2),
        ("x1 + 2*x2 + 3*x3 + 4*x4 + 5*x5", 5),
        ("x1 - 0.5*x300 + 2", 300),
    ])
    def test_guard_coefficients_are_the_per_list_differences(self, guard, dim):
        # each coefficient is f(e_i) - f(0), bit for bit as when every unit
        # vector e_i was a list of its own
        e = parse(guard, dim)
        run = _program(e, 0)[0]
        c0 = run([0.0] * dim)[0]
        want = [run([float(i == j) for j in range(dim)])[0] - c0 for i in range(dim)]
        coeffs, const = _extract_linear(e, dim, 0)
        assert [c.hex() for c in coeffs] == [c.hex() for c in want]
        assert const.hex() == c0.hex()
        bound = parse(f"pw[{guard} <= 0: 1]", dim).branches[0][0][0]
        assert bound == LinearIneq(tuple(want), -c0)


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


class TestPointsThatDoNotFit:
    @pytest.mark.parametrize("text", [
        "x1 + x2", "pw[x1 <= 0: 1; x1 >= 0: 2]", "x2^0 + 1", "sqrt(x2)"])
    def test_a_short_point_is_refused(self, text):
        f = parse(text, 2)
        message = "point has dimension 1, expected at least 2"
        for call in (lambda: evaluate(f, [1.0]), lambda: grad(f, [1.0]),
                     lambda: evaluate_many(f, [[1.0]]), lambda: grad_many(f, [[1.0]]),
                     lambda: grad(f, [1.0], 1), lambda: grad_many(f, [[1.0]], 1)):
            with pytest.raises(DimensionError, match=message):
                call()

    def test_a_nested_point_is_refused(self):
        f = parse("x1 + x2", 2)
        for call in (evaluate, grad):
            with pytest.raises(DimensionError, match=r"point has shape \(2, 2\), expected a flat sequence"):
                call(f, [[1.0, 2.0], [3.0, 4.0]])

    def test_a_longer_point_is_read_up_to_the_coordinates_used(self):
        f = parse("x1 + x2", 2)
        assert evaluate(f, [1.0, 2.0, 5.0]) == 3.0
        assert evaluate_many(f, [[1.0, 2.0, 5.0]]).tolist() == [3.0]
        assert grad(f, [1.0, 2.0, 5.0]).tolist() == [1.0, 1.0, 0.0]
        assert evaluate(parse("7", 2), []) == 7.0

    def test_the_program_reads_every_coordinate_of_its_guards(self):
        # the guard's coefficient of x2 is 0, but the program reads x[1]
        assert _program(parse("pw[x1 <= 0: 1; x1 >= 0: 2]", 2), 0)[1] == 2
        assert _program(parse("x3 * x1", 5), 0)[1] == 3
        assert _program(parse("1", 5), 0)[1] == 0


class TestEvaluateMany:
    def test_integer_power_is_libm_pow(self):
        # np.power and float ** int differ from the product rule in the last
        # bit on some of these nodes; the batch must reproduce the scalar walker
        f = parse("x1^3", 1)
        X = np.linspace(0.0, 2.0, 201)[:, None]
        assert _bits(evaluate_many(f, X)) == _bits(evaluate(f, x) for x in X)

    def test_rows_of_no_coordinates_are_points_of_none(self):
        # a guard of no inequalities reads no coordinate, so each row of
        # an (N, 0) batch is the empty point
        f = Piecewise((((), Const(0.0)),))
        assert evaluate(f, []) == 0.0 and grad(f, []).shape == (0,)
        assert evaluate_many(f, np.empty((3, 0))).tolist() == [0.0, 0.0, 0.0]
        assert grad_many(f, np.empty((3, 0))).shape == (3, 0)

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
_INEQS = st.one_of(
    st.builds(
        LinearIneq,
        st.tuples(st.sampled_from([-1.0, 0.0, 1.0, 0.5]), st.sampled_from([-1.0, 0.0, 1.0, 2.0])),
        st.sampled_from([0.0, 0.5, -0.25, 1.0]),
    ),
    st.just(LinearIneq((0.0, 0.0), -1.0)),  # holds at no point: its branch takes no row
)


def _thrice(guard, e):
    """Three branches on one guard: each row it holds at is taken three
    times, by bodies that agree within the boundary tolerances where e is
    small (but not bit for bit: the row keeps the first's results) and
    differ where e is large."""
    near = Const(1.0 + 2.0 ** -40)
    return Piecewise(((guard, e), (guard, Mul(e, near)), (guard, Mul(near, e))))


def _extend(children):
    # an empty guard holds everywhere (the compiled guard is the constant True)
    guard = st.lists(_INEQS, min_size=0, max_size=2).map(tuple)
    branch = st.tuples(guard, children)
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
        st.builds(_thrice, guard, children),
    )


_ASTS = st.recursive(_LEAVES, _extend, max_leaves=8)
_THRICE = _thrice((), Var(1))  # every row is shared, and the slopes differ too
_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 0.25, 2.0, 1e-300, 1e200, -1e100,
                     float("inf"), float("nan")]),
    st.floats(-3, 3, allow_nan=False),
)
_BATCHES = st.lists(st.tuples(_COORDS, _COORDS), min_size=1, max_size=12)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(_ASTS, _BATCHES)
@example(_THRICE, [(0.5, 1.0), (-3.0, 0.0)])
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


# Bases for x1^k: signed zeros, NaN, infinities, subnormals, values whose
# powers overflow or underflow, and any float
_BASES = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -2.5e-310, 1e-160, 1e200,
                                   -1e-7, 1.5, float("nan"), float("inf"), float("-inf")])
                  | st.floats(allow_subnormal=True), min_size=1, max_size=12)


def _outcome(call):
    """call()'s value and derivatives as bits, one list per point or row,
    or its EvalError's class and message."""
    try:
        with np.errstate(all="ignore"):
            value, derivs = call()
    except EvalError as exc:
        return f"{type(exc).__name__}: {exc}"
    # a constant value or slope is one float among columns, as at a point
    parts = [np.atleast_1d(r) for r in (value, *derivs)]
    size = max(len(r) for r in parts)
    return [_bits(row) for row in zip(*(np.broadcast_to(r, (size,)) for r in parts))]


# Each helper that can fail, on its own operand and where it meets a
# constant operand among columns: sqrt(0), abs(0) and 2^k are floats there.
_HELPER_PROGRAMS = ["x1^{k}", "sqrt(x1)", "abs(x1)", "1/x1", "x2/x1", "sqrt(x1 - x1)",
                    "abs(x1 - x1)", "sqrt(0) * x1", "abs(0) * x1", "x1 / 2^{k}"]


@pytest.mark.parametrize("text", _HELPER_PROGRAMS)
@given(bases=_BASES, k=st.integers(1, 64))
@example(bases=[1e200, 2.0], k=2)
@example(bases=[-0.0, 5e-324, float("nan"), float("-inf")], k=3)
@settings(max_examples=100, deadline=None)
def test_each_helper_gives_the_float_bits_on_columns(text, bases, k):
    # one rule per helper in both modes, at the points (x1, x2) of the
    # bases and the bases reversed: the columns give every point's bits,
    # signed zeros, subnormals, NaN and infinities included, or fail where
    # some point fails, with its error (the operator that fails first may
    # fail at a later row); the value does not depend on whether
    # derivatives are asked for
    f = parse(text.format(k=k), 2)
    X = np.array(list(zip(bases, reversed(bases))))
    outcomes = []
    for n in (0, 2):
        run, reads = _program(f, n)
        assert callable(run) and type(reads) is int  # one function for both modes
        at_points = [_outcome(lambda: run(x)) for x in X.tolist()]
        failures = [o for o in at_points if type(o) is str]
        columns = _outcome(lambda: run(list(X.T)))
        assert columns in failures if failures else columns == [b for (b,) in at_points]
        outcomes.append(at_points)
    for value, full in zip(*outcomes):
        assert type(full) is str or value == [full[0][:1]]
    # and a batch gives each point's bits, or raises the first failing point's error
    for one, many in ((evaluate, evaluate_many), (grad, grad_many)):
        rows = [_outcome(lambda: (one(f, x), ())) for x in X]
        first = next((r for r in rows if type(r) is str), None)
        assert _outcome(lambda: (many(f, X).ravel(), ())) == (first or [b for r in rows for b in r])


def test_powers_of_a_constant_base_and_of_no_rows():
    # a constant's power is one float in both modes, broadcast to every row
    f = parse("1.1^7 * x1 + 3^2 + x1^3", 1)
    X = np.array([[0.5], [-2.0]])
    assert _bits(evaluate_many(f, X)) == _bits(evaluate(f, x) for x in X)
    assert _bits(grad_many(f, X).ravel()) == [b for x in X for b in _bits(grad(f, x))]
    assert evaluate_many(f, np.empty((0, 1))).shape == (0,)
    assert grad_many(f, np.empty((0, 1))).shape == (0, 1)


@given(st.floats(-1e3, 1e3, allow_subnormal=False).filter(bool), st.integers(1, 64))
@example(2.1102190681111885, 2)
@settings(max_examples=300, deadline=None)
def test_powers_are_within_highams_bound(b, k):
    # b^k takes k - 1 roundings, so its relative error is within
    # gamma_(k-1) = (k - 1) u / (1 - (k - 1) u) while it is a normal float
    exact = Fraction(b) ** k
    assume(Fraction(sys.float_info.min) <= abs(exact) <= Fraction(sys.float_info.max))
    u = Fraction(1, 2**53)
    got = evaluate(Pow(Var(1), k), [b])
    assert abs(Fraction(got) - exact) <= (k - 1) * u / (1 - (k - 1) * u) * abs(exact)


@given(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True))
@example(2.1102190681111885)  # where libm's pow(b, 2) is one ulp off
@settings(max_examples=300, deadline=None)
def test_squares_and_first_powers_are_correctly_rounded(b):
    # b^1 is b and b^2 is the one product b * b: the exact power rounded
    # once, never further from it than Python's float ** int
    assert _bits([evaluate(Pow(Var(1), 1), [b])]) == _bits([b ** 1])
    try:
        want = float(Fraction(b) ** 2)
    except OverflowError:
        with pytest.raises(EvalError, match="power overflows"):
            evaluate(Pow(Var(1), 2), [b])
        return
    assert _bits([evaluate(Pow(Var(1), 2), [b])]) == _bits([want])
    assert abs(Fraction(want) - Fraction(b) ** 2) <= abs(Fraction(b ** 2) - Fraction(b) ** 2)


class TestLongExponents:
    def test_an_odd_exponent_keeps_its_parity(self):
        # float ** int turns the exponent into a float, an even one
        f = parse("x1^1000000000000000000000000000001", 1)
        assert evaluate(f, [-1.0]) == -1.0
        assert evaluate_many(f, [[-1.0], [1.0]]).tolist() == [-1.0, 1.0]
        assert grad(f, [-1.0]).tolist() == [1e30]

    def test_an_exponent_past_the_float_range_is_a_power(self):
        f = parse("x1^1" + "0" * 400, 1)
        assert evaluate(f, [0.5]) == 0.0 and evaluate(f, [1.0]) == 1.0
        assert evaluate(parse("x1^1" + "0" * 399 + "1", 1), [-1.0]) == -1.0
        assert evaluate_many(f, [[0.5], [-1.0], [0.0]]).tolist() == [0.0, 1.0, 0.0]
        # its slope k * 1 is past the float range too
        with pytest.raises(EvalError, match="non-finite gradient"):
            grad(f, [1.0])
        for call in (evaluate, lambda f, x: evaluate_many(f, [x])):
            with pytest.raises(EvalError, match="power overflows"):
                call(f, [1.5])

    def test_an_overflowing_power_fails_where_its_reciprocal_would_not(self):
        # 1 / 10^400 would be 0.0; the power overflows first, for the value
        # and for the gradient alike
        f = parse("1/x1^400", 1)
        for call in (lambda: evaluate(f, [10.0]), lambda: grad(f, [10.0]),
                     lambda: evaluate_many(f, [[1.0], [10.0]]),
                     lambda: grad_many(f, [[1.0], [10.0]])):
            with pytest.raises(EvalError, match="power overflows"):
                call()


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
        # the slope 4 * x1^3 of x1^4 is where np.power would differ
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
@example(_THRICE, [(0.5, 1.0), (-3.0, 0.0)])
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


# The errors only a gradient can hit: a kink reached with a nonzero slope,
# branches whose gradients differ, and a non-finite gradient.
_SLOPE_ERRORS = ("sqrt not differentiable", "abs not differentiable",
                 "branch gradients differ", "non-finite gradient")


def _failure(run, *args):
    """The class and message of what run(*args) raises; None where it
    returns."""
    try:
        run(*args)
    except EvalError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@given(_ASTS, st.tuples(_COORDS, _COORDS))
@example(Div(Sqrt(Var(1)), Var(2)), (-1.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_value_and_gradient_fail_at_the_same_node(f, x):
    """The value alone and the gradient run one evaluation order, so where
    a node fails both raise its error, for one point and for a batch,
    unless a derivative failed at an earlier node."""
    value, slope = _failure(evaluate, f, x), _failure(grad, f, x)
    assume(value or slope)
    assert _failure(evaluate_many, f, np.array([x])) == value
    assert _failure(grad_many, f, np.array([x])) == slope
    if slope is None or not slope[1].startswith(_SLOPE_ERRORS):
        assert slope == value


def _read_alike(run, x):
    """The type, dtype, shape and bytes of what run(x) returns, or the
    class and message of the error it raises."""
    try:
        out = run(x)
    except QcsolError as exc:
        return type(exc), str(exc)
    return type(out), np.asarray(out).dtype, np.shape(out), np.asarray(out).tobytes()


@given(_ASTS, st.lists(_COORDS, max_size=3), st.sampled_from([None, 0, 1, 2, 3]))
@example(_THRICE, [0.5, -0.0], None)
@settings(max_examples=300, deadline=None)
def test_a_list_of_floats_a_tuple_and_an_array_read_alike(f, coords, dimension):
    # a list or tuple of Python floats is taken as it is; any other form is read by numpy
    forms = [list(coords), tuple(coords), np.array(coords, dtype=float),
             [np.float64(c) for c in coords], [coords]]
    for run in (lambda x: evaluate(f, x), lambda x: grad(f, x, dimension)):
        outcomes = [_read_alike(run, x) for x in forms]
        assert outcomes[1:4] == outcomes[:1] * 3
        assert outcomes[4][0] is DimensionError  # a nested list is no flat point


def _ref_reads(e):
    """How many coordinates e's program reads, by one isinstance test per
    node kind: a guard reads as many as it has coefficients."""
    if isinstance(e, Var):
        return e.index
    if isinstance(e, Const):
        return 0
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(_ref_reads(e.left), _ref_reads(e.right))
    if isinstance(e, Pow):
        return _ref_reads(e.base)
    if isinstance(e, (Neg, Sqrt, Abs)):
        return _ref_reads(e.operand)
    return max(max([len(ineq.coeffs) for ineq in guard] + [_ref_reads(branch)])
               for guard, branch in e.branches)


@given(_ASTS, st.integers(0, 2))
@example(_THRICE, 0)
@settings(max_examples=200, deadline=None)
def test_reads_equals_the_reference_walk(f, n):
    assert _program(f, n)[1] == _ref_reads(f)


# Each node kind with a text that parses to it: its value and gradient at
# _AT, and how many coordinates its program reads.
_AT = [0.5, 2.0]
_KINDS = {
    Const: ("2.5", 2.5, [0.0, 0.0], 0),
    Var: ("x2", 2.0, [0.0, 1.0], 2),
    Add: ("x1 + x2", 2.5, [1.0, 1.0], 2),
    Sub: ("x1 - x2", -1.5, [1.0, -1.0], 2),
    Mul: ("x1 * x2", 1.0, [2.0, 0.5], 2),
    Div: ("x1 / x2", 0.25, [0.5, -0.125], 2),
    Pow: ("x1^3", 0.125, [0.75, 0.0], 1),
    Neg: ("-x2", -2.0, [0.0, -1.0], 2),
    Sqrt: ("sqrt(x1 * x2)", 1.0, [1.0, 0.25], 2),
    Abs: ("abs(x1 - x2)", 1.5, [-1.0, 1.0], 2),
    Piecewise: ("pw[x1 <= 0: -x1; x1 >= 0: x1 * x2]", 1.0, [2.0, 0.5], 2),
}


def test_every_node_kind_parses_prints_and_compiles():
    """A node kind added to Expr but left out of one of the operator
    tables fails here."""
    assert set(_KINDS) == set(typing.get_args(Expr))
    for kind, (text, value, slope, reads) in _KINDS.items():
        f = parse(text, 2)
        assert type(f) is kind
        assert parse(pretty(f), 2) == f
        assert _program(f, 0)[1] == reads
        assert evaluate(f, _AT) == value and grad(f, _AT).tolist() == slope
        assert evaluate_many(f, np.array([_AT])).tolist() == [value]
        assert grad_many(f, np.array([_AT])).tolist() == [slope]


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
        assert _ast_key(plus) != _ast_key(minus)
        assert _program(plus, 1) is not _program(minus, 1)

    def test_the_key_is_the_repr_kept_on_the_ast(self):
        f = parse("sqrt(x1^2 + x2^2) + x1 * x2", 2)
        key = _ast_key(f)
        assert _ast_key(f) is key and key == repr(f) and key.ast is f
        # no module-level map of keys beside the objects
        assert not [name for name, value in vars(expr).items() if type(value) is dict
                    and any(type(k) is expr._AstKey for k in value.values())]
        for f in ("x1", 3.0, None):  # no key can be kept on these
            with pytest.raises(TypeError, match="unknown node"):
                evaluate(f, [1.0])

    def test_two_parses_of_one_text_share_one_program(self):
        a, b = parse("x1 * (x2 - 3)", 2), parse("x1 * (x2 - 3)", 2)
        assert a is not b and _ast_key(a) is not _ast_key(b)
        for n in (0, 2):
            assert _program(a, n) is _program(b, n)

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


def _reference_tokenize(text: str):
    """The character-by-character scanner that _tokenize replaced, kept as a
    reference for ASCII text: str.isdigit, isalpha and isalnum also accept
    non-ASCII digits and letters, which the grammar does not have."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i:i + 2]
        if two in ("<=", ">="):
            tokens.append(("op", two, i))
            i += 2
            continue
        if ch in "+-*/^()[]:;&,":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


# the grammar's alphabet, a few ASCII characters outside it, and whitespace
_ASCII_TEXT = st.text(alphabet="0123456789.eE+-*/^()[]:;&,<=>x_pwsqrtabZ!#=? \t\n\x0b\x1c",
                      max_size=16)


@settings(max_examples=1000, deadline=None)
@given(_ASCII_TEXT)
@example("1e+ x1 >= .5E-3_a")
@example("x1 \t")
def test_tokens_of_ascii_text_are_the_reference_scanners(text):
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_reference_tokenize, text)


_NON_ASCII = st.characters(min_codepoint=128).filter(lambda c: c.isalnum())


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="0123456789.eE+-*/^()[]:;&,x_ \t", max_size=8),
       st.characters(min_codepoint=128).filter(str.isalnum))
@example("x", "\u00b2")  # x\u00b2 once reached int("\u00b2") and raised ValueError
@example("x1 + ", "\u0663")  # an Arabic-Indic three once read as 3.0
@example("x", "\u0967")  # a Devanagari one once read as x1
def test_a_non_ascii_digit_or_letter_is_an_unexpected_character(prefix, ch):
    with pytest.raises(ParseError) as err:
        _tokenize(prefix + ch + "1")
    assert str(err.value) == f"unexpected character {ch!r} (offset {len(prefix)})"


@settings(max_examples=500, deadline=None)
@given(st.text())
@example("x\u00b2 + x1")
def test_parse_raises_only_parse_errors(text):
    try:
        parse(text, 2)
    except ParseError:
        pass


def _scaled_norm(u) -> float:
    """m |u / m| for u's largest |entry| m."""
    m = max(map(abs, u))
    return m * math.sqrt(_dot([c / m for c in u], [c / m for c in u]))


@pytest.mark.parametrize("u", [[1e200, 1e200], [3e200, -4e200], [1e308, 1e308, 1e-300], [-1e155, 2e154],
                               [1e-200, 1e-200], [3e-320, 0.0]])
def test_a_norm_whose_sum_overflows_is_taken_of_the_scaled_vector(u):
    # or underflows to 0
    want = _scaled_norm(u)
    assert _dot(u, u) in (0.0, math.inf) and 0.0 < want < math.inf
    # floats, a 1-D array (without numpy's overflow warning) and a column
    # beside a small one read the same bits
    columns = _norm(np.array([u, [1.0] * len(u)]).T)
    assert [_norm(u).hex(), float(_norm(np.array(u))).hex()] == [want.hex()] * 2
    assert columns.tolist() == [want, math.sqrt(len(u))]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=4))
def test_a_norm_of_a_finite_sum_keeps_its_bits(u):
    # an infinite entry or a finite sum reads sqrt(u . u); a sum that
    # underflows to 0 from a nonzero u is taken of the scaled vector, so
    # that a ball of radius 0 reads the distance as nonzero
    s = _dot(u, u)
    if math.isinf(s) and all(map(math.isfinite, u)):
        return
    if s == 0.0 and any(u):
        want = _scaled_norm(u)
        assert want > 0.0 and _norm(u).hex() == want.hex()
        assert _norm(np.array([u]).T).tolist() == [want]
        return
    assert _norm(u).hex() == math.sqrt(s).hex()
    assert _norm(np.array([u]).T).tolist() == [math.sqrt(s)]
