"""Every refusal the library raises is a QcsolError: found by walking the
source of src/qcsol, and by handing each public entry that reads a point,
rows or a vector the same bad inputs.  README's rule is that input is
refused with errors.InputError or errors.DimensionError and that any other
ValueError is a fault."""

import ast
import functools
import inspect
from pathlib import Path

import numpy as np
import pytest

from qcsol import alternatives, charac, convexity, errors, expr, kkt, sets, subdiff
from qcsol.core import CharacVariant, MultiplierVector
from qcsol.expr import parse
from qcsol.registry import get_example
from qcsol.sets import Ball, Box, Halfspace, LinearEquality

SRC = Path(__file__).parent.parent / "src" / "qcsol"

# (module, exception) raised for what is not an input refusal: expr's
# dispatch on its own node classes, registry's unknown example name (a
# KeyError, as a mapping lookup), the CLI's usage errors and the LP
# kernel's signal of an unbounded phase, which it catches itself.
ALLOWED = {("expr", "TypeError"), ("registry", "KeyError"), ("cli", "UsageError"),
           ("alternatives", "_Unbounded")}
TYPED = {name for name, obj in vars(errors).items()
         if inspect.isclass(obj) and issubclass(obj, errors.QcsolError)}


def _raises():
    """(module, raised name, line) of each raise with an exception in src/qcsol."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # not a re-raise
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.stem, ast.unparse(exc), node.lineno


def test_every_raise_names_a_qcsol_error_or_an_allowed_exception():
    found = list(_raises())
    untyped = [f"{module}.py:{line}: raise {name}" for module, name, line in found
               if name not in TYPED and (module, name) not in ALLOWED]
    assert untyped == []
    # the walk sees the library's refusals, and every allowed exception is still raised
    assert sum(name == "InputError" for _, name, _ in found) >= 10
    assert {(module, name) for module, name, _ in found} >= ALLOWED


# The boundary table: every public entry that reads a point, rows or a
# vector from its caller refuses each bad input with a QcsolError (expr's
# reader: _floats, _as_point, _as_rows), and keeps no record for it.
BAD = {"string": "ab", "string entry": [1.0, "a"], "ragged": [[1.0], [1.0, 2.0]],
       "huge int": 10**400, "huge int entry": [10**400, 0.0], "complex": 1 + 2j, "object": object(),
       "complex array": np.array([1.5 + 1j, 1.0]), "complex scalar entry": [np.complex128(1.5 + 1j), 1.0]}
FLAT = np.array([1.0, 0.0])  # a 1-D array where rows are expected


def _entries():
    """(name, reads rows, call of the bad input, a good input)."""
    e, e1, ec = get_example("ex2_1"), get_example("ex4_1"), get_example("ex2_3_constrained")
    p, p1, cp = e.problem, e1.problem, ec.problem
    f, S, w, xb, xc = p.objective, p.feasible_set, p.domain_window, e.anchor, ec.anchor
    f1, w1, collinear = p1.objective, p1.domain_window, alternatives.collinearity_factor
    lam, pair, T1 = MultiplierVector((0.5,)), subdiff.MLPair(1.0, 0.4), CharacVariant.T1
    return [
        ("membership x", False, lambda b: charac.membership(p, xb, b, T1), xb),
        ("membership xbar", False, lambda b: charac.membership(p, b, xb, T1), xb),
        ("contains", False, lambda b: sets.contains(S, b), xb),
        ("contains_many", True, lambda b: sets.contains_many(S, b), [xb]),
        ("atom_violation", False, lambda b: sets.atom_violation(S.atoms[0], b), xb),
        ("normal_cone_generators", False, lambda b: sets.normal_cone_generators(S, b), xb),
        ("evaluate", False, lambda b: expr.evaluate(f, b), xb),
        ("evaluate_many", True, lambda b: expr.evaluate_many(f, b), [xb]),
        ("grad", False, lambda b: expr.grad(f, b), xb),
        ("grad_many", True, lambda b: expr.grad_many(f, b), [xb]),
        ("classify_dichotomy", True, lambda b: charac.classify_dichotomy(p, b), [xb]),
        ("is_feasible", False, lambda b: kkt.is_feasible(cp, b), xc),
        ("member_X1 x", False, lambda b: kkt.member_X1(cp, xc, lam, b), xc),
        ("member_X1 xbar", False, lambda b: kkt.member_X1(cp, b, lam, xc), xc),
        ("lagrangian", False, lambda b: kkt.lagrangian(cp, lam, b), xc),
        ("gp_solution_check x", False, lambda b: subdiff.gp_solution_check(p, xb, b, 5), xb),
        ("gp_solution_check xbar", False, lambda b: subdiff.gp_solution_check(p, b, xb, 5), xb),
        ("gp_member x0", False, lambda b: subdiff.gp_member(f, b, (1.0, 0.0), w, 5), xb),
        ("gp_member v", False, lambda b: subdiff.gp_member(f, xb, b, w, 5), (1.0, 0.0)),
        ("ml_solution_check_1d x", False, lambda b: subdiff.ml_solution_check_1d(p1, 0.5, b, 41), 0.5),
        ("ml_solution_check_1d xbar", False, lambda b: subdiff.ml_solution_check_1d(p1, b, 0.5, 41), 0.5),
        ("ml_member_1d", False, lambda b: subdiff.ml_member_1d(f1, b, pair, w1, 41), 0.5),
        ("check_pseudoconvex_at", False, lambda b: convexity.check_pseudoconvex_at(f, b, w, 20), xb),
        ("collinearity_factor a", False, lambda b: collinear(b, [1.0, 2.0]), [2.0, 4.0]),
        ("collinearity_factor b", False, lambda b: collinear([1.0, 2.0], b), [2.0, 4.0]),
        ("solve_lp c", False, lambda b: alternatives.solve_lp(b, [[1.0, 1.0]], [1.0]), [1.0, 1.0]),
        ("solve_lp A_ub", True, lambda b: alternatives.solve_lp([1.0, 1.0], b, [1.0]), [[1.0, 1.0]]),
        ("solve_lp b_ub", False, lambda b: alternatives.solve_lp([1.0, 1.0], [[1.0, 1.0]], b), [1.0]),
        ("gordan_alternative", True, lambda b: alternatives.gordan_alternative(b), [[1.0, 0.0]]),
        ("dual_certificate", True, lambda b: alternatives.dual_certificate(b), [[1.0, 0.0]]),
        ("Box lo", False, lambda b: Box(b, (1.0, 1.0)), (0.0, 0.0)),
        ("Box hi", False, lambda b: Box((0.0, 0.0), b), (1.0, 1.0)),
        ("Halfspace a", False, lambda b: Halfspace(b, 0.0), (1.0, 0.0)),
        ("Halfspace b", False, lambda b: Halfspace((1.0, 0.0), b), 0.0),
        ("Ball center", False, lambda b: Ball(b, 1.0), (0.0, 0.0)),
        ("Ball radius", False, lambda b: Ball((0.0, 0.0), b), 1.0),
        ("LinearEquality a", False, lambda b: LinearEquality(b, 0.0), (1.0, 0.0)),
        ("LinearEquality b", False, lambda b: LinearEquality((1.0, 0.0), b), 0.0),
        ("MultiplierVector", False, lambda b: MultiplierVector(b), (0.5,)),
    ]


_CASES = [(name, bad) for name, rows, _, _ in _entries() for bad in [*BAD, *(["1-D rows"] if rows else [])]]


@pytest.mark.parametrize("name, bad", _CASES, ids=[f"{name}-{bad}" for name, bad in _CASES])
def test_each_entry_refuses_a_bad_input_with_a_qcsol_error_and_keeps_nothing(name, bad):
    (call, good), = [(call, good) for entry, _, call, good in _entries() if entry == name]
    call(good)  # the records a good call keeps are kept before the bad call
    kept = dict(sets._KEPT)
    with pytest.raises(errors.QcsolError):
        call(FLAT if bad == "1-D rows" else BAD[bad])
    assert dict(sets._KEPT) == kept


# Arguments other than points that the library reads from its caller: the
# samplers' counts (integers, a bool not among them) and the LP kernel's
# rows and right-hand sides, each read once by its public entry.
_f, _w = parse("x1^2 + x2^2", 2), Box((-1.0, -1.0), (1.0, 1.0))
_SAMPLERS = [(convexity.check_quasiconvex, "pairs", (_f, _w)),
             (convexity.check_quasiconvex, "t_steps", (_f, _w)),
             (convexity.check_first_order_qcx, "pairs", (_f, _w)),
             (convexity.check_pseudoconvex_at, "samples", (_f, (0.0, 0.0), _w))]
OTHERS = {
    **{f"{f.__name__} {name}={bad!r}": functools.partial(f, *args, **{name: bad})
       for f, name, args in _SAMPLERS for bad in (2.5, "a", True)},
    "solve_lp string row entry": lambda: alternatives.solve_lp([1.0], [["a"]], [1.0]),
    "strict_feasibility string row entry":
        lambda: alternatives.strict_feasibility(None, None, [["a"]], [0.0]),
    "strict_feasibility no right-hand side":
        lambda: alternatives.strict_feasibility(None, None, [[1.0]], None),
}


@pytest.mark.parametrize("name", OTHERS)
def test_each_count_and_lp_input_is_refused_with_a_qcsol_error(name):
    kept = dict(sets._KEPT)
    with pytest.raises(errors.QcsolError):
        OTHERS[name]()
    assert dict(sets._KEPT) == kept


_S = get_example("ex2_1").problem.feasible_set
# a bad row is refused under the name of the argument that holds it
ROW_MESSAGES = {
    "A_ub row is not readable as reals: could not convert string to float: 'a'":
        lambda: alternatives.solve_lp([1.0], [["a"]], [1.0]),
    "A_strict row is not readable as reals: could not convert string to float: 'a'":
        lambda: alternatives.strict_feasibility(None, None, [["a"]], [0.0]),
    "A row is not readable as reals: could not convert string to float: 'a'":
        lambda: alternatives.gordan_alternative([[1.0, "a"]]),
    "X row is not readable as reals: could not convert string to float: 'a'":
        lambda: sets.contains_many(_S, [[1.0, "a"]]),
    "X row is not readable as reals: could not convert string to float: 'b'":
        lambda: expr.evaluate_many(_f, [[1.0, "b"]]),
    "X row has dimension 1, expected 2": lambda: sets.contains_many(_S, [[1.0], [1.0, 2.0]]),
    "X row (1.0, nan) has non-finite entries":
        lambda: sets.contains_many(_S, [[0.0, 0.0], [1.0, float("nan")]]),
}


@pytest.mark.parametrize("message", ROW_MESSAGES)
def test_a_bad_row_is_refused_under_its_arguments_name(message):
    with pytest.raises(errors.QcsolError) as info:
        ROW_MESSAGES[message]()
    assert str(info.value) == message


# numpy reads a numpy complex number's real part, with a ComplexWarning
# only; the reader refuses it, in an array or as an entry of a list, and a
# Python complex number keeps numpy's own message
COMPLEX_MESSAGES = {
    "point is not readable as reals: an entry of dtype complex128 is not real":
        [np.complex128(1.5 + 1j), 1.0],
    "point is not readable as reals: an entry of dtype complex64 is not real":
        np.array([1.5, 1.0], dtype=np.complex64),
    "point is not readable as reals: float() argument must be a string or a real number, not 'complex'":
        [1.5 + 1j, 1.0],
}


@pytest.mark.parametrize("message", COMPLEX_MESSAGES)
@pytest.mark.filterwarnings("error")
def test_a_complex_entry_is_refused_without_a_warning(message):
    with pytest.raises(errors.InputError) as info:
        sets.contains(_S, COMPLEX_MESSAGES[message])
    assert str(info.value) == message
