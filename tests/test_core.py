"""The domain types refuse malformed values when they are built."""

import pytest

from qcsol.core import ConstrainedProblem, MultiplierVector, Problem, as_point
from qcsol.errors import DimensionError, InputError
from qcsol.expr import parse
from qcsol.sets import Ball, Box, ConvexSetDescriptor, Halfspace

NAN = float("nan")
UNIT = Box((0.0,), (1.0,))
LINE = ConvexSetDescriptor(1)
X1 = parse("x1", 1)


def _constrained(objective=X1, constraints=(X1,), ground=LINE, dimension=1, window=UNIT):
    return ConstrainedProblem(objective, constraints, ground, dimension, window)


REFUSALS = {
    "box lo/hi lengths": (lambda: Box((0.0,), (1.0, 2.0)),
                          DimensionError, "box lo/hi lengths differ"),
    "box NaN bound": (lambda: Box((0.0, NAN), (1.0, 1.0)), InputError, "box has a NaN bound"),
    "box lo > hi": (lambda: Box((1.0,), (0.0,)), InputError, "box has lo > hi"),
    "set dimension": (lambda: ConvexSetDescriptor(0), DimensionError, "dimension must be >= 1"),
    "set atom dimension": (
        lambda: ConvexSetDescriptor(2, (UNIT,)), DimensionError,
        "atom Box(lo=(0.0,), hi=(1.0,)) has wrong dimension for n=2"),
    "problem dimension": (lambda: Problem(X1, LINE, 0, UNIT),
                          DimensionError, "dimension must be >= 1"),
    "problem set dimension": (lambda: Problem(X1, ConvexSetDescriptor(2), 1, UNIT),
                              DimensionError, "feasible set dimension mismatch"),
    "problem window dimension": (lambda: Problem(X1, LINE, 1, Box((0.0, 0.0), (1.0, 1.0))),
                                 DimensionError, "domain window dimension mismatch"),
    "problem variables": (lambda: Problem(parse("x1 + x3", 3), LINE, 1, UNIT),
                          DimensionError, "expression reads x3, beyond dimension 1"),
    # the guards read every coordinate of the dimension they were parsed at
    "problem guard variables": (
        lambda: Problem(parse("pw[x1 <= 0: -x1; x1 >= 0: x1]", 3), ConvexSetDescriptor(2), 2,
                        Box((-1.0, -1.0), (1.0, 1.0))),
        DimensionError, "expression reads x3, beyond dimension 2"),
    "constrained dimension": (lambda: _constrained(dimension=0),
                              DimensionError, "dimension must be >= 1"),
    "constrained set dimension": (lambda: _constrained(ground=ConvexSetDescriptor(2)),
                                  DimensionError, "ground set dimension mismatch"),
    "constrained window dimension": (
        lambda: _constrained(window=Box((0.0, 0.0), (1.0, 1.0))),
        DimensionError, "domain window dimension mismatch"),
    "constrained objective variables": (
        lambda: _constrained(objective=parse("x2", 2)),
        DimensionError, "expression reads x2, beyond dimension 1"),
    "constrained constraint variables": (
        lambda: _constrained(constraints=(X1, parse("x2 + x3", 3))),
        DimensionError, "expression reads x3, beyond dimension 1"),
    "no constraints": (lambda: _constrained(constraints=()),
                       InputError, "at least one inequality constraint required"),
    "negative multiplier": (lambda: MultiplierVector((0.5, -1.0)),
                            InputError, "multipliers must be nonnegative finite reals"),
    "nan multiplier": (lambda: MultiplierVector((NAN,)),
                       InputError, "multipliers must be nonnegative finite reals"),
    "infinite multiplier": (lambda: MultiplierVector((0.0, float("inf"))),
                            InputError, "multipliers must be nonnegative finite reals"),
    # the entries Config refuses in its fields: a string, a bool, an int beyond the floats
    "string multiplier": (lambda: MultiplierVector(("a",)),
                          InputError, "multipliers must be nonnegative finite reals"),
    "bool multiplier": (lambda: MultiplierVector((True,)),
                        InputError, "multipliers must be nonnegative finite reals"),
    "huge multiplier": (lambda: MultiplierVector((10**400,)),
                        InputError, "multipliers must be nonnegative finite reals"),
    "scalar multipliers": (lambda: MultiplierVector(0.5),
                           InputError, "multipliers must be nonnegative finite reals"),
    # an atom's field is read as reals (expr._floats) to be checked
    "box string bound": (lambda: Box(("a",), (1.0,)), InputError,
                         "box lo is not readable as reals: could not convert string to float: 'a'"),
    "box scalar bound": (lambda: Box(0.0, (1.0,)), DimensionError,
                         "box lo has shape (), expected a flat sequence"),
    "halfspace huge entry": (lambda: Halfspace((10**400, 1.0), 0.0), InputError,
                             "halfspace is not readable as reals: int too large to convert to float"),
    "ball huge radius": (lambda: Ball((0.0, 0.0), 10**400), InputError,
                         "ball radius is not readable as reals: int too large to convert to float"),
    "ball radius sequence": (lambda: Ball((0.0, 0.0), (1.0,)), DimensionError,
                             "ball radius has shape (1,), expected one real"),
    "point not flat": (lambda: as_point([[1.0, 2.0]]),
                       DimensionError, "point has shape (1, 2), expected a flat sequence"),
    "point not finite": (lambda: as_point((1.0, NAN)),
                         InputError, "point (1.0, nan) has non-finite entries"),
    "point dimension": (lambda: as_point((1.0, 2.0), 3),
                        DimensionError, "point has dimension 2, expected 3"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_constructor_refusal(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message
