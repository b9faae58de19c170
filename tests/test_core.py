"""The domain types refuse malformed values when they are built."""

import pytest

from qcsol.core import ConstrainedProblem, MultiplierVector, Problem, as_point
from qcsol.errors import DimensionError, InputError
from qcsol.expr import parse
from qcsol.sets import Box, ConvexSetDescriptor

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
                          DimensionError, "objective uses variables out of range: [3]"),
    "constrained dimension": (lambda: _constrained(dimension=0),
                              DimensionError, "dimension must be >= 1"),
    "constrained set dimension": (lambda: _constrained(ground=ConvexSetDescriptor(2)),
                                  DimensionError, "ground set dimension mismatch"),
    "constrained window dimension": (
        lambda: _constrained(window=Box((0.0, 0.0), (1.0, 1.0))),
        DimensionError, "domain window dimension mismatch"),
    "constrained objective variables": (
        lambda: _constrained(objective=parse("x2", 2)),
        DimensionError, "expression uses variables out of range: [2]"),
    "constrained constraint variables": (
        lambda: _constrained(constraints=(X1, parse("x2 + x3", 3))),
        DimensionError, "expression uses variables out of range: [2, 3]"),
    "no constraints": (lambda: _constrained(constraints=()),
                       ValueError, "at least one inequality constraint required"),
    "negative multiplier": (lambda: MultiplierVector((0.5, -1.0)),
                            ValueError, "multipliers must be nonnegative"),
    "point not flat": (lambda: as_point([[1.0, 2.0]]),
                       DimensionError, "a point must be a flat sequence of reals"),
    "point not finite": (lambda: as_point((1.0, NAN)),
                         ValueError, "point (1.0, nan) has non-finite entries"),
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
