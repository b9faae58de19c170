"""Builtin example problems used throughout the tests and the CLI.

Each entry is a ready-to-solve problem whose solution set is known in
closed form, plus the anchor point and the canonical grid resolution that
makes the discrete solution set land exactly on grid nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

from .core import ConstrainedProblem, Problem
from .expr import parse
from .sets import Ball, Box, ConvexSetDescriptor, Halfspace


@dataclass(frozen=True)
class ExampleEntry:
    name: str
    problem: Union[Problem, ConstrainedProblem]
    anchor: tuple
    resolution: int
    description: str


def _ex_ratio() -> ExampleEntry:
    # f = x2/x1 on the rectangle 1 <= x1 <= 2, 0 <= x2 <= x1.
    # Minimum 0 on the bottom edge x2 = 0.
    f = parse("x2/x1", 2)
    S = ConvexSetDescriptor(
        2,
        (
            Box((1.0, 0.0), (2.0, 2.0)),
            Halfspace((-1.0, 1.0), 0.0),  # x2 <= x1
        ),
    )
    problem = Problem(f, S, 2, Box((1.0, 0.0), (2.0, 2.0)))
    return ExampleEntry(
        "ex2_1", problem, (1.0, 0.0), 41,
        "ratio objective on a rectangle; solutions on the bottom edge",
    )


def _ex_cubic() -> ExampleEntry:
    # f = x1^3 on the halfplane x1 >= -1; quasiconvex, not pseudoconvex.
    f = parse("x1^3", 2)
    S = ConvexSetDescriptor(2, (Halfspace((-1.0, 0.0), 1.0),))  # -x1 <= 1
    problem = Problem(f, S, 2, Box((-1.0, -2.0), (2.0, 2.0)))
    return ExampleEntry(
        "ex2_2", problem, (-1.0, 0.0), 13,
        "cubic objective on a halfplane; solutions on the line x1 = -1",
    )


def _ex_surd() -> ExampleEntry:
    # f = -x1 - x2 + sqrt((x1-x2)^2 + 4) on the disk x1^2 + x2^2 <= 2.
    # Unique minimizer (1, 1) with value 0.
    f = parse("-x1 - x2 + sqrt((x1 - x2)^2 + 4)", 2)
    S = ConvexSetDescriptor(2, (Ball((0.0, 0.0), math.sqrt(2.0)),))
    problem = Problem(f, S, 2, Box((-1.5, -1.5), (1.5, 1.5)))
    return ExampleEntry(
        "ex2_3", problem, (1.0, 1.0), 61,
        "surd objective on a disk; unique solution (1, 1)",
    )


_QUADRANT_F = (
    "pw[x1 >= 0 & x2 >= 0: x1^2 + x2^2; "
    "x1 <= 0 & x2 >= 0: x2^2; "
    "x1 <= 0 & x2 <= 0: -(x1^2 * x2^2); "
    "x1 >= 0 & x2 <= 0: x1^2]"
)


def _ex_quadrant() -> ExampleEntry:
    # C^1 four-branch objective on the halfplane x1 >= 0; the whole
    # solution ray has zero gradient.
    f = parse(_QUADRANT_F, 2)
    S = ConvexSetDescriptor(2, (Halfspace((-1.0, 0.0), 0.0),))  # x1 >= 0
    problem = Problem(f, S, 2, Box((-2.0, -2.0), (2.0, 2.0)))
    return ExampleEntry(
        "ex2_4", problem, (0.0, 0.0), 17,
        "piecewise quadratic on a halfplane; zero-gradient solution ray",
    )


def _ex_flat_1d() -> ExampleEntry:
    # 1-D objective flat on [0, 1]; solution set is the whole plateau.
    f = parse("pw[x1 <= 0: -(x1^2); x1 >= 0 & x1 <= 1: 0; x1 >= 1: (x1 - 1)^2]", 1)
    S = ConvexSetDescriptor(1, (Box((0.0,), (2.0,)),))
    problem = Problem(f, S, 1, Box((0.0,), (2.0,)))
    return ExampleEntry(
        "ex4_1", problem, (0.0,), 201,
        "flat-plateau 1-D objective on [0, 2]; solution set [0, 1]",
    )


def _ex_surd_constrained() -> ExampleEntry:
    # The disk example recast with an inequality constraint and an
    # unconstrained ground set; multiplier 0.5 at (1, 1).
    f = parse("-x1 - x2 + sqrt((x1 - x2)^2 + 4)", 2)
    g1 = parse("x1^2 + x2^2 - 2", 2)
    cp = ConstrainedProblem(
        f, (g1,), ConvexSetDescriptor(2, ()), 2, Box((-1.5, -1.5), (1.5, 1.5))
    )
    return ExampleEntry(
        "ex2_3_constrained", cp, (1.0, 1.0), 61,
        "disk example as an inequality-constrained problem",
    )


@functools.cache
def _table() -> Dict[str, ExampleEntry]:
    """The examples, built once per process on first use.  Entries are
    frozen all the way down (frozen dataclasses, tuples, frozen ASTs), so
    every caller can share them; only the dict itself is private."""
    entries = (
        _ex_ratio(),
        _ex_cubic(),
        _ex_surd(),
        _ex_quadrant(),
        _ex_flat_1d(),
        _ex_surd_constrained(),
    )
    return {e.name: e for e in entries}


def builtin_examples() -> Dict[str, ExampleEntry]:
    """A fresh dict of the shared entries, so a caller may change it."""
    return dict(_table())


def get_example(name: str) -> ExampleEntry:
    examples = _table()
    if name not in examples:
        raise KeyError(
            f"unknown example {name!r}; available: {', '.join(sorted(examples))}"
        )
    return examples[name]
