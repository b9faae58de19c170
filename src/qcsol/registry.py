"""Builtin example problems used throughout the tests and the CLI.

Each entry is a ready-to-solve problem whose solution set is known in
closed form, plus the anchor point and the canonical grid resolution that
makes the discrete solution set land exactly on grid nodes.  Each problem
is written as the JSON problem document a user would load (README.md
describes the format), with the anchor as its known solution, and is
built by problemfile.load_problem like any user file.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Union

from .core import ConstrainedProblem, Problem
from .problemfile import load_problem


@dataclass(frozen=True)
class ExampleEntry:
    name: str
    problem: Union[Problem, ConstrainedProblem]
    anchor: tuple
    resolution: int
    description: str


_SURD = "-x1 - x2 + sqrt((x1 - x2)^2 + 4)"

# name, canonical resolution, description and problem document of each
# example; the document's known solution is the example's anchor
_EXAMPLES = (
    # f = x2/x1 on the rectangle 1 <= x1 <= 2, 0 <= x2 <= x1.
    # Minimum 0 on the bottom edge x2 = 0.
    ("ex2_1", 41, "ratio objective on a rectangle; solutions on the bottom edge", {
        "dimension": 2,
        "objective": "x2/x1",
        "feasible_set": [
            {"type": "box", "lo": [1.0, 0.0], "hi": [2.0, 2.0]},
            {"type": "halfspace", "a": [-1.0, 1.0], "b": 0.0},  # x2 <= x1
        ],
        "domain_window": {"lo": [1.0, 0.0], "hi": [2.0, 2.0]},
        "known_solution": [1.0, 0.0],
    }),
    # f = x1^3 on the halfplane x1 >= -1; quasiconvex, not pseudoconvex.
    ("ex2_2", 13, "cubic objective on a halfplane; solutions on the line x1 = -1", {
        "dimension": 2,
        "objective": "x1^3",
        "feasible_set": [{"type": "halfspace", "a": [-1.0, 0.0], "b": 1.0}],  # -x1 <= 1
        "domain_window": {"lo": [-1.0, -2.0], "hi": [2.0, 2.0]},
        "known_solution": [-1.0, 0.0],
    }),
    # f = -x1 - x2 + sqrt((x1-x2)^2 + 4) on the disk x1^2 + x2^2 <= 2.
    # Unique minimizer (1, 1) with value 0.
    ("ex2_3", 61, "surd objective on a disk; unique solution (1, 1)", {
        "dimension": 2,
        "objective": _SURD,
        "feasible_set": [{"type": "ball", "center": [0.0, 0.0], "radius": math.sqrt(2.0)}],
        "domain_window": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5]},
        "known_solution": [1.0, 1.0],
    }),
    # C^1 four-branch objective on the halfplane x1 >= 0; the whole
    # solution ray has zero gradient.
    ("ex2_4", 17, "piecewise quadratic on a halfplane; zero-gradient solution ray", {
        "dimension": 2,
        "objective": "pw[x1 >= 0 & x2 >= 0: x1^2 + x2^2; "
                     "x1 <= 0 & x2 >= 0: x2^2; "
                     "x1 <= 0 & x2 <= 0: -(x1^2 * x2^2); "
                     "x1 >= 0 & x2 <= 0: x1^2]",
        "feasible_set": [{"type": "halfspace", "a": [-1.0, 0.0], "b": 0.0}],  # x1 >= 0
        "domain_window": {"lo": [-2.0, -2.0], "hi": [2.0, 2.0]},
        "known_solution": [0.0, 0.0],
    }),
    # 1-D objective flat on [0, 1]; solution set is the whole plateau.
    ("ex4_1", 201, "flat-plateau 1-D objective on [0, 2]; solution set [0, 1]", {
        "dimension": 1,
        "objective": "pw[x1 <= 0: -(x1^2); x1 >= 0 & x1 <= 1: 0; x1 >= 1: (x1 - 1)^2]",
        "feasible_set": [{"type": "box", "lo": [0.0], "hi": [2.0]}],
        "domain_window": {"lo": [0.0], "hi": [2.0]},
        "known_solution": [0.0],
    }),
    # The disk example recast with an inequality constraint and an
    # unconstrained ground set; multiplier 0.5 at (1, 1).
    ("ex2_3_constrained", 61, "disk example as an inequality-constrained problem", {
        "dimension": 2,
        "objective": _SURD,
        "feasible_set": [],
        "constraints": ["x1^2 + x2^2 - 2"],
        "ground_set": [],
        "domain_window": {"lo": [-1.5, -1.5], "hi": [1.5, 1.5]},
        "known_solution": [1.0, 1.0],
    }),
)


@functools.cache
def _table() -> Dict[str, ExampleEntry]:
    """The examples, loaded once per process on first use.  Entries are
    frozen all the way down (frozen dataclasses, tuples, frozen ASTs), so
    every caller can share them; only the dict itself is private."""
    table = {}
    for name, resolution, description, doc in _EXAMPLES:
        problem, anchor, _ = load_problem(doc)
        table[name] = ExampleEntry(name, problem, anchor, resolution, description)
    return table


def get_example(name: str) -> ExampleEntry:
    examples = _table()
    if name not in examples:
        raise KeyError(
            f"unknown example {name!r}; available: {', '.join(sorted(examples))}"
        )
    return examples[name]
