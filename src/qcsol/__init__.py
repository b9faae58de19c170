"""Executable solution-set characterizations for differentiable
quasiconvex programs.

Given one known minimizer, the library decides membership of any other
point through several equivalent first-order characterizations, classifies
the solution set by the gradient dichotomy, computes Lagrange-multiplier
characterizations for inequality-constrained problems, and validates every
route against a brute-force grid oracle and subdifferential-based checks.
"""

from .config import DEFAULT_CONFIG, Config
from .core import (
    CharacVariant,
    ConstrainedProblem,
    DichotomyReport,
    MembershipVerdict,
    MultiplierVector,
    Problem,
)
from .expr import evaluate, evaluate_many, grad, parse, pretty
from .sets import Ball, Box, ConvexSetDescriptor, Halfspace, LinearEquality

__all__ = [
    "Config",
    "DEFAULT_CONFIG",
    "CharacVariant",
    "ConstrainedProblem",
    "DichotomyReport",
    "MembershipVerdict",
    "MultiplierVector",
    "Problem",
    "evaluate",
    "evaluate_many",
    "grad",
    "parse",
    "pretty",
    "Ball",
    "Box",
    "ConvexSetDescriptor",
    "Halfspace",
    "LinearEquality",
]

__version__ = "0.1.0"
