"""Closed-form facts the benchmark checks every output against.

Nothing here imports qcsol: the solution sets, objective values and the
agreement table are written out by hand from the builtin examples'
definitions, so a wrong answer from the library cannot also change the
reference it is compared with.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

UNCONSTRAINED = ("ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex4_1")
CONSTRAINED = "ex2_3_constrained"

PLAIN_VARIANTS = (
    "SHAT1", "SHAT2", "STILDE", "S1", "S2", "S3", "S4", "S5",
    "THAT1", "THAT2", "T1", "T2", "T3", "T4", "T5",
)
PRIMED_VARIANTS = (
    "SHATP1", "SHATP2", "SP1", "SP2", "SP3", "SP4", "SP5", "SHATPP1", "SHATPP2",
)

# Verdict of oracle.agreement for every (example, variant) pair at the
# canonical resolution: True/False is `equal`, HYPOTHESIS means the call
# raises HypothesisViolatedError (the anchor gradient vanishes).
HYPOTHESIS = "HypothesisViolatedError"
_S_FAMILY = ("SHAT1", "SHAT2", "S1", "S2", "S3", "S4", "S5")


def agreement_verdict(example: str, variant: str):
    if example in ("ex2_4", "ex4_1"):
        return HYPOTHESIS if variant in _S_FAMILY else True
    if variant == "STILDE":
        return False
    if example == "ex2_2" and variant in ("T1", "T2"):
        return False
    return True


# Canonical grid of each example: (window lo, window hi, resolution).
WINDOWS = {
    "ex2_1": ((1.0, 0.0), (2.0, 2.0), 41),
    "ex2_2": ((-1.0, -2.0), (2.0, 2.0), 13),
    "ex2_3": ((-1.5, -1.5), (1.5, 1.5), 61),
    "ex2_4": ((-2.0, -2.0), (2.0, 2.0), 17),
    "ex4_1": ((0.0,), (2.0,), 201),
    "ex2_3_constrained": ((-1.5, -1.5), (1.5, 1.5), 61),
}

MIN_VALUES = {
    "ex2_1": 0.0,
    "ex2_2": -1.0,
    "ex2_3": 0.0,
    "ex2_4": 0.0,
    "ex4_1": 0.0,
    "ex2_3_constrained": 0.0,
}

DICHOTOMY = {"ex2_1": "I", "ex2_2": "I", "ex2_3": "I", "ex2_4": "II", "ex4_1": "II"}

LAMBDA = 0.5  # KKT multiplier of ex2_3_constrained at its anchor

_FEAS_TOL = 1e-9


def feasible(example: str, x) -> bool:
    x1 = x[0]
    if example == "ex2_1":
        x2 = x[1]
        return 1.0 <= x1 <= 2.0 and 0.0 <= x2 <= 2.0 and x2 - x1 <= _FEAS_TOL
    if example == "ex2_2":
        return -x1 <= 1.0 + _FEAS_TOL
    if example in ("ex2_3", CONSTRAINED):
        return math.hypot(x1, x[1]) - math.sqrt(2.0) <= _FEAS_TOL
    if example == "ex2_4":
        return -x1 <= _FEAS_TOL
    if example == "ex4_1":
        return 0.0 <= x1 <= 2.0
    raise KeyError(example)


def is_solution(example: str, x) -> bool:
    """Membership in the closed-form solution set (grid nodes only)."""
    if example == "ex2_1":
        return x[1] == 0.0
    if example == "ex2_2":
        return x[0] == -1.0
    if example in ("ex2_3", CONSTRAINED):
        return tuple(x) == (1.0, 1.0)
    if example == "ex2_4":
        return x[0] == 0.0 and x[1] <= 0.0
    if example == "ex4_1":
        return x[0] <= 1.0
    raise KeyError(example)


def grid(example: str):
    """Feasible nodes of the canonical grid, in the library's row-major
    order, as tuples of floats."""
    lo, hi, res = WINDOWS[example]
    axes = [np.linspace(a, b, res) for a, b in zip(lo, hi)]
    nodes = (tuple(float(c) for c in node) for node in itertools.product(*axes))
    return [x for x in nodes if feasible(example, x)]


def solution_set(example: str):
    return {x for x in grid(example) if is_solution(example, x)}


# Windows on which each builtin objective is quasiconvex and pseudoconvex
# at its anchor, so every sampler must report "holds".  The quadrant
# objective is only quasiconvex on its feasible halfplane x1 >= 0.
SAMPLER_WINDOWS = {
    name: (lo, hi) for name, (lo, hi, _) in WINDOWS.items()
}
SAMPLER_WINDOWS["ex2_4"] = ((0.0, -2.0), (2.0, 2.0))
