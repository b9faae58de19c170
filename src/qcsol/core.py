"""Shared domain types.  Data only, no algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import DimensionError
from .expr import ExprAst, free_variables
from .sets import Box, ConvexSetDescriptor


def as_point(x: Sequence[float], dimension: Optional[int] = None) -> np.ndarray:
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1:
        raise DimensionError("a point must be a flat sequence of reals")
    if not np.all(np.isfinite(xv)):
        raise ValueError(f"point {x!r} has non-finite entries")
    if dimension is not None and xv.size != dimension:
        raise DimensionError(
            f"point has dimension {xv.size}, expected {dimension}"
        )
    return xv


def _check_window(window: Box, dimension: int):
    if len(window.lo) != dimension:
        raise DimensionError("domain window dimension mismatch")


@dataclass(frozen=True)
class Problem:
    """Minimize objective over feasible_set, inside domain_window."""

    objective: ExprAst
    feasible_set: ConvexSetDescriptor
    dimension: int
    domain_window: Box

    # A plain problem is the case of a constrained one with no constraints.
    constraints = ()

    @property
    def ground_set(self) -> ConvexSetDescriptor:
        return self.feasible_set

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError("dimension must be >= 1")
        if self.feasible_set.dimension != self.dimension:
            raise DimensionError("feasible set dimension mismatch")
        _check_window(self.domain_window, self.dimension)
        bad = [i for i in free_variables(self.objective) if i > self.dimension]
        if bad:
            raise DimensionError(f"objective uses variables out of range: {bad}")


@dataclass(frozen=True)
class ConstrainedProblem:
    """Minimize objective over ground_set intersected with {g_i <= 0}."""

    objective: ExprAst
    constraints: tuple  # of ExprAst
    ground_set: ConvexSetDescriptor
    dimension: int
    domain_window: Box

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError("dimension must be >= 1")
        if len(self.constraints) < 1:
            raise ValueError("at least one inequality constraint required")
        if self.ground_set.dimension != self.dimension:
            raise DimensionError("ground set dimension mismatch")
        _check_window(self.domain_window, self.dimension)
        for g in (self.objective,) + tuple(self.constraints):
            bad = [i for i in free_variables(g) if i > self.dimension]
            if bad:
                raise DimensionError(f"expression uses variables out of range: {bad}")

    @property
    def m(self) -> int:
        return len(self.constraints)


@dataclass(frozen=True)
class MultiplierVector:
    lambdas: tuple
    rank_deficient: bool = False

    def __post_init__(self):
        if any(l < 0 for l in self.lambdas):
            raise ValueError("multipliers must be nonnegative")


@dataclass(frozen=True)
class DichotomyReport:
    alternative: str  # "I" or "II"
    common_unit_gradient: Optional[tuple]
    witnesses: tuple  # of (point tuple, gradient norm)


class CharacVariant(str, Enum):
    SHAT1 = "SHAT1"
    SHAT2 = "SHAT2"
    STILDE = "STILDE"
    S1 = "S1"
    S2 = "S2"
    S3 = "S3"
    S4 = "S4"
    S5 = "S5"
    THAT1 = "THAT1"
    THAT2 = "THAT2"
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    SHATP1 = "SHATP1"
    SHATP2 = "SHATP2"
    SP1 = "SP1"
    SP2 = "SP2"
    SP3 = "SP3"
    SP4 = "SP4"
    SP5 = "SP5"
    SHATPP1 = "SHATPP1"
    SHATPP2 = "SHATPP2"

    @property
    def requires_multiplier(self) -> bool:
        return self.value.startswith(("SHATP", "SP"))


@dataclass(frozen=True)
class MembershipVerdict:
    point: tuple
    variant: CharacVariant
    member: bool
    residuals: Dict[str, float] = field(default_factory=dict)
