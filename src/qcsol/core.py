"""Shared domain types.  Data only, no algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

from .config import _is_finite_real
from .errors import DimensionError, InputError
from .expr import ExprAst, _program, _as_point as as_point  # noqa: F401  (as_point: the point reader)
from .sets import Box, ConvexSetDescriptor


def _check(p, name: str):
    """Refuse a problem whose set, window or expressions do not fit its
    dimension; an expression fits when its program reads no coordinate
    beyond it."""
    if p.dimension < 1:
        raise DimensionError("dimension must be >= 1")
    if p.ground_set.dimension != p.dimension:
        raise DimensionError(f"{name} dimension mismatch")
    if len(p.domain_window.lo) != p.dimension:
        raise DimensionError("domain window dimension mismatch")
    reads = max(_program(e, 0)[1] for e in (p.objective, *p.constraints))
    if reads > p.dimension:
        raise DimensionError(f"expression reads x{reads}, beyond dimension {p.dimension}")


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
        _check(self, "feasible set")


@dataclass(frozen=True)
class ConstrainedProblem:
    """Minimize objective over ground_set intersected with {g_i <= 0}."""

    objective: ExprAst
    constraints: tuple  # of ExprAst
    ground_set: ConvexSetDescriptor
    dimension: int
    domain_window: Box

    def __post_init__(self):
        _check(self, "ground set")
        if len(self.constraints) < 1:
            raise InputError("at least one inequality constraint required")


@dataclass(frozen=True)
class MultiplierVector:
    lambdas: tuple
    rank_deficient: bool = False

    def __post_init__(self):
        """Refuse all but a sequence of nonnegative finite reals (as Config reads a real)."""
        ok = hasattr(self.lambdas, "__iter__") and all(_is_finite_real(l) and l >= 0 for l in self.lambdas)
        if not ok:
            raise InputError("multipliers must be nonnegative finite reals")


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
