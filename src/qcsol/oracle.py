"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it by exact set comparison on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from .charac import _check_kind, _dichotomy, _enumerate
from .config import DEFAULT_CONFIG, Config
from .core import (
    CharacVariant,
    ConstrainedProblem,
    DichotomyReport,
    MultiplierVector,
    Problem,
    as_point,
)
from .errors import HypothesisViolatedError
from .expr import _at, evaluate
from .kkt import _grid, _masks, strict_index_set


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    solution_points: tuple  # of point tuples, deterministic grid order
    grid_size: int


def brute_force_solutions(
    p: Union[Problem, ConstrainedProblem],
    resolution: int,
    eps_opt: Optional[float] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> OracleResult:
    """Exhaustive minimization over the feasible grid; eps_opt defaults
    to cfg.eps_opt."""
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    return _minimize(_grid(p, resolution, cfg), eps_opt)


def _minimize(grid, eps_opt: float) -> OracleResult:
    """The oracle on the feasible grid record grid (kkt._grid)."""
    vmin, solutions = grid.level_set(eps_opt)
    return OracleResult(vmin, tuple(map(tuple, grid.X[solutions].tolist())), len(grid.X))


@dataclass(frozen=True)
class OracleAgreement:
    equal: bool
    missing: tuple  # oracle points the variant missed
    extra: tuple    # variant points outside the oracle set
    oracle: OracleResult


def agreement(
    p: Problem,
    xbar,
    variant: CharacVariant,
    resolution: int,
    eps_opt: Optional[float] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> OracleAgreement:
    """Symmetric difference of the oracle set and one enumerated variant on
    one grid; eps_opt defaults to cfg.eps_opt."""
    _check_kind(p, None, variant)
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    grid = _grid(p, resolution, cfg)
    result = _minimize(grid, eps_opt)
    return _agreements(p, xbar, (variant,), grid, result, eps_opt, cfg)[variant]


def _agreements(p: Problem, xbar, variants: Sequence[CharacVariant], grid,
                result: OracleResult, eps_opt: float, cfg: Config) -> dict:
    """agreement of each plain variant, in order, on the grid record grid
    whose oracle is result."""
    xb = as_point(xbar, p.dimension)
    if evaluate(p.objective, xb) > result.min_value + eps_opt:
        raise HypothesisViolatedError(f"anchor {_at(xb)} is not in the oracle solution set")
    oracle_set = set(result.solution_points)
    reports = {}
    for variant in variants:
        enumerated = set(_enumerate(p, xbar, None, variant, grid, cfg))
        missing = tuple(sorted(oracle_set - enumerated))
        extra = tuple(sorted(enumerated - oracle_set))
        reports[variant] = OracleAgreement(not missing and not extra, missing, extra, result)
    return reports


@dataclass(frozen=True)
class GridChecks:
    oracle: OracleResult
    dichotomy: Optional[DichotomyReport]  # without a multiplier
    agreements: dict                      # variant -> OracleAgreement
    solutions_in_X1: Optional[bool]       # with a multiplier


def grid_checks(
    p: Union[Problem, ConstrainedProblem],
    xbar,
    resolution: int,
    variants: Optional[Dict[str, Sequence[CharacVariant]]] = None,
    lam: Optional[MultiplierVector] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> GridChecks:
    """Every check of the oracle's solution set on one feasible grid, with
    one oracle result and at most one gradient array.

    With a multiplier lam: whether X1(lam) holds every oracle solution,
    decided in one mask call.  Without: the dichotomy of the oracle's
    solutions, and the agreement of each plain variant that variants lists
    under the dichotomy's alternative ("I" or "II").  The gradients are
    taken at every grid row when variants is given, else at the solution
    rows only (or read from the grid's record).  lam excludes variants.
    """
    if lam is not None and variants is not None:
        raise ValueError("grid_checks takes a multiplier or variants, not both")
    for listed in (variants or {}).values():
        for variant in listed:
            _check_kind(p, None, variant)
    grid = _grid(p, resolution, cfg)
    result = _minimize(grid, cfg.eps_opt)
    solutions = grid.level_set(cfg.eps_opt)[1]
    if lam is not None:
        tilde = strict_index_set(p, xbar, lam, cfg)
        in_X1 = _masks(p, grid, tilde, cfg)["in_X1"]
        return GridChecks(result, None, {}, bool(in_X1[solutions].all()))
    if variants:
        grid.gradients()  # kept for the agreements
    dich = _dichotomy(grid.X[solutions], grid.gradients(solutions), cfg)
    listed = (variants or {}).get(dich.alternative, ())
    reports = _agreements(p, xbar, listed, grid, result, cfg.eps_opt, cfg) if listed else {}
    return GridChecks(result, dich, reports, None)
