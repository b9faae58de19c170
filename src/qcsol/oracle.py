"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it by exact set comparison on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

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
from .errors import EmptyGridError, HypothesisViolatedError
from .expr import _at, evaluate, evaluate_many, grad_many
from .kkt import _masks, feasible_grid, strict_index_set


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
    return _minimize(p, feasible_grid(p, resolution, cfg), eps_opt)


def _minimize(p: Union[Problem, ConstrainedProblem], X: np.ndarray, eps_opt: float) -> OracleResult:
    """The oracle on the feasible grid X, an (N, n) array."""
    vmin, solutions = _level_set(p, X, eps_opt)
    return OracleResult(vmin, tuple(map(tuple, X[solutions].tolist())), len(X))


def _level_set(p: Union[Problem, ConstrainedProblem], X: np.ndarray, eps_opt: float):
    """The least objective value on the feasible grid X and the mask of
    the rows within eps_opt of it."""
    if not len(X):
        raise EmptyGridError("no feasible grid point in the window")
    values = evaluate_many(p.objective, X)
    # the builtin min keeps the first of equal minima: a zero keeps its sign
    vmin = min(values.tolist())
    return vmin, values <= vmin + eps_opt


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
    X = feasible_grid(p, resolution, cfg)
    result = _minimize(p, X, eps_opt)
    return _agreements(p, xbar, (variant,), X, result, eps_opt, cfg)[variant]


def _agreements(p: Problem, xbar, variants: Sequence[CharacVariant], X: np.ndarray,
                result: OracleResult, eps_opt: float, cfg: Config, G=None) -> dict:
    """agreement of each plain variant, in order, on the grid X whose
    oracle is result; G as in charac._enumerate."""
    xb = as_point(xbar, p.dimension)
    if evaluate(p.objective, xb) > result.min_value + eps_opt:
        raise HypothesisViolatedError(f"anchor {_at(xb)} is not in the oracle solution set")
    oracle_set = set(result.solution_points)
    reports = {}
    for variant in variants:
        enumerated = set(_enumerate(p, xbar, None, variant, X, cfg, G))
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
    rows only.
    """
    for listed in (variants or {}).values():
        for variant in listed:
            _check_kind(p, None, variant)
    X = feasible_grid(p, resolution, cfg)
    vmin, solutions = _level_set(p, X, cfg.eps_opt)
    S = X[solutions]
    result = OracleResult(vmin, tuple(map(tuple, S.tolist())), len(X))
    if lam is not None:
        tilde = strict_index_set(p, xbar, lam, cfg)
        return GridChecks(result, None, {}, bool(_masks(p, S, tilde, cfg)["in_X1"].all()))
    G = grad_many(p.objective, X if variants else S, p.dimension)
    dich = _dichotomy(S, G[solutions] if variants else G, cfg)
    listed = (variants or {}).get(dich.alternative, ())
    reports = _agreements(p, xbar, listed, X, result, cfg.eps_opt, cfg, G) if listed else {}
    return GridChecks(result, dich, reports, None)
