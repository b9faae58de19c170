"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it by exact set comparison on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .charac import _check_kind, _enumerate
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, ConstrainedProblem, Problem, as_point
from .errors import HypothesisViolatedError
from .expr import _at, evaluate
from .kkt import _grid


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
    grid = _grid(p, resolution, cfg)
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
    result = brute_force_solutions(p, resolution, eps_opt, cfg)
    xb = as_point(xbar, p.dimension)
    if evaluate(p.objective, xb) > result.min_value + eps_opt:
        raise HypothesisViolatedError(f"anchor {_at(xb)} is not in the oracle solution set")
    oracle_set = set(result.solution_points)
    enumerated = set(_enumerate(p, xbar, None, variant, resolution, cfg))
    missing = tuple(sorted(oracle_set - enumerated))
    extra = tuple(sorted(enumerated - oracle_set))
    return OracleAgreement(not missing and not extra, missing, extra, result)
