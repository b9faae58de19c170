"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it by exact set comparison on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .charac import _enumerate_grid, _plain_anchor, _reject_constrained
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, ConstrainedProblem, Problem, as_point
from .errors import EmptyGridError
from .expr import _at, evaluate, evaluate_many
from .kkt import feasible_grid
from .sets import sample_grid


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    solution_points: tuple  # of point tuples, deterministic grid order
    grid_size: int


def _grid_of(p: Union[Problem, ConstrainedProblem], resolution: int, cfg: Config) -> np.ndarray:
    if isinstance(p, ConstrainedProblem):
        return feasible_grid(p, resolution, cfg)
    return sample_grid(p.feasible_set, p.domain_window, resolution, cfg.eps_feas)


def brute_force_solutions(
    p: Union[Problem, ConstrainedProblem],
    resolution: int,
    eps_opt: Optional[float] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> OracleResult:
    """Exhaustive minimization over the feasible grid; eps_opt defaults
    to cfg.eps_opt."""
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    return _minimize(p, _grid_of(p, resolution, cfg), eps_opt)


def _minimize(p: Union[Problem, ConstrainedProblem], X: np.ndarray, eps_opt: float) -> OracleResult:
    """The oracle on the feasible grid X, an (N, n) array."""
    if not len(X):
        raise EmptyGridError("no feasible grid point in the window")
    values = evaluate_many(p.objective, X)
    # the builtin min keeps the first of equal minima: a zero keeps its sign
    vmin = min(values.tolist())
    sols = tuple(map(tuple, X[values <= vmin + eps_opt].tolist()))
    return OracleResult(vmin, sols, len(X))


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
    _reject_constrained(p)
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    X = _grid_of(p, resolution, cfg)
    result = _minimize(p, X, eps_opt)
    xb = as_point(xbar, p.dimension)
    if evaluate(p.objective, xb) > result.min_value + eps_opt:
        raise ValueError(
            f"anchor {_at(xb)} is not in the oracle solution set"
        )
    enumerated = set(_enumerate_grid(p, *_plain_anchor(p, xbar, variant, cfg), variant, X, cfg))
    oracle_set = set(result.solution_points)
    missing = tuple(sorted(oracle_set - enumerated))
    extra = tuple(sorted(enumerated - oracle_set))
    return OracleAgreement(not missing and not extra, missing, extra, result)
