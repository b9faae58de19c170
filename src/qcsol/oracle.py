"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it by exact set comparison on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from .charac import enumerate_solution_set
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, ConstrainedProblem, Problem, as_point
from .errors import EmptyGridError
from .expr import evaluate, evaluate_many
from .kkt import feasible_grid
from .sets import sample_grid


@dataclass(frozen=True)
class OracleResult:
    min_value: float
    solution_points: tuple  # of point tuples, deterministic grid order
    grid_size: int


def _grid_of(p: Union[Problem, ConstrainedProblem], resolution: int, cfg: Config):
    if isinstance(p, ConstrainedProblem):
        return feasible_grid(p, resolution, cfg)
    return sample_grid(p.feasible_set, p.domain_window, resolution, cfg.eps_feas)


def brute_force_solutions(
    p: Union[Problem, ConstrainedProblem],
    resolution: int,
    eps_opt: float = 1e-9,
    cfg: Config = DEFAULT_CONFIG,
) -> OracleResult:
    """Exhaustive minimization over the feasible grid."""
    pts = _grid_of(p, resolution, cfg)
    if not pts:
        raise EmptyGridError("no feasible grid point in the window")
    values = evaluate_many(p.objective, np.array(pts)).tolist()
    vmin = min(values)
    sols = tuple(
        tuple(float(c) for c in x)
        for x, v in zip(pts, values)
        if v <= vmin + eps_opt
    )
    return OracleResult(float(vmin), sols, len(pts))


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
    eps_opt: float = 1e-9,
    cfg: Config = DEFAULT_CONFIG,
) -> OracleAgreement:
    """Symmetric difference of the oracle set and one enumerated variant."""
    result = brute_force_solutions(p, resolution, eps_opt, cfg)
    xb = as_point(xbar, p.dimension)
    if evaluate(p.objective, xb) > result.min_value + eps_opt:
        raise ValueError(
            f"anchor {tuple(xb)} is not in the oracle solution set"
        )
    enumerated = set(enumerate_solution_set(p, xbar, variant, resolution, cfg))
    oracle_set = set(result.solution_points)
    missing = tuple(sorted(oracle_set - enumerated))
    extra = tuple(sorted(enumerated - oracle_set))
    return OracleAgreement(not missing and not extra, missing, extra, result)
