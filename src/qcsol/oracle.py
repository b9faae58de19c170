"""Brute-force ground truth and the agreement harness.

The oracle evaluates the objective exhaustively on the feasible grid and
returns the eps_opt level set of the minimum; every characterization is
validated against it on the same grid, by comparing the two row masks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Union

from .charac import _check_kind, _members
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, ConstrainedProblem, Problem
from .errors import EmptyGridError, HypothesisViolatedError
from .expr import _at
from .kkt import _anchor_record, _grid
from .sets import _frozen


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
    to cfg.eps_opt, and must be what Config accepts for it."""
    if eps_opt is not None and eps_opt != cfg.eps_opt:
        cfg = replace(cfg, eps_opt=eps_opt)  # refused as Config refuses it
    return _oracle(_grid(p, resolution, cfg), cfg.eps_opt)[0]


def _oracle(grid, eps_opt: float) -> tuple:
    """The oracle's result and row mask on the grid, kept on it per eps_opt."""

    def build():  # the least value and the mask of rows within eps_opt of it
        if not len(grid.X):
            raise EmptyGridError("no feasible grid point in the window")
        # the builtin min keeps the first of equal minima: a zero keeps its sign
        vmin = min(grid.values.tolist())
        rows = _frozen(grid.values <= vmin + eps_opt)
        return OracleResult(vmin, tuple(map(tuple, grid.X[rows].tolist())), len(grid.X)), rows

    return grid.derived(("oracle", eps_opt), build)


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
    one grid; eps_opt defaults to cfg.eps_opt.  Refused unless the anchor's
    value is within eps_opt of the grid's minimum, both ways."""
    _check_kind(p, None, variant)
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    result = brute_force_solutions(p, resolution, eps_opt, cfg)
    anchor = _anchor_record(p, xbar, cfg)
    if anchor.value > result.min_value + eps_opt:
        raise HypothesisViolatedError(f"anchor {_at(anchor.xb)} is not in the oracle solution set")
    if result.min_value > anchor.value + eps_opt:
        raise HypothesisViolatedError(f"the grid's minimum {result.min_value!r} is above f(anchor) "
                                      f"+ eps_opt = {anchor.value!r} + {eps_opt!r}: no node is a solution")
    grid, member = _members(p, xbar, None, variant, resolution, cfg, anchor)
    oracle = _oracle(grid, eps_opt)[1]
    # a window with lo == hi on some axis repeats rows: each point is listed once
    missing, extra = (tuple(sorted(set(map(tuple, grid.X[rows].tolist()))))
                      for rows in (oracle & ~member, member & ~oracle))
    return OracleAgreement(not missing and not extra, missing, extra, result)
