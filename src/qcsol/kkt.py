"""Inequality-constrained machinery: active sets, constraint
qualifications, Lagrange multipliers and the multiplier-based
characterizations.

The feasible-set functions (is_feasible to strict_index_set) take a
plain Problem too: the case with no constraints, whose ground set is its
feasible set.  Every multiplier question refuses an anchor that
is_feasible refuses (_Anchor.values).  The questions about one anchor
share its kept record (_anchor_record), which keeps the multiplier, the
GMFCQ report and the normal cone once found; stationarity_residual takes
its multiplier from the caller, so its LP runs on every call, except at
the record's own multiplier, whose residual is kept beside it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

# charac imports kkt too: each module looks the other's names up at call time
from . import charac
from .alternatives import solve_lp, strict_feasibility
from .config import DEFAULT_CONFIG, Config
from .core import (
    CharacVariant,
    ConstrainedProblem,
    MembershipVerdict,
    MultiplierVector,
    as_point,
)
from .errors import (
    HypothesisViolatedError,
    InputError,
    NoMultiplierError,
    QcsolError,
)
from .expr import _ast_key, _at, _norm, _not, evaluate, evaluate_many, grad
from .sets import (_Derived, _check_resolution, _frozen, _Grid, _kept, _window, contains, contains_many,
                   normal_cone_generators)


@dataclass(frozen=True)
class ActiveSetReport:
    active: tuple            # indices i with |g_i(x)| <= eps_act (0-based)
    strictly_positive: tuple  # active indices with lambda_i > eps_lp


@dataclass(frozen=True)
class CQReport:
    holds: bool
    direction: Optional[tuple]


def is_feasible(cp: ConstrainedProblem, x, cfg: Config = DEFAULT_CONFIG) -> bool:
    return _feasible_values(cp, as_point(x, cp.dimension), cfg) is not None


def _feasible_values(cp: ConstrainedProblem, xv, cfg: Config) -> Optional[list]:
    """The constraint values at a point of the ground set that meets every
    constraint, else None.  Outside the ground set nothing is evaluated;
    inside, every constraint is, so that the first failing one raises."""
    if not contains(cp.ground_set, xv, cfg.eps_feas):
        return None
    vals = [evaluate(g, xv) for g in cp.constraints]
    return vals if all(v <= cfg.eps_feas for v in vals) else None


class _Anchor(_Derived):
    """What the questions about one anchor xb of p under cfg share.  Each
    field is found on first use and kept apart, so a route reads only what
    it asks for; a failing one is not kept, so it raises again."""

    def __init__(self, p, xb: list, cfg: Config):
        self.p, self.xb, self.cfg = p, _frozen(np.array(xb)), cfg

    @functools.cached_property
    def values(self) -> tuple:
        """The constraint values, of an anchor that is_feasible accepts."""
        vals = _feasible_values(self.p, self.xb, self.cfg)
        if vals is None:
            raise HypothesisViolatedError(f"anchor {_at(self.xb)} is not feasible")
        return tuple(vals)

    @functools.cached_property
    def value(self) -> float:
        """f(xb)."""
        return evaluate(self.p.objective, self.xb)

    @functools.cached_property
    def gradient(self) -> tuple:
        """grad f(xb), read-only, and its norm."""
        g0 = _frozen(grad(self.p.objective, self.xb, self.p.dimension))
        return g0, _norm(g0)

    def active(self, indices: tuple) -> list:
        """(i, grad g_i(xb)), read-only, for each index i."""
        g, n = self.p.constraints, self.p.dimension
        return self.derived(indices, lambda: [(i, _frozen(grad(g[i], self.xb, n))) for i in indices])

    def active_set(self, lam: Optional[MultiplierVector] = None) -> ActiveSetReport:
        """active_set's answer, from the kept constraint values."""
        if lam is not None:
            _fitted(self.p, lam)
        active = tuple(i for i, v in enumerate(self.values) if abs(v) <= self.cfg.eps_act)
        return ActiveSetReport(active, () if lam is None else tuple(
            i for i in active if lam.lambdas[i] > self.cfg.eps_lp))

    @functools.cached_property
    def normals(self) -> tuple:
        """The generators of the ground set's normal cone at xb, read-only."""
        gens = normal_cone_generators(self.p.ground_set, self.xb, self.cfg.eps_act)
        return tuple(_frozen(np.array(a)) for a in gens)

    @functools.cached_property
    def multipliers(self) -> MultiplierVector:
        """solve_multipliers' answer."""
        active, gf = self.active_set().active, self.gradient[0]
        cols = [g for _, g in self.active(active)] + list(self.normals)
        if not cols:
            if _norm(gf) > self.cfg.eps_lp:
                raise NoMultiplierError("stationarity cannot hold: nonzero gradient, no active "
                                        "constraints, unconstrained ground set")
            return MultiplierVector((0.0,) * len(self.p.constraints))
        # Solve sum_i mu_i col_i = -grad f(xbar), mu >= 0.
        A_eq = np.column_stack(cols)
        res = solve_lp(np.zeros(len(cols)), A_eq=A_eq, b_eq=-gf, cfg=self.cfg)
        if res.status != "optimal":
            raise NoMultiplierError(f"no multiplier exists at {_at(self.xb)} within tolerance")
        lambdas = [0.0] * len(self.p.constraints)
        for idx, i in enumerate(active):
            lambdas[i] = float(res.x[idx])
        rank = int(np.linalg.matrix_rank(A_eq))
        return MultiplierVector(tuple(lambdas), rank_deficient=rank < len(cols))

    def residual_at(self, lambdas) -> float:
        """stationarity_residual's answer at the multipliers lambdas."""
        resid = self.gradient[0].copy()
        for i, g in self.active(tuple(i for i in range(len(self.p.constraints)) if lambdas[i])):
            resid += lambdas[i] * g
        N = np.reshape(self.normals, (len(self.normals), self.p.dimension)).T
        # variables (mu, t): maximize -t subject to +-(resid + N mu) <= t
        t = -np.ones((self.p.dimension, 1))
        A_ub, b_ub = np.block([[N, t], [-N, t]]), np.concatenate([-resid, resid])
        mu = solve_lp(np.append(np.zeros(len(self.normals)), -1.0), A_ub, b_ub, cfg=self.cfg).x[:-1]
        return float(min(np.max(np.abs(resid + N @ mu)), np.max(np.abs(resid))))

    @functools.cached_property
    def residual(self) -> float:
        """The residual at the kept multipliers: the one the CLI asks for."""
        return self.residual_at(self.multipliers.lambdas)

    @functools.cached_property
    def gmfcq(self) -> CQReport:
        """check_gmfcq's answer."""
        active = self.active_set().active
        if not active:
            return CQReport(True, tuple(0.0 for _ in range(self.p.dimension)))
        strict_rows = [g for _, g in self.active(active)]
        # tangent directions y of the ground set: n . y <= 0 for each normal n
        res = strict_feasibility(self.normals, [0.0] * len(self.normals),
                                 strict_rows, [0.0] * len(strict_rows), self.cfg)
        if res.point is None:
            return CQReport(False, None)
        return CQReport(True, tuple(float(v) for v in res.point))


def _fitted(cp, lam: MultiplierVector) -> MultiplierVector:
    """lam, refused unless it has one entry per constraint of cp."""
    if len(lam.lambdas) != len(cp.constraints):
        raise InputError(f"multipliers {lam.lambdas} do not fit {len(cp.constraints)} constraints")
    return lam


def _anchor_record(p, xbar, cfg: Config) -> _Anchor:
    """The record of the anchor xbar of p under cfg (_anchor_at)."""
    return _anchor_at(p, as_point(xbar, p.dimension), cfg)


def _anchor_at(p, xb: list, cfg: Config) -> _Anchor:
    """The record of the anchor xb of p under cfg, as as_point reads it,
    kept in sets' store; xb is keyed by its bytes, so 0.0 and -0.0 differ."""
    return _kept(("anchor", _ast_key(p), np.array(xb).tobytes(), cfg), lambda: _Anchor(p, xb, cfg))


def feasible_grid(
    cp: ConstrainedProblem, resolution: int, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Grid nodes of the window that is_feasible accepts, as the rows of
    an (N, n) array in grid order: a writable copy of the kept grid's
    rows (_grid)."""
    return _grid(cp, resolution, cfg).X.copy()


def _grid(p, resolution: int, cfg: Config) -> _Grid:
    """The feasible grid of p: the rows of its window's record (sets._window)
    that is_feasible accepts, with their constraint values C, kept beside
    that record per p (keyed by repr) and eps_feas; f is evaluated on no
    other row.  Each constraint is evaluated once on the nodes in the
    ground set; when one fails, the nodes are tested one by one, so that
    the error is the one is_feasible raises at the first failing node."""
    _check_resolution(resolution)

    def build():
        nodes = _window(p.objective, p.domain_window, resolution).X
        X = nodes[contains_many(p.ground_set, nodes, cfg.eps_feas)]
        m = len(p.constraints)
        try:
            V = np.array([evaluate_many(g, X) for g in p.constraints]).reshape(m, len(X))
        except QcsolError:
            V = np.array([_feasible_values(p, x, cfg) or [np.inf] * m for x in X]).T
        keep = np.all(V <= cfg.eps_feas, axis=0)
        return _Grid(p.objective, X[keep], _frozen(V[:, keep]))

    return _kept(("window", _ast_key(p), resolution, "feasible", cfg.eps_feas), build,
                 lambda grid: len(grid.X))


def active_set(
    cp: ConstrainedProblem,
    x,
    lam: Optional[MultiplierVector] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> ActiveSetReport:
    """Indices of active constraints at a feasible anchor x."""
    return _anchor_record(cp, x, cfg).active_set(lam)


def check_gmfcq(
    cp: ConstrainedProblem, xbar, cfg: Config = DEFAULT_CONFIG
) -> CQReport:
    """Generalized MFCQ: a tangent direction strictly decreasing every
    active constraint.  Found once per anchor record."""
    return _anchor_record(cp, xbar, cfg).gmfcq


def solve_multipliers(
    cp: ConstrainedProblem, xbar, cfg: Config = DEFAULT_CONFIG
) -> MultiplierVector:
    """One KKT multiplier vector at xbar, by linear feasibility.

    Inactive multipliers are pinned to zero.  For an unconstrained ground
    set the stationarity equation is solved exactly; otherwise the residual
    is required to lie in the cone of the ground set's normal-cone
    generators at xbar (sets.normal_cone_generators).
    """
    return _anchor_record(cp, xbar, cfg).multipliers


def stationarity_residual(
    cp: ConstrainedProblem, xbar, lam: MultiplierVector, cfg: Config = DEFAULT_CONFIG
) -> float:
    """Max-norm distance of resid = grad f + sum lambda_i grad g_i at xbar to
    minus the normal cone N: max|resid + N mu| at the minimizer of the LP
    min t over mu >= 0 with |resid + N mu| <= t, or max|resid| (mu = 0)
    where that is smaller (docs/theorems.md)."""
    _fitted(cp, lam)
    anchor = _anchor_record(cp, xbar, cfg)
    anchor.values  # refuses an anchor that is not feasible
    kept = getattr(vars(anchor).get("multipliers"), "lambdas", None)  # solved already
    return anchor.residual if kept == tuple(lam.lambdas) else anchor.residual_at(lam.lambdas)


def strict_index_set(
    cp: ConstrainedProblem, xbar, lam: MultiplierVector, cfg: Config = DEFAULT_CONFIG
) -> tuple:
    """Active indices with strictly positive multipliers."""
    return active_set(cp, xbar, lam, cfg).strictly_positive


def member_X1(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    x,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """x in X1(lambda): strict-multiplier constraints hold with equality,
    the rest with inequality, and x is in the ground set."""
    xv = as_point(x, cp.dimension)
    # a point outside the ground set is no member, whatever the anchor
    if not contains(cp.ground_set, xv, cfg.eps_feas):
        return False
    tilde = strict_index_set(cp, xbar, lam, cfg)
    return bool(_masks(True, [evaluate(g, xv) for g in cp.constraints], tilde, cfg)["in_X1"])


def _masks(in_S, values, tilde: tuple, cfg: Config) -> dict:
    """The masks of the set conditions, from the mask in_S of x in the
    ground set and the constraint values at x, m floats at one point or
    (m, N) at the N rows of a grid: in_feasible_set (x in S),
    constraints_feasible (x in S and every g_i(x) <= 0) and in_X1, whose
    strict-multiplier indices are tilde (docs/theorems.md gives the
    formulas)."""
    feasible = in_X1 = in_S
    for i, v in enumerate(values):
        feasible = feasible & (v <= cfg.eps_feas)
        in_X1 = in_X1 & _not(abs(v) > cfg.eps_act if i in tilde else v > cfg.eps_feas)
    return {"in_feasible_set": in_S, "constraints_feasible": feasible, "in_X1": in_X1}


def membership_constrained(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    x,
    variant: CharacVariant,
    cfg: Config = DEFAULT_CONFIG,
) -> MembershipVerdict:
    """Membership for the primed and double-primed variants."""
    return charac._decide(cp, xbar, lam, x, variant, cfg)


def enumerate_constrained(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    variant: CharacVariant,
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> List[tuple]:
    """Grid enumeration of a primed/double-primed characterization."""
    return charac._enumerate(cp, xbar, lam, variant, resolution, cfg)


def lagrangian(cp: ConstrainedProblem, lam: MultiplierVector, x) -> float:
    xv = as_point(x, cp.dimension)
    val = evaluate(cp.objective, xv)
    for coeff, g in zip(_fitted(cp, lam).lambdas, cp.constraints):
        if coeff != 0.0:
            val += coeff * evaluate(g, xv)
    return val


def lagrangian_constancy(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    solutions: Sequence,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """The Lagrangian takes one value over the listed solutions."""
    base = lagrangian(cp, lam, xbar)
    return all(
        abs(lagrangian(cp, lam, x) - base) <= cfg.eps_feas for x in solutions
    )
