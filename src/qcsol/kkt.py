"""Inequality-constrained machinery: active sets, constraint
qualifications, Lagrange multipliers and the multiplier-based
characterizations."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .alternatives import solve_lp, strict_feasibility
from .charac import _CONDITIONS, _Rows, _enumerate, check_anchor_hypothesis
from .config import DEFAULT_CONFIG, Config
from .core import (
    CharacVariant,
    ConstrainedProblem,
    MembershipVerdict,
    MultiplierVector,
    Problem,
    as_point,
)
from .errors import (
    HypothesisViolatedError,
    InfeasibleError,
    NoMultiplierError,
    NotOpenGroundSetError,
    QcsolError,
)
from .expr import _at, evaluate, evaluate_many, grad, grad_many
from .sets import contains, contains_many, grid_nodes, normal_cone_generators


@dataclass(frozen=True)
class ActiveSetReport:
    active: tuple            # indices i with |g_i(x)| <= eps_act (0-based)
    strictly_positive: tuple  # active indices with lambda_i > eps_lp


@dataclass(frozen=True)
class CQReport:
    holds: bool
    direction: Optional[tuple]


def constraint_values(cp: ConstrainedProblem, x) -> np.ndarray:
    xv = as_point(x, cp.dimension)
    return np.array([evaluate(g, xv) for g in cp.constraints])


def is_feasible(cp: ConstrainedProblem, x, cfg: Config = DEFAULT_CONFIG) -> bool:
    xv = as_point(x, cp.dimension)
    if not contains(cp.ground_set, xv, cfg.eps_feas):
        return False
    return bool(np.all(constraint_values(cp, xv) <= cfg.eps_feas))


def feasible_grid(
    cp: ConstrainedProblem, resolution: int, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Grid nodes of the window that is_feasible accepts, as the rows of
    an (N, n) array in grid order.

    The ground set is tested on all nodes at once and each constraint is
    evaluated once on the nodes in it; when the nodes are not all finite
    or an evaluation fails, the nodes are tested one by one, so that the
    error is the one is_feasible raises at the first failing node.
    """
    X = grid_nodes(cp.domain_window, resolution)
    if np.all(np.isfinite(X)):
        try:
            keep = contains_many(cp.ground_set, X, cfg.eps_feas)
            inside = np.flatnonzero(keep)
            for g in cp.constraints:
                keep[inside] &= evaluate_many(g, X[inside]) <= cfg.eps_feas
        except QcsolError:
            pass
        else:
            return X[keep]
    return X[[is_feasible(cp, x, cfg) for x in X]]


def active_set(
    cp: ConstrainedProblem,
    x,
    lam: Optional[MultiplierVector] = None,
    cfg: Config = DEFAULT_CONFIG,
) -> ActiveSetReport:
    """Indices of active constraints at a feasible point."""
    xv = as_point(x, cp.dimension)
    if not is_feasible(cp, xv, cfg):
        raise InfeasibleError(f"point {_at(xv)} is infeasible")
    vals = constraint_values(cp, xv)
    active = tuple(i for i, v in enumerate(vals) if abs(v) <= cfg.eps_act)
    positive = ()
    if lam is not None:
        positive = tuple(i for i in active if lam.lambdas[i] > cfg.eps_lp)
    return ActiveSetReport(active, positive)


def check_gmfcq(
    cp: ConstrainedProblem, xbar, cfg: Config = DEFAULT_CONFIG
) -> CQReport:
    """Generalized MFCQ: a tangent direction strictly decreasing every
    active constraint."""
    xb = as_point(xbar, cp.dimension)
    report = active_set(cp, xb, cfg=cfg)
    if not report.active:
        return CQReport(True, tuple(0.0 for _ in range(cp.dimension)))
    strict_rows = [grad(cp.constraints[i], xb, cp.dimension) for i in report.active]
    # tangent directions y of the ground set: n . y <= 0 for each normal n
    normals = normal_cone_generators(cp.ground_set, xb, cfg.eps_act)
    res = strict_feasibility(
        normals, [0.0] * len(normals), strict_rows, [0.0] * len(strict_rows), cfg
    )
    if res.point is None:
        return CQReport(False, None)
    return CQReport(True, tuple(float(v) for v in res.point))


def solve_multipliers(
    cp: ConstrainedProblem, xbar, cfg: Config = DEFAULT_CONFIG
) -> MultiplierVector:
    """One KKT multiplier vector at xbar, by linear feasibility.

    Inactive multipliers are pinned to zero.  For an unconstrained ground
    set the stationarity equation is solved exactly; for a polyhedral one
    the residual is required to lie in the normal cone at xbar.
    """
    xb = as_point(xbar, cp.dimension)
    report = active_set(cp, xb, cfg=cfg)
    gf = grad(cp.objective, xb, cp.dimension)
    active_grads = [grad(cp.constraints[i], xb, cp.dimension) for i in report.active]
    normals = normal_cone_generators(cp.ground_set, xb, cfg.eps_act)

    cols = active_grads + normals
    k = len(active_grads)
    if not cols:
        if float(np.linalg.norm(gf)) > cfg.eps_lp:
            raise NoMultiplierError(
                "stationarity cannot hold: nonzero gradient, no active "
                "constraints, unconstrained ground set"
            )
        return MultiplierVector(tuple(0.0 for _ in range(cp.m)))

    # Solve sum_i mu_i col_i = -grad f(xbar), mu >= 0.
    A_eq = np.column_stack(cols)
    res = solve_lp(np.zeros(len(cols)), A_eq=A_eq, b_eq=-gf, cfg=cfg)
    if res.status != "optimal":
        raise NoMultiplierError(
            f"no multiplier exists at {_at(xb)} within tolerance"
        )
    lambdas = [0.0] * cp.m
    for idx, i in enumerate(report.active):
        lambdas[i] = float(res.x[idx])
    rank = int(np.linalg.matrix_rank(A_eq))
    return MultiplierVector(tuple(lambdas), rank_deficient=rank < len(cols))


def stationarity_residual(
    cp: ConstrainedProblem, xbar, lam: MultiplierVector, cfg: Config = DEFAULT_CONFIG
) -> float:
    """Norm of grad f + sum lambda_i grad g_i modulo the normal cone at xbar."""
    xb = as_point(xbar, cp.dimension)
    resid = grad(cp.objective, xb, cp.dimension).copy()
    for i, g in enumerate(cp.constraints):
        if lam.lambdas[i] != 0.0:
            resid += lam.lambdas[i] * grad(g, xb, cp.dimension)
    normals = normal_cone_generators(cp.ground_set, xb, cfg.eps_act)
    if not normals:
        return float(np.max(np.abs(resid))) if resid.size else 0.0
    # Distance of -resid to the normal cone, via nonnegative least squares
    # replaced by LP feasibility at tolerance.
    res = solve_lp(
        np.zeros(len(normals)),
        A_eq=np.column_stack(normals),
        b_eq=-resid,
        cfg=cfg,
    )
    if res.status == "optimal":
        recon = np.column_stack(normals) @ res.x
        return float(np.max(np.abs(recon + resid)))
    return float(np.max(np.abs(resid)))


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
    if not contains(cp.ground_set, xv, cfg.eps_feas):
        return False
    tilde = strict_index_set(cp, xbar, lam, cfg)
    return _in_X1(constraint_values(cp, xv), tilde, cfg)


def _in_X1(vals: np.ndarray, tilde: tuple, cfg: Config) -> bool:
    """Whether a point of the ground set with constraint values vals is in
    X1(lambda), whose strict-multiplier indices are tilde."""
    return not any(
        abs(v) > cfg.eps_act if i in tilde else v > cfg.eps_feas
        for i, v in enumerate(vals)
    )


def _as_plain_problem(cp: ConstrainedProblem) -> Problem:
    """The (PI) feasible set as a plain problem for the unconstrained
    predicates; constraint atoms are enforced separately via is_feasible."""
    return Problem(
        objective=cp.objective,
        feasible_set=cp.ground_set,
        dimension=cp.dimension,
        domain_window=cp.domain_window,
    )


def _checked_anchor(
    cp: ConstrainedProblem, xb: np.ndarray, lam: MultiplierVector, variant: CharacVariant,
    cfg: Config,
):
    """Check every anchor hypothesis of a multiplier variant, in order, and
    return the anchor's objective gradient, its strict-multiplier indices
    and (i, grad g_i(xb)) for each of them."""
    if not variant.requires_multiplier:
        raise ValueError(
            f"{variant.value} needs no multiplier; use charac.membership or "
            "charac.enumerate_solution_set"
        )
    g0 = check_anchor_hypothesis(_as_plain_problem(cp), xb, variant, cfg)
    # an anchor that violates a constraint is refused like one outside S
    if not np.all(constraint_values(cp, xb) <= cfg.eps_feas):
        raise HypothesisViolatedError(f"anchor {_at(xb)} is not feasible")
    tilde = strict_index_set(cp, xb, lam, cfg)
    # a row that does not test x in S is stated for an open ground set
    if "in_feasible_set" not in _CONDITIONS[variant] and cp.ground_set.atoms:
        raise NotOpenGroundSetError(
            "double-primed variants need an open (unconstrained) ground set"
        )
    active = [(i, grad(cp.constraints[i], xb, cp.dimension)) for i in tilde]
    return g0, tilde, active


def membership_constrained(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    x,
    variant: CharacVariant,
    cfg: Config = DEFAULT_CONFIG,
) -> MembershipVerdict:
    """Membership for the primed and double-primed variants."""
    xb = as_point(xbar, cp.dimension)
    xv = as_point(x, cp.dimension)
    g0, tilde, active = _checked_anchor(cp, xb, lam, variant, cfg)
    in_S = contains(cp.ground_set, xv, cfg.eps_feas)
    vals = constraint_values(cp, xv)
    sets = {
        "in_X1": in_S and _in_X1(vals, tilde, cfg),
        "in_feasible_set": in_S,
        "constraints_feasible": bool(np.all(vals <= cfg.eps_feas)),
    }
    with np.errstate(all="ignore"):
        g = grad(cp.objective, xv, cp.dimension)
        rows = _Rows(xv, g, xb, g0, sets, active).decide(variant, cfg)
    return MembershipVerdict(tuple(float(c) for c in xv), variant, bool(rows.member), rows.point())


def enumerate_constrained(
    cp: ConstrainedProblem,
    xbar,
    lam: MultiplierVector,
    variant: CharacVariant,
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> List[tuple]:
    """Grid enumeration of a primed/double-primed characterization."""
    X = feasible_grid(cp, resolution, cfg)
    xb = as_point(xbar, cp.dimension)
    if not len(X):
        return []
    g0, tilde, active = _checked_anchor(cp, xb, lam, variant, cfg)

    def members(X):
        # membership_constrained on rows that are all feasible: in the
        # ground set and with every constraint at most eps_feas
        in_x1 = np.ones(len(X), dtype=bool)
        for i in tilde:
            in_x1 &= ~(np.abs(evaluate_many(cp.constraints[i], X)) > cfg.eps_act)
        sets = {"in_X1": in_x1, "in_feasible_set": True, "constraints_feasible": True}
        G = grad_many(cp.objective, X, cp.dimension)
        return _Rows(X, G, xb, g0, sets, active).decide(variant, cfg).member

    return _enumerate(X, members)


def lagrangian(cp: ConstrainedProblem, lam: MultiplierVector, x) -> float:
    xv = as_point(x, cp.dimension)
    val = evaluate(cp.objective, xv)
    for coeff, g in zip(lam.lambdas, cp.constraints):
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
