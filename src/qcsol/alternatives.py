"""Gordan's theorem of the alternative and the collinearity test.

Both are backed by a self-contained dense two-phase simplex kernel with
Bland's anti-cycling rule.  Systems here are tiny (a handful of rows and
columns), so the tableau form is more than adequate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import KernelError, ZeroVectorError
from .expr import _dot, _norm

_MAX_ITER = 10_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: float


def _pivot(T, basis, row, col):
    """Make col basic in row: scale the row, then clear col from every
    other row that has a nonzero entry in it."""
    T[row] /= T[row, col]
    for i in range(T.shape[0]):
        # a row with a zero entry is left alone: subtracting 0 * T[row]
        # would turn its -0.0 entries into 0.0
        if i != row and T[i, col] != 0.0:
            T[i] -= T[i, col] * T[row]
    basis[row] = col


def _run_simplex(T, basis, cost, allowed, tol):
    """Minimize cost over the tableau in place; Bland's rule throughout."""
    m = T.shape[0]
    for _ in range(_MAX_ITER):
        cb = cost[basis]
        # reduced costs r_j = c_j - c_B . B^-1 A_j  (tableau already reduced)
        reduced = cost - cb @ T[:, :-1]
        entering = -1
        for j in range(T.shape[1] - 1):
            if allowed[j] and reduced[j] < -tol:
                entering = j
                break
        if entering < 0:
            return
        ratio = math.inf
        leaving = -1
        for i in range(m):
            a = T[i, entering]
            if a > tol:
                r = T[i, -1] / a
                if r < ratio - tol or (
                    abs(r - ratio) <= tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    ratio = r
                    leaving = i
        if leaving < 0:
            raise _Unbounded()
        _pivot(T, basis, leaving, entering)
    raise KernelError("simplex iteration cap exceeded")


class _Unbounded(Exception):
    pass


def solve_lp(
    c: Sequence[float],
    A_ub=None,
    b_ub=None,
    A_eq=None,
    b_eq=None,
    cfg: Config = DEFAULT_CONFIG,
) -> LPResult:
    """Maximize c.x subject to A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    cfg.eps_lp is the pivot and phase-1 feasibility tolerance.
    """
    tol = cfg.eps_lp
    c = np.asarray(c, dtype=float)
    n = c.size
    A_ub = np.empty((0, n)) if A_ub is None else np.atleast_2d(np.asarray(A_ub, float))
    b_ub = np.empty(0) if b_ub is None else np.atleast_1d(np.asarray(b_ub, float))
    A_eq = np.empty((0, n)) if A_eq is None else np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.empty(0) if b_eq is None else np.atleast_1d(np.asarray(b_eq, float))
    m_ub, m = A_ub.shape[0], A_ub.shape[0] + A_eq.shape[0]

    # Columns: x, one slack per <= row, one artificial per row (unused ones stay 0).
    art_start = n + m_ub
    n_total = art_start + m
    T = np.zeros((m, n_total + 1))
    T[:m_ub, :n] = A_ub
    T[m_ub:, :n] = A_eq
    T[:m_ub, n:art_start] = np.eye(m_ub)
    T[:, -1] = np.concatenate([b_ub, b_eq])
    # Each row is flipped to b_i >= 0.  A slack that survived the flip with
    # coefficient +1 is the row's initial basic variable; every other row
    # starts on its artificial.
    basis: List[int] = []
    for i in range(m):
        if T[i, -1] < 0:
            T[i] *= -1.0
        if i < m_ub and T[i, n + i] == 1.0:
            basis.append(n + i)
        else:
            T[i, art_start + i] = 1.0
            basis.append(art_start + i)
    allowed = np.ones(n_total, dtype=bool)

    # Phase 1: minimize the sum of artificials.
    if any(bi >= art_start for bi in basis):
        cost1 = np.zeros(n_total)
        cost1[art_start:] = 1.0
        try:
            _run_simplex(T, basis, cost1, allowed, tol)
        except _Unbounded:  # phase-1 objective is bounded below by zero
            raise KernelError("phase-1 reported unbounded")
        if float(cost1[basis] @ T[:, -1]) > tol:
            return LPResult("infeasible", None, math.nan)
        # Drive leftover zero-level artificials out of the basis.
        for i in range(m):
            if basis[i] >= art_start:
                for j in range(art_start):
                    if abs(T[i, j]) > tol:
                        _pivot(T, basis, i, j)
                        break
    allowed[art_start:] = False

    # Phase 2: maximize c.x == minimize (-c).x.
    cost2 = np.zeros(n_total)
    cost2[:n] = -c
    try:
        _run_simplex(T, basis, cost2, allowed, tol)
    except _Unbounded:
        return LPResult("unbounded", None, math.inf)
    x = np.zeros(n_total)
    x[basis] = T[:, -1]
    return LPResult("optimal", x[:n], float(c @ x[:n]))


# ---------------------------------------------------------------------------
# Strict feasibility (maximized margin over the unit box)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibilityResult:
    point: Optional[np.ndarray]
    margin: float


def strict_feasibility(
    A_le=None,
    b_le=None,
    A_strict=None,
    b_strict=None,
    cfg: Config = DEFAULT_CONFIG,
) -> FeasibilityResult:
    """Find y in [-1,1]^n with A_le y <= b_le and A_strict y < b_strict.

    A_strict needs at least one row (ValueError otherwise); the weak rows
    A_le may be None or empty.  Strictness is realized by maximizing the
    margin eps subject to A_strict y <= b_strict - eps; the result is a
    witness when the optimal margin exceeds eps_lp, otherwise point is None.
    """
    if A_strict is None or len(A_strict) == 0:
        raise ValueError("strict feasibility needs at least one strict row")
    A_strict = np.atleast_2d(np.asarray(A_strict, float))
    n = A_strict.shape[1]
    if A_le is None or len(A_le) == 0:
        A_le, b_le = np.empty((0, n)), ()
    A = np.vstack([A_le, A_strict])
    b = np.concatenate([np.atleast_1d(np.asarray(v, float)) for v in (b_le, b_strict)])
    m_le = len(A) - len(A_strict)

    # Variables: z = y + 1 in [0,2]^n, plus eps >= 0; maximize eps.  A row
    # a . y <= b becomes a . z <= b + a . 1.  eps is bounded by the strict
    # rows plus the box, but capped anyway so all-zero strict rows stay
    # bounded.
    ones = np.ones(n)
    rows = np.zeros((len(A) + n + 1, n + 1))
    rows[: len(A), :n] = A
    rows[m_le : len(A), n] = 1.0
    rows[len(A) :] = np.eye(n + 1)  # z_i <= 2, then the cap on eps
    bound = 1.0 + max(
        abs(float(bi)) + float(np.abs(a).sum()) for a, bi in zip(A[m_le:], b[m_le:])
    )
    rhs = [bi + float(a @ ones) for a, bi in zip(A, b)] + [2.0] * n + [bound]
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = solve_lp(c, rows, rhs, cfg=cfg)
    if res.status != "optimal":
        return FeasibilityResult(None, -math.inf)
    margin = res.objective
    if margin <= cfg.eps_lp:
        return FeasibilityResult(None, margin)
    return FeasibilityResult(res.x[:n] - 1.0, margin)


# ---------------------------------------------------------------------------
# Gordan's alternative
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GordanResult:
    branch: str  # "primal" | "dual"
    witness: np.ndarray
    margin: float


def gordan_alternative(A, cfg: Config = DEFAULT_CONFIG) -> GordanResult:
    """Decide which branch of Gordan's alternative holds for the matrix A.

    Primal: x with A x > 0 (componentwise).  Dual: y >= 0, y != 0 with
    A^T y = 0, normalized to sum to one.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix must be finite")
    m, n = A.shape
    res = strict_feasibility(None, None, -A, np.zeros(m), cfg)
    if res.point is not None:
        return GordanResult("primal", res.point, res.margin)
    dual = dual_certificate(A, cfg)
    if dual is None:
        raise KernelError("neither Gordan branch is certifiable at tolerance")
    return GordanResult("dual", dual, res.margin)


def dual_certificate(A, cfg: Config = DEFAULT_CONFIG) -> Optional[np.ndarray]:
    """y >= 0 with A^T y = 0 and sum(y) = 1, or None if infeasible."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m, n = A.shape
    A_eq = np.vstack([A.T, np.ones((1, m))])
    b_eq = np.concatenate([np.zeros(n), [1.0]])
    res = solve_lp(np.zeros(m), A_eq=A_eq, b_eq=b_eq, cfg=cfg)
    if res.status != "optimal":
        return None
    return res.x


def primal_margin(A, cfg: Config = DEFAULT_CONFIG) -> float:
    """Best strict margin of A x > 0 over the unit box (<= eps_lp: infeasible)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    res = strict_feasibility(None, None, -A, np.zeros(A.shape[0]), cfg)
    return res.margin


# ---------------------------------------------------------------------------
# Collinearity with a positive factor
# ---------------------------------------------------------------------------

def _collinearity(a, b):
    """The least-squares factor p = (a.b)/(a.a) of b on a and the distance
    ||b - p a||; the entries of b may be floats or numpy columns."""
    p = _dot(a, b) / _dot(a, a)
    return p, _norm([bi - p * ai for ai, bi in zip(a, b)])


def collinearity_factor(
    a: Sequence[float], b: Sequence[float], cfg: Config = DEFAULT_CONFIG
) -> Optional[float]:
    """p > 0 with b = p a, when it exists.

    The least-squares factor (a.b)/(a.a) is the only candidate; it is
    verified against ||b - p a|| <= eps_dir * ||b||.
    """
    av = np.asarray(a, dtype=float)
    bv = np.asarray(b, dtype=float)
    if _norm(av) <= cfg.eps_grad or _norm(bv) <= cfg.eps_grad:
        raise ZeroVectorError("collinearity test needs nonzero vectors")
    p, gap = _collinearity(av, bv)
    if p <= 0.0 or gap > cfg.eps_dir * _norm(bv):
        return None
    return float(p)
