"""Gordan's theorem of the alternative and the collinearity test.

Gordan's alternative rests on a self-contained two-phase simplex kernel
with Bland's anti-cycling rule.  Its systems are tiny (a handful of rows
and columns), so the tableau is a list of rows of Python floats: per-entry
numpy indexing would cost more than the arithmetic.  The public functions
read their vectors and matrices once through expr's reader (_as_point,
_as_rows) and hand the lists it gives to private ones, which call each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import InputError, KernelError, ZeroVectorError
from .expr import _as_point, _as_rows, _dot, _lost, _norm, _ratio, _rescaled, _sum

_MAX_ITER = 10_000


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: Optional[np.ndarray]
    objective: float


def _listed(A, name: str, depth: int = 2) -> list:
    """A at depth 2 as rows (expr._as_rows), at depth 1 as a vector (expr._as_point),
    None or an empty list or tuple as empty: lists of floats, which may be infinite or NaN."""
    if A is None or type(A) in (list, tuple) and not A:
        return []
    if depth == 1:
        return _as_point(A, None, name, finite=False)
    return _as_rows(A, None, name, finite=False).tolist()


def _pivot(T, basis, row, col):
    """Make col basic in row: scale the row, then clear col from every
    other row that has a nonzero entry in it."""
    p = T[row][col]
    pr = T[row] = [v / p for v in T[row]]
    for i, r in enumerate(T):
        f = r[col]
        # a row with a zero entry is left alone: subtracting 0 * T[row]
        # would turn its -0.0 entries into 0.0
        if i != row and f != 0.0:
            T[i] = [a - f * b for a, b in zip(r, pr)]
    basis[row] = col


def _run_simplex(T, basis, cost, entering_below, tol):
    """Minimize cost over the tableau in place, entering only columns
    j < entering_below; Bland's rule throughout."""
    for _ in range(_MAX_ITER):
        # reduced costs r_j = c_j - c_B . B^-1 A_j (tableau already reduced),
        # left to right up to the first negative one; a basic row of zero
        # cost could only change the sign of a zero sum
        priced = [(cost[b], r) for b, r in zip(basis, T) if cost[b] != 0.0]
        entering = -1
        for j in range(entering_below):
            s = 0.0
            for cb, r in priced:
                s += cb * r[j]
            if cost[j] - s < -tol:
                entering = j
                break
        if entering < 0:
            return
        ratio = math.inf
        leaving = -1
        for i, r in enumerate(T):
            a = r[entering]
            if a > tol:
                q = r[-1] / a
                if q < ratio - tol or (
                    abs(q - ratio) <= tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    ratio = q
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

    cfg.eps_lp is the pivot and phase-1 feasibility tolerance; every entry must be finite.
    """
    cost, rows_ub = _as_point(c, None, "c", finite=False), _listed(A_ub, "A_ub")
    rows, rhs = rows_ub + _listed(A_eq, "A_eq"), _listed(b_ub, "b_ub", 1) + _listed(b_eq, "b_eq", 1)
    return _solve_lp(cost, rows, rhs, len(rows_ub), cfg)


def _solve_lp(cost: list, rows: List[list], rhs: list, m_ub: int, cfg: Config) -> LPResult:
    """solve_lp on its data read into lists of floats: the first m_ub rows are the <= ones."""
    tol, n, m = cfg.eps_lp, len(cost), len(rows)
    if len(rhs) != m or any(len(a) != n for a in rows):
        raise InputError(f"constraints need rows of {n} entries, one right-hand side each")
    if not all(map(math.isfinite, [*cost, *rhs, *(v for a in rows for v in a)])):
        raise InputError("LP data must be finite: objective, constraint rows and right-hand sides")

    # Columns: x, one slack per <= row, then one artificial per row that
    # starts on one.  Each row is flipped to b_i >= 0; a slack that survived
    # the flip with coefficient +1 is the row's initial basic variable, every
    # other row starts on its artificial.
    art_start = n + m_ub
    art = [i for i, bi in enumerate(rhs) if i >= m_ub or bi < 0]
    width = art_start + len(art)
    basis = [n + i for i in range(m)]
    T: List[list] = []
    for i, (a, bi) in enumerate(zip(rows, rhs)):
        row = [*a, *([0.0] * (width - n)), bi]
        if i < m_ub:
            row[n + i] = 1.0
        T.append([-v for v in row] if bi < 0 else row)
    for k, i in enumerate(art, art_start):
        T[i][k] = 1.0
        basis[i] = k

    # Phase 1: minimize the sum of artificials.
    if art_start < width:
        cost1 = [0.0] * art_start + [1.0] * (width - art_start)
        try:
            _run_simplex(T, basis, cost1, width, tol)
        except _Unbounded:  # phase-1 objective is bounded below by zero
            raise KernelError("phase-1 reported unbounded")
        if _sum(r[-1] for b, r in zip(basis, T) if b >= art_start) > tol:
            return LPResult("infeasible", None, math.nan)
        # Drive leftover zero-level artificials out of the basis.
        for i in range(m):
            if basis[i] >= art_start:
                for j in range(art_start):
                    if abs(T[i][j]) > tol:
                        _pivot(T, basis, i, j)
                        break
        # phase 2 never enters an artificial, so nothing reads their columns
        T = [r[:art_start] + r[-1:] for r in T]

    # Phase 2: maximize c.x == minimize (-c).x.
    cost2 = [-v for v in cost] + [0.0] * (width - n)
    try:
        _run_simplex(T, basis, cost2, art_start, tol)
    except _Unbounded:
        return LPResult("unbounded", None, math.inf)
    x = np.zeros(width)
    x[basis] = [r[-1] for r in T]
    return LPResult("optimal", x[:n], float(np.array(cost) @ x[:n]))


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
    strict, b_strict = _listed(A_strict, "A_strict"), _listed(b_strict, "b_strict", 1)
    weak = _listed(A_le, "A_le")
    return _strict(weak, _listed(b_le, "b_le", 1) if weak else [], strict, b_strict, cfg)


def _strict(weak: list, b_weak: list, strict: list, b_strict: list, cfg: Config) -> FeasibilityResult:
    """strict_feasibility on its rows and right-hand sides read into lists of floats."""
    if not strict or len(b_strict) != len(strict):
        raise InputError("strict feasibility needs at least one strict row, with one right-hand side each")
    n, A, b = len(strict[0]), weak + strict, b_weak + b_strict

    # Variables: z = y + 1 in [0,2]^n, plus eps >= 0; maximize eps.  A row
    # a . y <= b becomes a . z <= b + a . 1.  eps is bounded by the strict
    # rows plus the box, but capped anyway so all-zero strict rows stay
    # bounded.
    rows = [a + [0.0] for a in weak] + [a + [1.0] for a in strict]
    # z_i <= 2, then the cap on eps
    rows += [[0.0] * i + [1.0] + [0.0] * (n - i) for i in range(n + 1)]
    bound = 1.0 + max(abs(bi) + _sum(abs(v) for v in a) for a, bi in zip(strict, b_strict))
    rhs = [bi + _sum(a) for a, bi in zip(A, b)] + [2.0] * n + [bound]
    res = _solve_lp([0.0] * n + [1.0], rows, rhs, len(rows), cfg)
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
    rows = _listed(A, "A")
    res = _primal(rows, cfg)
    if res.point is not None:
        return GordanResult("primal", res.point, res.margin)
    dual = _dual(rows, cfg)
    if dual is None:
        raise KernelError("neither Gordan branch is certifiable at tolerance")
    return GordanResult("dual", dual, res.margin)


def _primal(rows: List[list], cfg: Config) -> FeasibilityResult:
    """Strict feasibility of A x > 0, posed as -A x < 0."""
    negated = [[-v for v in a] for a in rows]
    return _strict([], [], negated, [0.0] * len(rows), cfg)


def dual_certificate(A, cfg: Config = DEFAULT_CONFIG) -> Optional[np.ndarray]:
    """y >= 0 with A^T y = 0 and sum(y) = 1, or None if infeasible."""
    return _dual(_listed(A, "A"), cfg)


def _dual(rows: List[list], cfg: Config) -> Optional[np.ndarray]:
    """dual_certificate of the rows of A, read into lists of floats."""
    m = len(rows)
    A_eq = [list(col) for col in zip(*rows)] + [[1.0] * m]
    res = _solve_lp([0.0] * m, A_eq, [0.0] * (len(A_eq) - 1) + [1.0], 0, cfg)
    return res.x if res.status == "optimal" else None


def primal_margin(A, cfg: Config = DEFAULT_CONFIG) -> float:
    """Best strict margin of A x > 0 over the unit box (<= eps_lp: infeasible)."""
    return _primal(_listed(A, "A"), cfg).margin


# ---------------------------------------------------------------------------
# Collinearity with a positive factor
# ---------------------------------------------------------------------------

def _collinearity(a, b):
    """The least-squares factor p = (a.b)/(a.a) of b on a and the distance
    ||b - p a||; the entries of b may be floats or numpy columns.  Where
    a.a overflows or underflows to 0, or a.b overflows, p is taken of a
    and b scaled (expr._rescaled), times their scales' ratio."""
    ab, aa = _dot(a, b), _dot(a, a)
    p = _rescaled(_ratio(ab, aa), _lost(aa, ab),
                  lambda a, b, ma, mb: _ratio(_dot(a, b), _dot(a, a)) * (mb / ma), a, b)
    return p, _norm([bi - p * ai for ai, bi in zip(a, b)])


def collinearity_factor(
    a: Sequence[float], b: Sequence[float], cfg: Config = DEFAULT_CONFIG
) -> Optional[float]:
    """p > 0 with b = p a, when it exists.

    The least-squares factor (a.b)/(a.a) is the only candidate; it is
    verified against ||b - p a|| <= eps_dir * ||b||.
    """
    av = _as_point(a, None, "a")
    bv = _as_point(b, len(av), "b")
    if _norm(av) <= cfg.eps_grad or _norm(bv) <= cfg.eps_grad:
        raise ZeroVectorError("collinearity test needs nonzero vectors")
    p, gap = _collinearity(av, bv)  # floats: numpy scalars warn where a product overflows
    if p <= 0.0 or gap > cfg.eps_dir * _norm(bv):
        return None
    return float(p)
