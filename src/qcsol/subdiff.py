"""Subdifferential comparison routes.

Greenberg-Pierskalla membership is decided by grid falsification; the
Martinez-Legaz subdifferential is implemented in one dimension only,
where the infimum over a halfline is computable.  Both routes are used to
cross-check the gradient-based characterizations on the same instances.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import Problem, as_point
from .errors import DimensionError, EvalError
from .expr import ExprAst, evaluate, evaluate_many, grad
from .sets import Box, grid_nodes


@dataclass(frozen=True)
class MLPair:
    """One element (v, t) of the 1-D Martinez-Legaz subdifferential."""

    v: float
    t: float


def _grid_values(f: ExprAst, window: Box, resolution: int):
    pts = grid_nodes(window, resolution)
    return pts, evaluate_many(f, np.array(pts))


def gp_member(
    f: ExprAst,
    x0,
    v,
    window: Box,
    resolution: int = 21,
    cfg: Config = DEFAULT_CONFIG,
    _grid=None,
) -> bool:
    """Sampled test of v in the Greenberg-Pierskalla subdifferential at x0.

    False iff some grid point x has v.(x - x0) >= 0 and f(x) < f(x0),
    within tolerances.  A precomputed (points, values) pair can be passed
    to amortize the grid evaluation over many calls.
    """
    if resolution < 3:
        raise ValueError("resolution must be >= 3")
    x0v = np.asarray(x0, dtype=float)
    vv = np.asarray(v, dtype=float)
    f0 = evaluate(f, x0v)
    pts, vals = _grid if _grid is not None else _grid_values(f, window, resolution)
    for x, fx in zip(pts, vals):
        if float(vv @ (x - x0v)) >= -cfg.eps_feas and fx < f0 - cfg.eps_feas:
            return False
    return True


def default_gp_candidates(
    f: ExprAst, xbar, x, dimension: int, cfg: Config = DEFAULT_CONFIG
) -> List[np.ndarray]:
    """Structural candidate directions: coordinate rays, positive-orthant
    samples, and the gradient directions at the two points when nonzero."""
    cands: List[np.ndarray] = []
    for i in range(dimension):
        unit = np.zeros(dimension)
        unit[i] = 1.0
        cands.append(unit)
    if dimension >= 2:
        for combo in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 3.0), (3.0, 1.0)):
            vec = np.ones(dimension)
            vec[0], vec[1] = combo
            cands.append(vec)
    for point in (xbar, x):
        g = grad(f, np.asarray(point, dtype=float), dimension)
        nrm = float(np.linalg.norm(g))
        if nrm > cfg.eps_grad:
            cands.append(g / nrm)
    return cands


def gp_solution_check(
    p: Problem,
    xbar,
    x,
    candidate_vs: Optional[Sequence] = None,
    window: Optional[Box] = None,
    resolution: int = 21,
    cfg: Config = DEFAULT_CONFIG,
    _grid=None,
) -> bool:
    """Existence of a shared GP subgradient orthogonal to x - xbar.

    True certifies membership through a finite witness; False means no
    witness was found in the candidate family.
    """
    window = window or p.domain_window
    xb = as_point(xbar, p.dimension)
    xv = as_point(x, p.dimension)
    if candidate_vs is None:
        candidate_vs = default_gp_candidates(p.objective, xb, xv, p.dimension, cfg)
    grid = _grid if _grid is not None else _grid_values(p.objective, window, resolution)
    for v in candidate_vs:
        vv = np.asarray(v, dtype=float)
        if abs(float(vv @ (xv - xb))) > cfg.eps_feas:
            continue
        if gp_member(p.objective, xb, vv, window, resolution, cfg, _grid=grid) and (
            gp_member(p.objective, xv, vv, window, resolution, cfg, _grid=grid)
        ):
            return True
    return False


@dataclass(frozen=True)
class _WindowValues:
    """f on the 1-D window grid, and at the edge-trend points and the
    tested points, evaluated once for every pair."""

    ys: np.ndarray
    values: np.ndarray  # f at ys
    at: dict            # point -> f(point)


def _trend_points(window: Box, resolution: int) -> dict:
    """edge -> (outer, inner): the window edge and its grid neighbour."""
    lo, hi = window.lo[0], window.hi[0]
    step = (hi - lo) / (resolution - 1)
    return {"lo": (lo, lo + step), "hi": (hi, hi - step)}


def _window_values(
    f: ExprAst, window: Box, resolution: int, points: Sequence[float]
) -> Optional[_WindowValues]:
    """Every value the ML route can read for these points, in one batch.

    None when any of them fails to evaluate: the per-pair path then
    evaluates, and raises at, exactly the points it always did.
    """
    ys = np.linspace(window.lo[0], window.hi[0], resolution)
    trend = _trend_points(window, resolution)
    scalars = [y for edge in trend.values() for y in edge] + list(points)
    try:
        vals = evaluate_many(f, np.concatenate([ys, scalars])[:, None])
    except EvalError:
        return None
    return _WindowValues(ys, vals[: len(ys)], dict(zip(scalars, vals[len(ys):])))


def _value(f: ExprAst, y: float, grid: Optional[_WindowValues]) -> float:
    return evaluate(f, [y]) if grid is None else grid.at[y]


def _halfline_inf(
    f: ExprAst,
    pair: MLPair,
    window: Box,
    resolution: int,
    cfg: Config,
    _grid: Optional[_WindowValues] = None,
) -> float:
    """Infimum of f over {y : v y >= t} clipped to the window grid.

    When the true region extends past a window edge, a monotone trend at
    that edge approximates the unbounded tail: if f still decreases
    outward at the edge the infimum is flagged as -inf.  This is a
    documented heuristic, not a proof.
    """
    lo, hi = window.lo[0], window.hi[0]
    ys = np.linspace(lo, hi, resolution) if _grid is None else _grid.ys
    v, t = pair.v, pair.t
    if v > 0.0:
        cut = t / v
        mask = ys >= cut - cfg.eps_feas
        tail_edges = ["hi"] + (["lo"] if cut < lo else [])
    elif v < 0.0:
        cut = t / v
        mask = ys <= cut + cfg.eps_feas
        tail_edges = ["lo"] + (["hi"] if cut > hi else [])
    else:
        if t > 0.0:
            return float("inf")  # empty constraint region
        mask = np.ones_like(ys, dtype=bool)
        tail_edges = ["lo", "hi"]
    if not mask.any():
        # region lies entirely outside the window; fall back to the
        # nearest edge trend
        tail_edges = ["lo" if (v > 0 and t / v < lo) else "hi"]
        mask = np.zeros_like(ys, dtype=bool)

    for edge in tail_edges:
        outer, inner = _trend_points(window, resolution)[edge]
        if _value(f, outer, _grid) < _value(f, inner, _grid) - cfg.eps_feas:
            return float("-inf")

    if not mask.any():
        return float("inf")
    if _grid is not None:
        return float(_grid.values[mask].min())
    return float(min(evaluate(f, [y]) for y in ys[mask]))


def ml_member_1d(
    f: ExprAst,
    x: float,
    pair: MLPair,
    window: Box,
    resolution: int = 201,
    cfg: Config = DEFAULT_CONFIG,
    _grid: Optional[_WindowValues] = None,
) -> bool:
    """(v, t) in the Martinez-Legaz subdifferential of a 1-D function at x.

    A precomputed _WindowValues holding f(x) can be passed to amortize the
    evaluations over many pairs.
    """
    if len(window.lo) != 1:
        raise DimensionError("Martinez-Legaz route is implemented for n=1 only")
    if pair.v * x < pair.t - cfg.eps_feas:
        return False
    fx = _value(f, x, _grid)
    inf_val = _halfline_inf(f, pair, window, resolution, cfg, _grid)
    return inf_val >= fx - cfg.eps_feas


def default_ml_pairs(
    window: Box, vs=(0.5, 1.0, 2.0), t_count: int = 21
) -> List[MLPair]:
    """Candidate (v, t) pairs: a few positive slopes with thresholds
    spanning v * window (zero always included)."""
    lo, hi = window.lo[0], window.hi[0]
    pairs = []
    for v in vs:
        ts = set(np.linspace(v * lo, v * hi, t_count))
        ts.add(0.0)
        for t in sorted(ts):
            pairs.append(MLPair(float(v), float(t)))
    return pairs


@functools.lru_cache(maxsize=32)
def _ml_pairs(lo: float, hi: float) -> Tuple[MLPair, ...]:
    """default_ml_pairs of the 1-D window [lo, hi], built once per window."""
    return tuple(default_ml_pairs(Box((lo,), (hi,))))


def ml_solution_check_1d(
    p: Problem,
    xbar: float,
    x: float,
    candidate_pairs: Optional[Sequence[MLPair]] = None,
    window: Optional[Box] = None,
    resolution: int = 201,
    cfg: Config = DEFAULT_CONFIG,
    form: str = "M2",
) -> bool:
    """Solution test through the 1-D Martinez-Legaz subdifferential.

    M2 (default): some candidate pair lies in the subdifferential at x and
    satisfies v * xbar >= t.  M1: some candidate lies in the
    subdifferential at both x and xbar.
    """
    if p.dimension != 1:
        raise DimensionError("Martinez-Legaz route is implemented for n=1 only")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    window = window or p.domain_window
    if candidate_pairs is None:
        candidate_pairs = _ml_pairs(window.lo[0], window.hi[0])
    f = p.objective
    grid = _window_values(f, window, resolution, [x, xbar] if form == "M1" else [x])
    for pair in candidate_pairs:
        if not ml_member_1d(f, x, pair, window, resolution, cfg, _grid=grid):
            continue
        if form == "M2":
            if pair.v * xbar >= pair.t - cfg.eps_feas:
                return True
        elif form == "M1":
            if ml_member_1d(f, xbar, pair, window, resolution, cfg, _grid=grid):
                return True
        else:
            raise ValueError("form must be 'M1' or 'M2'")
    return False
