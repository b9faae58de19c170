"""Subdifferential comparison routes.

Greenberg-Pierskalla membership is decided by grid falsification; the
Martinez-Legaz subdifferential is implemented in one dimension only,
where the infimum over a halfline is computable.  Both routes are used to
cross-check the gradient-based characterizations on the same instances.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import Problem
from .errors import DimensionError, InputError
from .expr import ExprAst, _as_point, _dot, _floats, _norm, _point, _program, evaluate, evaluate_many, grad
from .kkt import _anchor_record
from .sets import Box, _check_resolution, _frozen, _holds, _window


@dataclass(frozen=True)
class MLPair:
    """One element (v, t) of the 1-D Martinez-Legaz subdifferential."""

    v: float
    t: float


def _grid_values(f: ExprAst, window: Box, resolution: int):
    """The window's record (sets._window) with f found at every node, so
    that the first node where f fails raises: its rows X and values are
    read-only arrays, evaluated once per process."""
    grid = _window(f, window, resolution)
    grid.values
    return grid


def _gp_members(V: np.ndarray, x0: list, f0: float, grid, eps: float) -> np.ndarray:
    """The rows v of V for which no grid point x has v.(x - x0) >= -eps
    and f(x) < f0 - eps: the points of a prefix of the grid's value order."""
    values, cols = grid.derived(("gp", "order"), lambda: _value_order(grid))
    below = values.searchsorted(f0 - eps, side="left")  # values are finite
    if not below:
        return V
    steps = cols[:, :below] - np.array(x0)[:, None]
    return V[~(_dot(V.T[:, :, None], steps[:, None, :]) >= -eps).any(axis=1)]


def _value_order(grid) -> tuple:
    """The grid's values sorted ascending (stable), and its coordinate
    columns (n, N) in that order, read-only."""
    order = np.argsort(grid.values, kind="stable")
    return _frozen(grid.values[order]), _frozen(grid.X[order].T.copy())


def gp_member(
    f: ExprAst,
    x0,
    v,
    window: Box,
    resolution: int = 21,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """Sampled test of v in the Greenberg-Pierskalla subdifferential at x0.

    False iff some grid point x has v.(x - x0) >= 0 and f(x) < f(x0),
    within tolerances.
    """
    _check_resolution(resolution, 3)
    x0v = _as_point(x0, window.dimension)
    f0 = evaluate(f, x0v)
    grid = _grid_values(f, window, resolution)
    v = _floats(v, "direction")  # its own refusal: callers catch a direction of another size as InputError
    if type(v) is not list or len(v) != window.dimension or not all(map(math.isfinite, v)):
        raise InputError(f"a direction must have {window.dimension} finite entries")
    return bool(len(_gp_members(np.array([v]), x0v, f0, grid, cfg.eps_feas)))


def default_gp_candidates(
    f: ExprAst, xbar, x, dimension: int, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Structural candidate directions, as the rows of a (k, dimension)
    array: coordinate rays, positive-orthant samples, and the gradient
    directions at the two points when nonzero."""
    gradients = [grad(f, point, dimension) for point in (xbar, x)]
    return _gp_candidates(gradients, dimension, cfg)


def _gp_candidates(gradients, dimension: int, cfg: Config) -> np.ndarray:
    """default_gp_candidates from the gradients at the two points."""
    units = [[c / nrm for c in g] for g, nrm in zip(gradients, map(_norm, gradients)) if nrm > cfg.eps_grad]
    samples = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 3.0), (3.0, 1.0)) if dimension >= 2 else ()
    return np.array([*np.eye(dimension), *([*s, *[1.0] * (dimension - 2)] for s in samples), *units])


def gp_solution_check(
    p: Problem,
    xbar,
    x,
    resolution: int = 21,
    cfg: Config = DEFAULT_CONFIG,
    _grid=None,
) -> bool:
    """Existence of a shared GP subgradient orthogonal to x - xbar.

    True certifies membership through a witness in default_gp_candidates
    on p.domain_window's grid; False means none was found, or x is not feasible.
    """
    _check_resolution(resolution, 3)
    xb, xv = _as_point(xbar, p.dimension), _as_point(x, p.dimension)
    if not _holds(p.feasible_set, xv, cfg.eps_feas):  # no solution, and nothing evaluated
        return False
    eps = cfg.eps_feas
    anchor = _anchor_record(p, xb, cfg)  # the anchor's gradient is read from its record
    fx, gx = _point(_program(p.objective, p.dimension), xv)  # f(x) and grad f(x), as grad finds them
    g0, gx = anchor.gradient[0], [float(g) for g in gx]
    grid = _grid if _grid is not None else _grid_values(p.objective, p.domain_window, resolution)
    step = [c - cb for c, cb in zip(xv, xb)]
    # the rays and xbar's unit gradient that are kept, tested at xbar: float rows
    kept = grid.derived(("gp", anchor), lambda: tuple(map(tuple, _gp_members(
        _gp_candidates([g0], p.dimension, cfg), xb, anchor.value, grid, eps).tolist())), len)
    V, nrm = [v for v in kept if not abs(_dot(v, step)) > eps], _norm(gx)  # |v.step| <= eps, or NaN
    unit = [g / nrm for g in gx] if nrm > cfg.eps_grad else None  # x's unit row
    if unit and not abs(_dot(unit, step)) > eps:
        V += _gp_members(np.array([unit]), xb, anchor.value, grid, eps).tolist()
    return bool(V) and bool(len(_gp_members(np.array(V), xv, fx, grid, eps)))


def _ml_window(f: ExprAst, window: Box, resolution: int) -> tuple:
    """The 1-D window's record (_grid_values) and what _halfline_infima reads
    of it (and so _ml_slopes), derived once: its nodes ys, a lookup table of
    the running minima of f from either end (min over ys[i:] at i, -inf, -inf,
    min over ys[:k] at len(ys) + 1 + k) and f at the edge-trend points lo,
    lo + step, hi and hi - step.  ys and the table are read-only; where f
    fails, raises what evaluate raises at the first node, then edge point."""
    if window.dimension != 1:
        raise DimensionError("Martinez-Legaz route is implemented for n=1 only")
    grid = _grid_values(f, window, resolution)

    def build():
        lo, hi = window.lo[0], window.hi[0]
        step = (hi - lo) / (resolution - 1)
        edges = evaluate_many(f, np.array([lo, lo + step, hi, hi - step])[:, None])
        values = grid.values
        return grid.X[:, 0], _frozen(np.concatenate([
            np.minimum.accumulate(values[::-1])[::-1], (-np.inf, -np.inf), np.minimum.accumulate(values)
        ])), tuple(edges.tolist())

    return grid, grid.derived(("ml", "table"), build)


def _halfline_infima(w: tuple, V: np.ndarray, T: np.ndarray, eps: float) -> np.ndarray:
    """Infimum of f over {y : V[i] y >= T[i]} clipped to the window grid,
    for every pair i.

    When the true region extends past a window edge, a monotone trend at
    that edge approximates the unbounded tail: if f still decreases
    outward at the edge the infimum is flagged as -inf.  This is a
    documented heuristic, not a proof.  A nonempty region with no grid
    node bounds nothing and reads -inf.
    """
    ys, minima, (lo_out, lo_in, hi_out, hi_in) = w
    pos, neg = V > 0.0, V < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # v = 0 takes no cut
        cut = T / V
    # the grid part of the region: ys[start:] for v > 0, ys[:stop] for v < 0
    start = ys.searchsorted(cut - eps, side="left")
    stop = np.where(np.isnan(cut), 0, ys.searchsorted(cut + eps, side="right"))
    inf = minima[np.where(pos, start, np.where(neg, stop + (len(ys) + 1), 0))]
    if lo_out < lo_in - eps:  # the regions that reach past lo fall without bound
        inf[~pos | (cut < ys[0])] = -np.inf
    if hi_out < hi_in - eps:
        inf[~neg | (cut > ys[-1])] = -np.inf
    inf[~(pos | neg) & (T > 0.0)] = np.inf  # empty constraint region
    return inf


def ml_member_1d(
    f: ExprAst,
    x: float,
    pair: MLPair,
    window: Box,
    resolution: int = 201,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """(v, t) in the Martinez-Legaz subdifferential of a 1-D function at x:
    v x >= t and f(x) <= inf {f(y) : v y >= t}, within eps_feas, with the
    infimum read off the window as ml_solution_check_1d reads it; f(x) is
    evaluated only when v x >= t - eps_feas."""
    (x,), eps = _as_point(x, 1, "x"), cfg.eps_feas
    v, t = _as_point((pair.v, pair.t), 2, "pair", finite=False)
    inf = _halfline_infima(_ml_window(f, window, resolution)[1], np.array([v]), np.array([t]), eps)[0]
    return not v * x < t - eps and bool(inf >= evaluate(f, [x]) - eps)


def _ml_slopes(w: tuple, window: Box, eps: float) -> tuple:
    """Per slope v of default_ml_pairs: v, its floats t - eps (t ascends, so v x >= t - eps on the
    first bisect_right(t - eps, v x)) and the running maximum of their infima from -inf."""
    V, T = np.array([(q.v, q.t) for q in default_ml_pairs(window)]).T
    inf = _halfline_infima(w, V, T, eps)
    return tuple((v, tuple((T[V == v] - eps).tolist()),
                  (-math.inf, *np.maximum.accumulate(inf[V == v]).tolist())) for v in (0.5, 1.0, 2.0))


def default_ml_pairs(window: Box) -> List[MLPair]:
    """The route's (v, t) pairs: the slopes 0.5, 1 and 2, each with 21
    thresholds spanning v * window, and zero.  A window whose thresholds
    are not all finite is refused."""
    lo, hi = float(window.lo[0]), float(window.hi[0])
    pairs = []
    for v in (0.5, 1.0, 2.0):
        if not math.isfinite(v * hi - v * lo):  # then linspace makes NaN thresholds
            raise InputError(f"window {window!r} has non-finite thresholds at slope {v}")
        ts = set(np.linspace(v * lo, v * hi, 21))
        ts.add(0.0)
        for t in sorted(ts):
            pairs.append(MLPair(v, float(t)))
    return pairs


def ml_solution_check_1d(
    p: Problem,
    xbar: float,
    x: float,
    resolution: int = 201,
    cfg: Config = DEFAULT_CONFIG,
    form: str = "M2",
) -> bool:
    """Solution test through the 1-D Martinez-Legaz subdifferential.

    M2 (default): some pair of p.domain_window's default_ml_pairs lies in
    the subdifferential at x and satisfies v * xbar >= t.  M1: some pair
    lies in the subdifferential at both x and xbar, read off the _ml_slopes kept per eps_feas.
    An x outside the feasible set is no solution; f(x), f(xbar) are evaluated once a pair needs them.
    """
    if p.dimension != 1:
        raise DimensionError("Martinez-Legaz route is implemented for n=1 only")
    if form not in ("M1", "M2"):
        raise InputError("form must be 'M1' or 'M2'")
    (xbar,), (x,) = _as_point(xbar, 1, "xbar"), _as_point(x, 1, "x")
    if not _holds(p.feasible_set, [x], cfg.eps_feas):
        return False
    f, window, eps = p.objective, p.domain_window, cfg.eps_feas
    grid, w = _ml_window(f, window, resolution)
    slopes = grid.derived(("ml", eps), lambda: _ml_slopes(w, window, eps), len)
    ks = [(bisect_right(ts, v * x), bisect_right(ts, v * xbar), top) for v, ts, top in slopes]
    if not any(k for k, *_ in ks):  # no pair passes at x
        return False
    top, level = max(top[min(k, kb)] for k, kb, top in ks), evaluate(f, [x]) - eps
    if form == "M1" and top >= level:  # a pair of the subdifferential at x passes at xbar: f(xbar) decides
        level = evaluate(f, [xbar]) - eps
    return bool(top >= level)
