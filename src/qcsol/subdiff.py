"""Subdifferential comparison routes.

Greenberg-Pierskalla membership is decided by grid falsification; the
Martinez-Legaz subdifferential is implemented in one dimension only,
where the infimum over a halfline is computable.  Both routes are used to
cross-check the gradient-based characterizations on the same instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .core import Problem, as_point
from .errors import DimensionError, InputError
from .expr import ExprAst, _dot, _norm, evaluate, evaluate_many, grad
from .kkt import _anchor_record
from .sets import Box, _check_resolution, _frozen, _window, contains


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


def _gp_members(V: np.ndarray, x0: np.ndarray, f0: float, grid, eps: float) -> np.ndarray:
    """The rows v of V for which no grid point x has v.(x - x0) >= -eps
    and f(x) < f0 - eps."""
    steps = (grid.X[grid.values < f0 - eps] - x0).T
    ahead = _dot(V.T[:, :, None], steps[:, None, :]) >= -eps
    return V[~np.any(ahead, axis=1)]


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
    x0v = as_point(x0, window.dimension)
    f0 = evaluate(f, x0v)
    grid = _grid_values(f, window, resolution)
    V = np.asarray([v], dtype=float)
    if V.shape != (1, window.dimension) or not np.isfinite(V).all():
        raise InputError(f"a direction must have {window.dimension} finite entries")
    return bool(len(_gp_members(V, x0v, f0, grid, cfg.eps_feas)))


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
    units = [g / nrm for g, nrm in zip(gradients, map(_norm, gradients)) if nrm > cfg.eps_grad]
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
    xb, xv = as_point(xbar, p.dimension), as_point(x, p.dimension)
    if not contains(p.feasible_set, xv, cfg.eps_feas):  # no solution, and nothing evaluated
        return False
    eps = cfg.eps_feas
    anchor = _anchor_record(p, xb, cfg)  # the anchor's gradient is read from its record
    g0, gx = anchor.gradient[0], grad(p.objective, xv, p.dimension)
    grid = _grid if _grid is not None else _grid_values(p.objective, p.domain_window, resolution)
    step = [c - cb for c, cb in zip(xv, xb)]
    # the rays and xbar's unit gradient: kept, tested at xbar
    kept = grid.derived(("gp", anchor), lambda: _frozen(_gp_members(
        _gp_candidates([g0], p.dimension, cfg), xb, anchor.value, grid, eps)))
    V, nrm = kept[~(np.abs(_dot(kept.T, step)) > eps)], _norm(gx)  # |v.step| <= eps, or NaN
    if nrm > cfg.eps_grad and not abs(_dot(gx / nrm, step)) > eps:  # x's unit row
        V = np.vstack([V, _gp_members((gx / nrm)[None], xb, anchor.value, grid, eps)])
    if len(V):  # f(x) is evaluated only once some candidate needs it
        V = _gp_members(V, xv, evaluate(p.objective, xv), grid, eps)
    return bool(len(V))


def _ml_window(f: ExprAst, window: Box, resolution: int) -> tuple:
    """The 1-D window's record (_grid_values) and what every halfline
    infimum reads of it, derived from it once: its nodes ys, a lookup table
    of the running minima of f from either end (min over ys[i:] at i, -inf,
    -inf, min over ys[:k] at len(ys) + 1 + k) and f at the edge-trend points
    lo, lo + step, hi and hi - step.  ys and the table are read-only; where
    f fails, raises what evaluate raises at the first node, then edge point."""
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
    infimum read off the window as ml_solution_check_1d reads it."""
    _finite(x=x)
    V, T = np.array([[pair.v], [pair.t]], dtype=float)
    inf = _halfline_infima(_ml_window(f, window, resolution)[1], V, T, cfg.eps_feas)
    return bool(_ml_members(f, x, V, T, inf, cfg.eps_feas)[0])


def _finite(**points) -> None:
    """Refuse a point of the 1-D route that is not one finite real."""
    for name, x in points.items():
        try:
            finite = math.isfinite(x)
        except TypeError:
            raise DimensionError(f"{name} = {x!r} is not one real") from None
        if not finite:
            raise InputError(f"{name} = {x!r} is not finite")


def _ml_members(f: ExprAst, x: float, V, T, inf, eps: float, among=True) -> np.ndarray:
    """The mask of the pairs (V, T) in the mask among that lie in the ML
    subdifferential at x: v x >= t and f(x) <= inf (their regions' infima),
    within eps.  f(x) is evaluated only when some pair passes v x >= t."""
    paired = among & ~(V * x < T - eps)
    if not np.count_nonzero(paired):
        return paired
    return paired & (inf >= evaluate(f, [x]) - eps)


def default_ml_pairs(window: Box) -> List[MLPair]:
    """The route's (v, t) pairs: the slopes 0.5, 1 and 2, each with 21
    thresholds spanning v * window, and zero."""
    lo, hi = window.lo[0], window.hi[0]
    pairs = []
    for v in (0.5, 1.0, 2.0):
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
    lies in the subdifferential at both x and xbar.  A point x outside
    the feasible set is no solution, and nothing is evaluated for it.
    """
    if p.dimension != 1:
        raise DimensionError("Martinez-Legaz route is implemented for n=1 only")
    if form not in ("M1", "M2"):
        raise InputError("form must be 'M1' or 'M2'")
    _finite(xbar=xbar, x=x)
    if not contains(p.feasible_set, [x], cfg.eps_feas):
        return False
    f, window, eps = p.objective, p.domain_window, cfg.eps_feas
    grid, w = _ml_window(f, window, resolution)
    # kept on the window: the default pairs, slopes then thresholds, and their infima per eps_feas
    V, T = grid.derived(("ml", "pairs"), lambda: _frozen(np.array(
        [(q.v, q.t) for q in default_ml_pairs(window)]).T.copy()))
    inf = grid.derived(("ml", eps), lambda: _frozen(_halfline_infima(w, V, T, eps)))
    at_x = _ml_members(f, x, V, T, inf, eps)
    if not np.count_nonzero(at_x):
        return False
    if form == "M2":
        return bool(np.count_nonzero(at_x & (V * xbar >= T - eps)))
    return bool(_ml_members(f, xbar, V, T, inf, eps, at_x).any())
