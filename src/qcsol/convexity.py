"""Sampled verification of generalized-convexity hypotheses.

These checks are falsifiers, not proofs: "holds" means no violation was
found on the sampled pairs; a returned counterexample always re-evaluates
to a violation.

Each sampler draws its samples from one generator, in a fixed order, and
evaluates them in batches of bounded size.  Every drawn sample is
evaluated: when some evaluation fails, the sampler raises the error of the
first failing one, in the order a loop over the samples makes them;
otherwise it reports the first violation in draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .config import DEFAULT_CONFIG, Config
from .errors import EvalError, InputError
from .expr import ExprAst, _dot, _norm, evaluate, evaluate_many, grad, grad_many
from .core import as_point
from .sets import Box, _check_resolution, grid_nodes

# Points evaluated per batch, so memory stays bounded for any sample count.
_CHUNK_ROWS = 4096


@dataclass(frozen=True)
class ConvexityReport:
    holds: bool
    checked: int
    counterexample: Optional[tuple] = None  # (x, y, t) or (x, y)


def _require_count(name: str, value: int) -> None:
    if value < 0:
        raise InputError(f"{name} must be >= 0")


def _draws(window: Box, rng: np.random.Generator, margin: float, rows: int) -> np.ndarray:
    """rows successive uniform points of the window shrunk by margin: the
    same numbers as rows calls of rng.uniform(lo, hi).  A window narrower
    than 2 * margin on some axis, or of infinite width, is refused."""
    if not all(math.isfinite(hi - lo) for lo, hi in zip(window.lo, window.hi)):
        raise InputError(f"window {window!r} needs a finite width on every axis")
    lo = np.asarray(window.lo) + margin
    hi = np.asarray(window.hi) - margin
    if np.any(hi < lo):
        raise InputError(f"window {window!r} is narrower than 2 * delta_open = {2 * margin!r}")
    return rng.uniform(lo, hi, size=(rows, len(lo)))


def _chunks(total: int, rows_each: int) -> Iterator[int]:
    """Batch sizes summing to total items of rows_each rows each: at most
    _CHUNK_ROWS rows per batch, but at least one item."""
    step = max(1, _CHUNK_ROWS // rows_each)
    for start in range(0, total, step):
        yield min(step, total - start)


def _index_pairs(count: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Index arrays (I, J) of every pair i < j < count, in lexicographic
    order, at most _CHUNK_ROWS pairs at a time (or the pairs of one i)."""
    start = 0
    while start < count - 1:
        stop, size = start + 1, count - 1 - start
        while stop < count - 1 and size + count - 1 - stop <= _CHUNK_ROWS:
            size += count - 1 - stop
            stop += 1
        rows = np.arange(start, stop)
        counts = count - 1 - rows
        I = np.repeat(rows, counts)
        J = I + 1 + np.arange(size) - np.repeat(np.cumsum(counts) - counts, counts)
        yield I, J
        start = stop


def check_quasiconvex(
    f: ExprAst,
    window: Box,
    pairs: int = 500,
    t_steps: int = 10,
    cfg: Config = DEFAULT_CONFIG,
) -> ConvexityReport:
    """Sample segments and test f(x + t(y-x)) <= max(f(x), f(y))."""
    _require_count("pairs", pairs)
    _require_count("t_steps", t_steps)
    rng = np.random.default_rng(cfg.seed)
    ts = np.linspace(0.0, 1.0, t_steps + 1)
    found = None
    for k in _chunks(pairs, t_steps + 3):
        XY = _draws(window, rng, cfg.delta_open, 2 * k)
        X, Y = XY[0::2], XY[1::2]
        Z = X[:, None] + ts[:, None] * (Y - X)[:, None]
        # per pair, the rows x, y, z_0, ..., z_T
        rows = np.concatenate([X[:, None], Y[:, None], Z], axis=1)
        values = evaluate_many(f, rows.reshape(-1, XY.shape[1])).reshape(len(X), -1)
        bound = np.maximum(values[:, 0], values[:, 1]) + cfg.eps_feas
        bad = values[:, 2:] > bound[:, None]
        hit = np.flatnonzero(bad.any(axis=1))
        if found is None and hit.size:
            i = hit[0]
            t = ts[np.argmax(bad[i])]
            found = ConvexityReport(False, pairs, (tuple(X[i]), tuple(Y[i]), float(t)))
    return found or ConvexityReport(True, pairs)


def check_levelset_convex(
    f: ExprAst,
    alpha: float,
    window: Box,
    resolution: int = 11,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """Midpoint convexity of the lower level set {f <= alpha} on the grid."""
    _check_resolution(resolution, 3)
    nodes = grid_nodes(window, resolution)
    level = nodes[evaluate_many(f, nodes) <= alpha]
    holds = True
    for I, J in _index_pairs(len(level)):
        mids = 0.5 * (level[I] + level[J])
        if np.any(evaluate_many(f, mids) > alpha + cfg.eps_feas):
            holds = False
    return holds


def check_first_order_qcx(
    f: ExprAst,
    window: Box,
    pairs: int = 500,
    cfg: Config = DEFAULT_CONFIG,
) -> ConvexityReport:
    """Test the implication f(y) <= f(x)  =>  grad f(x) . (y - x) <= 0."""
    _require_count("pairs", pairs)
    rng = np.random.default_rng(cfg.seed)
    found = None
    for k in _chunks(pairs, 2):
        XY = _draws(window, rng, cfg.delta_open, 2 * k)
        X, Y = XY[0::2], XY[1::2]
        n = XY.shape[1]
        try:
            # per pair, f(y) then f(x)
            values = evaluate_many(f, XY.reshape(-1, 2, n)[:, ::-1].reshape(-1, n))
        except EvalError:
            # raise at the first failing evaluation, gradients included
            for x, y in zip(X, Y):
                if evaluate(f, y) <= evaluate(f, x):
                    grad(f, x)
            raise
        down = np.flatnonzero(values[0::2] <= values[1::2])
        steps = (Y[down] - X[down]).T
        gaps = _dot(grad_many(f, X[down]).T, steps)
        hit = down[gaps > cfg.eps_feas]
        if found is None and hit.size:
            i = hit[0]
            found = ConvexityReport(False, pairs, (tuple(X[i]), tuple(Y[i])))
    return found or ConvexityReport(True, pairs)


def check_pseudoconvex_at(
    f: ExprAst,
    x,
    window: Box,
    samples: int = 500,
    cfg: Config = DEFAULT_CONFIG,
) -> bool:
    """Pointwise pseudoconvexity at x: f(y) < f(x) forces a strict descent
    direction y - x."""
    _require_count("samples", samples)
    rng = np.random.default_rng(cfg.seed)
    xv = as_point(x, window.dimension)
    fx = evaluate(f, xv)
    g = grad(f, xv)
    holds = True
    for k in _chunks(samples, 1):
        Y = _draws(window, rng, cfg.delta_open, k)
        steps = (Y[evaluate_many(f, Y) < fx - cfg.eps_feas] - xv).T
        if np.any(_dot(g, steps) >= -cfg.eps_feas * _norm(steps)):
            holds = False
    return holds
