"""Convex set descriptors: membership, grid sampling, normal cones.

A set is the intersection of atoms (boxes, halfspaces, balls, linear
equalities), each stating its dimension, its signed violations of a point
(n,) or of the rows of X (N, n), <= 0 where it holds, and its
normal-cone generators at x.  grid_nodes builds every grid.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import DimensionError, InputError
from .expr import _MEMO_SIZE, _dot, _norm


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionError("box lo/hi lengths differ")
        # infinite bounds are allowed, NaN is not (it would pass lo > hi)
        if any(math.isnan(v) for v in (*self.lo, *self.hi)):
            raise InputError("box has a NaN bound")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise InputError("box has lo > hi")

    dimension = property(lambda self: len(self.lo))

    def violations(self, X: np.ndarray):
        below = np.max(np.asarray(self.lo) - X, axis=-1)
        above = np.max(X - np.asarray(self.hi), axis=-1)
        return np.where(above > below, above, below)  # builtin max(below, above)

    def normals(self, x: np.ndarray, eps_act: float) -> List[np.ndarray]:
        """+e_i where x_i is at its upper bound and -e_i where at its lower:
        both on an axis whose bounds are within eps_act of each other."""
        gens, n = [], len(self.lo)
        for i in range(n):
            for bound, sign in ((self.hi[i], 1.0), (self.lo[i], -1.0)):
                if abs(x[i] - bound) <= eps_act:
                    unit = np.zeros(n)  # set in place: the entries off the axis stay +0.0
                    unit[i] = sign
                    gens.append(unit)
        return gens


@dataclass(frozen=True)
class Halfspace:
    """a . x <= b"""

    a: tuple
    b: float

    dimension = property(lambda self: len(self.a))

    def violations(self, X: np.ndarray):
        return _dot(self.a, X.T) - self.b

    def normals(self, x: np.ndarray, eps_act: float) -> List[np.ndarray]:
        """a where the halfspace is active."""
        return [np.asarray(self.a, dtype=float)] if abs(self.violations(x)) <= eps_act else []


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    dimension = property(lambda self: len(self.center))

    def violations(self, X: np.ndarray):
        return _norm([c - ci for c, ci in zip(X.T, self.center)]) - self.radius

    def normals(self, x: np.ndarray, eps_act: float) -> List[np.ndarray]:
        """The outward normal x - center where x is on the sphere."""
        return [x - np.asarray(self.center)] if abs(self.violations(x)) <= eps_act else []


@dataclass(frozen=True)
class LinearEquality:
    """a . x = b"""

    a: tuple
    b: float

    dimension = property(lambda self: len(self.a))

    def violations(self, X: np.ndarray):
        return abs(_dot(self.a, X.T) - self.b)

    def normals(self, x: np.ndarray, eps_act: float) -> List[np.ndarray]:
        """a and -a: a free multiplier split into a positive pair."""
        a = np.asarray(self.a, dtype=float)
        return [a, -a]


Atom = Union[Box, Halfspace, Ball, LinearEquality]


def atom_violation(atom: Atom, x: np.ndarray) -> float:
    """Signed violation; <= 0 means the atom is satisfied."""
    return float(atom.violations(_point(x, atom.dimension, "atom")))


def _point(x, dimension: int, what: str) -> np.ndarray:
    """x as a flat float array, refused unless it has the dimension's
    entries; a scalar is a point of one coordinate."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim > 1:
        raise DimensionError(f"point has shape {xv.shape}, {what} expects a flat point")
    if xv.size != dimension:
        raise DimensionError(f"point has dimension {xv.size}, {what} expects {dimension}")
    return xv.reshape(dimension)


@dataclass(frozen=True)
class ConvexSetDescriptor:
    dimension: int
    atoms: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError("dimension must be >= 1")
        for atom in self.atoms:
            if atom.dimension != self.dimension:
                raise DimensionError(
                    f"atom {atom!r} has wrong dimension for n={self.dimension}"
                )


def contains(S: ConvexSetDescriptor, x: Sequence[float],
             tol: float = DEFAULT_CONFIG.eps_feas) -> bool:
    xv = _point(x, S.dimension, "set")
    return all(float(atom.violations(xv)) <= tol for atom in S.atoms)


# The most nodes a grid may have: a larger one is refused before any
# memory is allocated for it.
MAX_GRID_NODES = 10**6


def grid_nodes(window: Box, resolution: int) -> np.ndarray:
    """All nodes of the regular grid over the window, as (N, n) rows in
    row-major order.  The window must be finite, with at least 2 nodes per
    axis and at most MAX_GRID_NODES in all."""
    if resolution < 2:
        raise InputError("resolution must be >= 2")
    if resolution ** window.dimension > MAX_GRID_NODES:
        raise InputError(f"a grid of {resolution}^{window.dimension} nodes exceeds the "
                         f"limit of {MAX_GRID_NODES} nodes")
    if not all(map(math.isfinite, (*window.lo, *window.hi))):
        raise InputError(f"a grid needs a finite window, got {window!r}")
    n = window.dimension
    X = np.empty((resolution,) * n + (n,))
    for i, (lo, hi) in enumerate(zip(window.lo, window.hi)):  # axis i along X's axis i
        X[..., i] = np.linspace(lo, hi, resolution).reshape((-1,) + (1,) * (n - 1 - i))
    return X.reshape(-1, n)


# (kind, ...) -> (record, its rows), least recently used first: the
# feasible grids, GP grids and problem documents this process keeps
_KEPT: "OrderedDict[tuple, tuple]" = OrderedDict()


def _kept(key: tuple, build, rows=lambda record: 0):
    """build(), kept for the process under key.  The store holds at most
    _MEMO_SIZE records and MAX_GRID_NODES rows in all, and the least
    recently used go first; a failing build is not kept, so it raises
    again on the next call."""
    entry = _KEPT.pop(key, None)
    if entry is None:
        record = build()
        entry = (record, rows(record))
        while _KEPT and (len(_KEPT) >= _MEMO_SIZE or entry[1] + sum(
                n for _, n in _KEPT.values()) > MAX_GRID_NODES):
            _KEPT.popitem(last=False)
    _KEPT[key] = entry
    return entry[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def contains_many(S: ConvexSetDescriptor, X: np.ndarray,
                  tol: float = DEFAULT_CONFIG.eps_feas) -> np.ndarray:
    """contains(S, x, tol) for every row of an (N, n) array X, as a mask,
    by the same formula on all rows at once."""
    if X.shape[1] != S.dimension:
        raise DimensionError(
            f"point has dimension {X.shape[1]}, set expects {S.dimension}"
        )
    keep = np.ones(len(X), dtype=bool)
    for atom in S.atoms:
        keep &= atom.violations(X) <= tol
    return keep


def sample_grid(
    S: ConvexSetDescriptor, window: Box, resolution: int, tol: float = DEFAULT_CONFIG.eps_feas
) -> np.ndarray:
    """Grid nodes of the window that belong to S, as (N, n) rows in grid order.

    Equal to filtering grid_nodes(window, resolution) through
    contains(S, x, tol).
    """
    X = grid_nodes(window, resolution)
    return X[contains_many(S, X, tol)]


def normal_cone_generators(
    X: ConvexSetDescriptor, x: Sequence[float], eps_act: float = DEFAULT_CONFIG.eps_act
) -> List[np.ndarray]:
    """Generators of the normal cone of X at x, atom by atom: the sum of
    the atoms' cones, which is X's cone where the atoms meet a constraint
    qualification (always, when no atom is a ball)."""
    xv = _point(x, X.dimension, "set")
    return [g for atom in X.atoms for g in atom.normals(xv, eps_act)]
