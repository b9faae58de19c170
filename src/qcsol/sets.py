"""Convex set descriptors: membership, grid sampling, normal cones.

A set is the intersection of atoms (boxes, halfspaces, balls, linear
equalities).  Normal-cone extraction is restricted to polyhedral atoms;
curved sets are supported everywhere else.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .errors import DimensionError, NonPolyhedralError
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
            raise ValueError("box has a NaN bound")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("box has lo > hi")


@dataclass(frozen=True)
class Halfspace:
    """a . x <= b"""

    a: tuple
    b: float


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float


@dataclass(frozen=True)
class LinearEquality:
    """a . x = b"""

    a: tuple
    b: float


Atom = Union[Box, Halfspace, Ball, LinearEquality]


def _atom_dim(atom: Atom) -> int:
    if isinstance(atom, Box):
        return len(atom.lo)
    if isinstance(atom, (Halfspace, LinearEquality)):
        return len(atom.a)
    return len(atom.center)


def _violations(atom: Atom, X: np.ndarray):
    """Signed violations of one point (n,) or of each row of X (N, n);
    <= 0 means the atom is satisfied."""
    if isinstance(atom, Box):
        below = np.max(np.asarray(atom.lo) - X, axis=-1)
        above = np.max(X - np.asarray(atom.hi), axis=-1)
        return np.where(above > below, above, below)  # builtin max(below, above)
    if isinstance(atom, (Halfspace, LinearEquality)):
        gap = _dot(atom.a, X.T) - atom.b
        return abs(gap) if isinstance(atom, LinearEquality) else gap
    if isinstance(atom, Ball):
        return _norm([c - ci for c, ci in zip(X.T, atom.center)]) - atom.radius
    raise TypeError(f"unknown atom {atom!r}")


def atom_violation(atom: Atom, x: np.ndarray) -> float:
    """Signed violation; <= 0 means the atom is satisfied."""
    return float(_violations(atom, np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class ConvexSetDescriptor:
    dimension: int
    atoms: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError("dimension must be >= 1")
        for atom in self.atoms:
            if _atom_dim(atom) != self.dimension:
                raise DimensionError(
                    f"atom {atom!r} has wrong dimension for n={self.dimension}"
                )

    @property
    def polyhedral(self) -> bool:
        return not any(isinstance(a, Ball) for a in self.atoms)


def contains(S: ConvexSetDescriptor, x: Sequence[float], tol: float = 1e-9) -> bool:
    xv = np.asarray(x, dtype=float)
    if xv.size != S.dimension:
        raise DimensionError(
            f"point has dimension {xv.size}, set expects {S.dimension}"
        )
    return all(atom_violation(atom, xv) <= tol for atom in S.atoms)


# The most nodes a grid may have: a larger one is refused before any
# memory is allocated for it.
MAX_GRID_NODES = 10**6


def check_grid_size(resolution: int, dim: int) -> None:
    """Refuse a grid of resolution nodes per axis in dim dimensions that
    has fewer than 2 per axis or more than MAX_GRID_NODES in all."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if resolution ** dim > MAX_GRID_NODES:
        raise ValueError(
            f"a grid of {resolution}^{dim} nodes exceeds the limit of {MAX_GRID_NODES} nodes"
        )


def grid_nodes(window: Box, resolution: int) -> np.ndarray:
    """All nodes of the regular grid over the window, as (N, n) rows in row-major order."""
    check_grid_size(resolution, len(window.lo))
    if not all(map(math.isfinite, (*window.lo, *window.hi))):
        raise ValueError(f"a grid needs a finite window, got {window!r}")
    axes = [
        np.linspace(lo, hi, resolution) for lo, hi in zip(window.lo, window.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


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


def contains_many(S: ConvexSetDescriptor, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """contains(S, x, tol) for every row of an (N, n) array X, as a mask,
    by the same formula on all rows at once."""
    if X.shape[1] != S.dimension:
        raise DimensionError(
            f"point has dimension {X.shape[1]}, set expects {S.dimension}"
        )
    keep = np.ones(len(X), dtype=bool)
    for atom in S.atoms:
        keep &= _violations(atom, X) <= tol
    return keep


def sample_grid(
    S: ConvexSetDescriptor, window: Box, resolution: int, tol: float = 1e-9
) -> np.ndarray:
    """Grid nodes of the window that belong to S, as (N, n) rows in grid order.

    Equal to filtering grid_nodes(window, resolution) through
    contains(S, x, tol).
    """
    X = grid_nodes(window, resolution)
    return X[contains_many(S, X, tol)]


def normal_cone_generators(
    X: ConvexSetDescriptor, x: Sequence[float], eps_act: float = 1e-9
) -> List[np.ndarray]:
    """Generators of the normal cone of a polyhedral X at x.

    Equality atoms contribute both orientations (free multipliers split
    into a positive pair).
    """
    if not X.polyhedral:
        raise NonPolyhedralError("cone extraction needs a polyhedral set")
    xv = np.asarray(x, dtype=float)
    gens: List[np.ndarray] = []
    n = X.dimension
    for atom in X.atoms:
        if isinstance(atom, Halfspace):
            if abs(_dot(atom.a, xv) - atom.b) <= eps_act:
                gens.append(np.asarray(atom.a, dtype=float))
        elif isinstance(atom, LinearEquality):
            a = np.asarray(atom.a, dtype=float)
            gens.append(a)
            gens.append(-a)
        elif isinstance(atom, Box):
            for i in range(n):
                unit = np.zeros(n)
                if abs(xv[i] - atom.hi[i]) <= eps_act:
                    unit[i] = 1.0
                    gens.append(unit)
                elif abs(xv[i] - atom.lo[i]) <= eps_act:
                    unit[i] = -1.0
                    gens.append(unit)
    return gens
