"""Convex set descriptors: membership, grid sampling, polyhedral cones.

A set is the intersection of atoms (boxes, halfspaces, balls, linear
equalities).  Tangent/normal-cone extraction is restricted to polyhedral
atoms; curved sets are supported everywhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple, Union

import numpy as np

from .errors import DimensionError, NonPolyhedralError
from .expr import _DOT_FLOOR, _DOT_SLACK, _row_dots


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


def atom_violation(atom: Atom, x: np.ndarray) -> float:
    """Signed violation; <= 0 means the atom is satisfied."""
    if isinstance(atom, Box):
        lo = np.asarray(atom.lo)
        hi = np.asarray(atom.hi)
        return float(max(np.max(lo - x), np.max(x - hi)))
    if isinstance(atom, Halfspace):
        return float(np.dot(atom.a, x) - atom.b)
    if isinstance(atom, Ball):
        return float(np.linalg.norm(x - np.asarray(atom.center)) - atom.radius)
    if isinstance(atom, LinearEquality):
        return float(abs(np.dot(atom.a, x) - atom.b))
    raise TypeError(f"unknown atom {atom!r}")


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


@dataclass(frozen=True)
class ConeRep:
    """Polyhedral cone {y : row . y <= 0 for each row}; equality rows give
    both orientations."""

    rows: tuple  # of coefficient tuples


def contains(S: ConvexSetDescriptor, x: Sequence[float], tol: float = 1e-9) -> bool:
    xv = np.asarray(x, dtype=float)
    if xv.size != S.dimension:
        raise DimensionError(
            f"point has dimension {xv.size}, set expects {S.dimension}"
        )
    return all(atom_violation(atom, xv) <= tol for atom in S.atoms)


def grid_nodes(window: Box, resolution: int) -> List[np.ndarray]:
    """All nodes of the regular grid over the window, row-major order."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    axes = [
        np.linspace(lo, hi, resolution) for lo, hi in zip(window.lo, window.hi)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return list(np.stack(mesh, axis=-1).reshape(-1, len(axes)))


def _atom_violations(atom: Atom, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """atom_violation of every row of X, by the same formula up to the
    summation order of its dot products and norms, and how far each may
    lie from atom_violation's."""
    if isinstance(atom, Box):
        below = np.max(np.asarray(atom.lo) - X, axis=1)
        above = np.max(X - np.asarray(atom.hi), axis=1)
        # builtin max(below, above); differences and maxima round alike
        return np.where(above > below, above, below), np.zeros(len(X))
    if isinstance(atom, Ball):
        norms = np.linalg.norm(X - np.asarray(atom.center), axis=1)
        slack = _DOT_SLACK * X.shape[1] * (norms + abs(atom.radius)) + _DOT_FLOOR
        return norms - atom.radius, slack
    if isinstance(atom, (Halfspace, LinearEquality)):
        dots, slack = _row_dots(X, atom.a)
        violations = dots - atom.b
        if isinstance(atom, LinearEquality):
            violations = np.abs(violations)
        return violations, slack + _DOT_SLACK * abs(atom.b)
    raise TypeError(f"unknown atom {atom!r}")


def contains_many(S: ConvexSetDescriptor, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """contains(S, x, tol) for every row of an (N, n) array X, as a mask.

    Each atom is tested on all rows at once; a row whose violation lies
    within rounding of tol is decided by atom_violation itself.
    """
    if X.shape[1] != S.dimension:
        raise DimensionError(
            f"point has dimension {X.shape[1]}, set expects {S.dimension}"
        )
    keep = np.ones(len(X), dtype=bool)
    for atom in S.atoms:
        violations, slack = _atom_violations(atom, X)
        ok = violations <= tol
        near = ~(np.abs(violations - tol) > slack)
        for r in np.flatnonzero(near):
            ok[r] = atom_violation(atom, X[r]) <= tol
        keep &= ok
    return keep


def sample_grid(
    S: ConvexSetDescriptor, window: Box, resolution: int, tol: float = 1e-9
) -> List[np.ndarray]:
    """Grid nodes of the window that belong to S; deterministic order.

    Equal to filtering grid_nodes(window, resolution) through
    contains(S, x, tol).
    """
    X = np.array(grid_nodes(window, resolution), dtype=float)
    return list(X[contains_many(S, X, tol)])


def tangent_polar_at(
    X: ConvexSetDescriptor, x: Sequence[float], eps_act: float = 1e-9
) -> ConeRep:
    """Tangent cone of a polyhedral X at x, as inequality rows.

    This equals the polar of the normal cone at x: directions y with
    row . y <= 0 for every atom face active at x.
    """
    if not X.polyhedral:
        raise NonPolyhedralError("cone extraction needs a polyhedral set")
    xv = np.asarray(x, dtype=float)
    rows: List[tuple] = []
    n = X.dimension
    for atom in X.atoms:
        if isinstance(atom, Halfspace):
            if abs(np.dot(atom.a, xv) - atom.b) <= eps_act:
                rows.append(tuple(float(c) for c in atom.a))
        elif isinstance(atom, LinearEquality):
            rows.append(tuple(float(c) for c in atom.a))
            rows.append(tuple(-float(c) for c in atom.a))
        elif isinstance(atom, Box):
            for i in range(n):
                unit = [0.0] * n
                if abs(xv[i] - atom.hi[i]) <= eps_act:
                    unit[i] = 1.0
                    rows.append(tuple(unit))
                elif abs(xv[i] - atom.lo[i]) <= eps_act:
                    unit[i] = -1.0
                    rows.append(tuple(unit))
    return ConeRep(tuple(rows))


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
            if abs(np.dot(atom.a, xv) - atom.b) <= eps_act:
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
