"""Convex set descriptors: membership, grid sampling, normal cones.

A set is the intersection of atoms (boxes, halfspaces, balls, linear
equalities), each stating its dimension, its signed violations (<= 0
where it holds) of coordinates, a point's Python floats or the columns
of X (N, n), and its normal-cone generators at x.  A point with a NaN or
infinite coordinate is refused.  grid_nodes builds every grid.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .config import DEFAULT_CONFIG
from .errors import DimensionError, InputError
from .expr import (_MEMO_SIZE, _as_point, _as_rows, _ast_key, _dot, _floats, _max, _norm, evaluate_many,
                   grad_many)


@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo, hi = _field(self, "lo", "box lo"), _field(self, "hi", "box hi")
        if len(lo) != len(hi):
            raise DimensionError("box lo/hi lengths differ")
        if not lo:
            raise DimensionError("box dimension must be >= 1")
        # infinite bounds are allowed, NaN is not (it would pass lo > hi)
        if any(map(math.isnan, lo + hi)):
            raise InputError("box has a NaN bound")
        if any(l > h for l, h in zip(lo, hi)):
            raise InputError("box has lo > hi")

    dimension = property(lambda self: len(self.lo))

    def violations(self, x):
        return _max([*(c - h for c, h in zip(x, self.hi)), *(l - c for l, c in zip(self.lo, x))])

    def normals(self, x, eps_act: float) -> List[np.ndarray]:
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


def _field(atom, field: str, what: str, flat: bool = True):
    """The atom's field read as reals (expr._floats) and stored as read: a
    tuple of floats if flat, else one float."""
    xs = _floats(getattr(atom, field), what)
    if type(xs) is not (list if flat else float):
        want = "a flat sequence" if flat else "one real"
        raise DimensionError(f"{what} has shape {np.shape(xs)}, expected {want}")
    object.__setattr__(atom, field, tuple(xs) if flat else xs)
    return getattr(atom, field)


def _check_entries(atom, what: str, vector: str, *scalars: str) -> None:
    """Store the atom's fields as read (_field), refusing an empty vector, a
    NaN anywhere, and an infinite entry of the vector."""
    xs = _field(atom, vector, what)
    if not xs:
        raise DimensionError(f"{what} dimension must be >= 1")
    if any(map(math.isnan, xs + tuple(_field(atom, v, what, False) for v in scalars))):
        raise InputError(f"{what} has a NaN entry")
    if not all(map(math.isfinite, xs)):
        raise InputError(f"{what} has an infinite entry in {xs!r}")


@dataclass(frozen=True)
class Halfspace:
    """a . x <= b"""

    a: tuple
    b: float

    def __post_init__(self):
        _check_entries(self, "halfspace", "a", "b")

    dimension = property(lambda self: len(self.a))

    def violations(self, x):
        return _dot(self.a, x) - self.b

    def normals(self, x, eps_act: float) -> List[np.ndarray]:
        """a where the halfspace is active."""
        return [np.array(self.a)] if abs(self.violations(x)) <= eps_act else []


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        if not _field(self, "radius", "ball radius", False) >= 0:  # NaN fails this too
            raise InputError(f"ball radius must be >= 0, got {self.radius!r}")
        _check_entries(self, "ball center", "center")

    dimension = property(lambda self: len(self.center))

    def violations(self, x):
        return _norm([c - ci for c, ci in zip(x, self.center)]) - self.radius

    def normals(self, x, eps_act: float) -> List[np.ndarray]:
        """The outward normal x - center where x is on the sphere.  A ball of
        radius 0 is the point {center}, and gives what that degenerate box gives."""
        if self.radius == 0:  # +-e_i on every axis at the center: all of R^n
            return Box(self.center, self.center).normals(x, eps_act)
        return [np.subtract(x, self.center)] if abs(self.violations(x)) <= eps_act else []


@dataclass(frozen=True)
class LinearEquality:
    """a . x = b"""

    a: tuple
    b: float

    def __post_init__(self):
        _check_entries(self, "linear equality", "a", "b")

    dimension = property(lambda self: len(self.a))

    def violations(self, x):
        return abs(_dot(self.a, x) - self.b)

    def normals(self, x, eps_act: float) -> List[np.ndarray]:
        """a and -a: a free multiplier split into a positive pair."""
        return [np.array(self.a), -np.array(self.a)]


Atom = Union[Box, Halfspace, Ball, LinearEquality]


def atom_violation(atom: Atom, x: np.ndarray) -> float:
    """Signed violation; <= 0 means the atom is satisfied."""
    return float(atom.violations(_as_point(x, atom.dimension)))


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
    return _holds(S, _as_point(x, S.dimension), tol)


def _holds(S: ConvexSetDescriptor, xs: list, tol: float) -> bool:
    """contains for a point already read (expr._as_point): n finite floats."""
    return all(atom.violations(xs) <= tol for atom in S.atoms)


# The most nodes a grid may have: a larger one is refused before any
# memory is allocated for it.
MAX_GRID_NODES = 10**6


def _check_resolution(value, least: int = 2, name: str = "resolution") -> None:
    """Refuse a resolution or count, named name, that is not an integer >= least (numpy's too, no bool)."""
    if not hasattr(value, "__index__") or type(value) is bool:
        raise InputError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}")


def grid_nodes(window: Box, resolution: int) -> np.ndarray:
    """All nodes of the regular grid over the window, as (N, n) rows in
    row-major order.  Every axis of the window must have a finite width,
    with at least 2 nodes and at most MAX_GRID_NODES in all."""
    _check_resolution(resolution)
    if resolution ** window.dimension > MAX_GRID_NODES:
        raise InputError(f"a grid of {resolution}^{window.dimension} nodes exceeds the "
                         f"limit of {MAX_GRID_NODES} nodes")
    if not all(math.isfinite(hi - lo) for lo, hi in zip(window.lo, window.hi)):
        raise InputError(f"a grid needs a finite window, got {window!r}")
    n = window.dimension
    X = np.empty((resolution,) * n + (n,))
    for i, (lo, hi) in enumerate(zip(window.lo, window.hi)):  # axis i along X's axis i
        X[..., i] = np.linspace(lo, hi, resolution).reshape((-1,) + (1,) * (n - 1 - i))
    return X.reshape(-1, n)


# (kind, ...) -> (record, the function counting its rows), least recently
# used first: every record this process keeps, of the kinds README's store section names
_KEPT: "OrderedDict[tuple, tuple]" = OrderedDict()


class _Derived:
    """A kept record, whose derived results are kept until it leaves the store."""

    def derived(self, tag, build, rows=None):
        """build(), kept in self.results under tag with rows(result) its rows; a failing build is not kept."""
        results = vars(self).setdefault("results", {})
        if tag not in results:
            result = results.setdefault(tag, build())
            vars(self).setdefault("counts", {})[tag] = rows(result) if rows else None
        return results[tag]


def _held(record, rows) -> int:
    """The rows a kept record holds now: its own, and each derived result's (by default as many)."""
    own = rows(record)
    return own + sum(own if n is None else n for n in getattr(record, "counts", {}).values())


def _kept(key: tuple, build, rows=lambda record: 0):
    """build(), kept for the process under key.  The store holds at most
    _MEMO_SIZE records and MAX_GRID_NODES rows (_held) as of each miss: the
    least recently used record goes first, and for rows the least recently
    used that holds some.  A failing build is not kept, so it raises again."""
    entry = _KEPT.pop(key, None)
    if entry is None:
        entry = (build(), rows)
        while len(_KEPT) >= _MEMO_SIZE:
            _KEPT.popitem(last=False)
        for heavy in [k for k, e in _KEPT.items() if _held(*e)]:
            if sum(_held(*e) for e in (entry, *_KEPT.values())) <= MAX_GRID_NODES:
                break
            del _KEPT[heavy]
    _KEPT[key] = entry
    return entry[0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Grid(_Derived):
    """f evaluated once on the rows X (N, n) of a grid, shared by every
    consumer: constraint values C (m, N) if given, f's values and gradients
    on first use and the results derived from them, all read-only.  A
    failing evaluation is not kept, so it raises again on the next use."""

    def __init__(self, f, X: np.ndarray, C=None):
        self.f, self.X, self.C = f, _frozen(X), C

    @functools.cached_property
    def values(self) -> np.ndarray:
        """f at every row."""
        return _frozen(evaluate_many(self.f, self.X))

    @functools.cached_property
    def gradients(self) -> np.ndarray:
        """The gradients of f at every row."""
        return _frozen(grad_many(self.f, self.X, self.X.shape[1]))


def _window(f, window: Box, resolution: int) -> _Grid:
    """The window's grid_nodes as a _Grid of f, kept once per process: each
    grid question derives its answer from it under a tag led by its kind.
    f and the window are keyed by repr, so 0.0 and -0.0 bounds differ."""
    _check_resolution(resolution)
    return _kept(("window", _ast_key(f), _ast_key(window), resolution),
                 lambda: _Grid(f, grid_nodes(window, resolution)), lambda grid: len(grid.X))


def contains_many(S: ConvexSetDescriptor, X: np.ndarray,
                  tol: float = DEFAULT_CONFIG.eps_feas) -> np.ndarray:
    """contains(S, x, tol) for every row of an (N, n) array X, as a mask,
    by the same formula on the columns of X at once (expr._as_rows: the
    first bad row is refused as contains refuses it)."""
    X = _as_rows(X, S.dimension)
    keep = np.ones(len(X), dtype=bool)
    for atom in S.atoms:
        keep &= atom.violations(X.T) <= tol
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
    xs = _as_point(x, X.dimension)
    return [g for atom in X.atoms for g in atom.normals(xs, eps_act)]
