"""Solution-set characterizations from a known solution.

Implements the gradient dichotomy classifier, the condition table of all
24 characterization variants (the hat/tilde/numbered S-families, the
T-families and their primed and double-primed multiplier forms), the
membership predicates and windowed enumeration of the 15 plain variants.
One decision path decides every variant; kkt's multiplier functions call
it too.
"""

from __future__ import annotations

import functools
import operator
from typing import Dict, List, Sequence

import numpy as np

# kkt imports charac too: each module looks the other's names up at call time
from . import kkt
from .alternatives import _collinearity
from .config import DEFAULT_CONFIG, Config
from .core import (
    CharacVariant,
    ConstrainedProblem,
    DichotomyReport,
    MembershipVerdict,
    Problem,
    as_point,
)
from .errors import (HypothesisViolatedError, InconsistentDichotomyError, InputError,
                     NotOpenGroundSetError)
from .expr import _ast_key, _at, _dot, _norm, evaluate, grad, grad_many
from .sets import _kept, contains, contains_many


_PAIRS = 1 << 16  # the most solution pairs classify_dichotomy compares at once


def classify_dichotomy(
    p: Problem, known_solutions: Sequence, cfg: Config = DEFAULT_CONFIG
) -> DichotomyReport:
    """Classify the solution set by the gradient dichotomy.

    Alternative I: every inspected gradient is nonzero and the gradients
    agree pairwise; II: every gradient is zero.  A mix raises
    InconsistentDichotomyError at the first failing pair (docs/theorems.md).
    """
    if isinstance(p, ConstrainedProblem):
        raise InputError("the dichotomy is stated for a plain problem, not a constrained one")
    if not len(known_solutions):
        raise InputError("need at least one known solution")
    # one conversion; where it fails, as_point reads the points one by one,
    # so that the first bad point raises its own error
    try:
        X = np.asarray(known_solutions, dtype=float)
        read = X.ndim == 2 and X.shape[1] == p.dimension and np.isfinite(X).all()
    except (ValueError, TypeError, OverflowError):
        read = False
    if not read:
        X = np.array([as_point(x, p.dimension) for x in known_solutions])
    # one report per problem, points and config; the points are keyed by
    # their bytes, so 0.0 and -0.0 differ, and a failing build raises again
    return _kept(("dichotomy", _ast_key(p), X.shape, X.tobytes(), cfg),
                 lambda: _dichotomy(p, X, cfg), lambda report: len(X))


def _dichotomy(p: Problem, X: np.ndarray, cfg: Config) -> DichotomyReport:
    """classify_dichotomy of the (k, n) points X, read as given."""
    outside = ~contains_many(p.feasible_set, X, cfg.eps_feas)
    if outside.any():
        raise InputError(f"claimed solution {_at(X[outside.argmax()])} is not feasible")
    G = grad_many(p.objective, X, p.dimension)
    norms = _norm(G.T)
    witnesses = tuple(zip(map(tuple, X.tolist()), norms.tolist()))

    zero = norms <= cfg.eps_grad
    if zero.all():
        return DichotomyReport("II", None, witnesses)
    if zero.any():
        raise InconsistentDichotomyError(
            "solutions mix zero and nonzero gradients; inputs are not all "
            "minimizers or tolerances are miscalibrated"
        )
    # the condition table's cosine distance of each pair (i, j), i < j,
    # with solution i as the anchor, for a block of rows i at a time
    k = len(X)
    rows = max(1, _PAIRS // k)
    for lo in range(0, k - 1, rows):
        i = np.arange(lo, min(lo + rows, k - 1))
        cd = _cosine_distance(G.T[:, None, :], norms, G[i].T[:, :, None], norms[i, None])
        far = (cd > cfg.eps_dir) & (np.arange(k) > i[:, None])
        if far.any():
            first, j = np.argwhere(far)[0]
            raise InconsistentDichotomyError(
                f"normalized gradients at {_at(X[i[first]])} and "
                f"{_at(X[j])} differ beyond tolerance"
            )
    mean = np.mean(G / norms[:, None], axis=0)
    common = mean / _norm(mean)
    return DichotomyReport("I", tuple(common.tolist()), witnesses)


def check_anchor_hypothesis(
    p: Problem, xbar, variant: CharacVariant, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Validate the anchor point and return its gradient.  p may be a
    ConstrainedProblem: the anchor must then meet its constraints too."""
    return _checked(kkt._anchor_record(p, xbar, cfg), variant, cfg).gradient[0].copy()


def _checked(anchor, variant: CharacVariant, cfg: Config):
    """check_anchor_hypothesis on the anchor's record, which it returns."""
    anchor.values  # refuses an anchor that is not feasible
    if variant in _NEEDS_ANCHOR_GRADIENT and anchor.gradient[1] <= cfg.eps_grad:
        raise HypothesisViolatedError(
            f"variant {variant.value} requires a nonzero gradient at the anchor"
        )
    return anchor


def membership(
    p: Problem,
    xbar,
    x,
    variant: CharacVariant,
    cfg: Config = DEFAULT_CONFIG,
) -> MembershipVerdict:
    """Per-point membership verdict for one characterization variant.

    Residuals are signed slacks, one per named condition; the verdict is
    positive iff every condition holds within its tolerance.
    """
    return _decide(p, xbar, None, x, variant, cfg)


# The conditions of each variant, in the order of their residuals.  The
# set conditions in_feasible_set (x in S), in_X1 (x in X1(lambda)) and
# constraints_feasible (every g_i(x) <= 0) are masks, from
# kkt._masks.  docs/theorems.md states every condition as a formula.
_CONDITIONS = {
    CharacVariant.SHAT1: ("in_feasible_set", "anchor_dot_zero", "same_direction", "nonzero_gradient"),
    CharacVariant.SHAT2: ("in_feasible_set", "anchor_dot_at_most", "same_direction", "nonzero_gradient"),
    CharacVariant.STILDE: ("in_feasible_set", "zero_gradient"),
    CharacVariant.S1: ("in_feasible_set", "point_dot_zero", "nonzero_gradient"),
    CharacVariant.S2: ("in_feasible_set", "point_dot_at_least", "nonzero_gradient"),
    CharacVariant.S3: ("in_feasible_set", "dot_gap_zero", "nonzero_gradient"),
    CharacVariant.S4: ("in_feasible_set", "dot_gap_at_least", "nonzero_gradient"),
    CharacVariant.S5: ("in_feasible_set", "point_dot_zero", "anchor_dot_zero", "nonzero_gradient"),
    CharacVariant.THAT1: ("in_feasible_set", "anchor_dot_zero", "positive_factor"),
    CharacVariant.THAT2: ("in_feasible_set", "anchor_dot_at_most", "positive_factor"),
    CharacVariant.T1: ("in_feasible_set", "point_dot_zero"),
    CharacVariant.T2: ("in_feasible_set", "point_dot_at_least"),
    CharacVariant.T3: ("in_feasible_set", "dot_gap_zero"),
    CharacVariant.T4: ("in_feasible_set", "dot_gap_at_least"),
    CharacVariant.T5: ("in_feasible_set", "point_dot_zero", "anchor_dot_zero"),
}
# A primed variant is its plain base's set within X1(lambda) and {g <= 0}.
_CONDITIONS.update(
    (primed, ("in_X1", *_CONDITIONS[base], "constraints_feasible"))
    for primed, base in (
        (CharacVariant.SHATP1, CharacVariant.SHAT1),
        (CharacVariant.SHATP2, CharacVariant.SHAT2),
        (CharacVariant.SP1, CharacVariant.S1),
        (CharacVariant.SP2, CharacVariant.S2),
        (CharacVariant.SP3, CharacVariant.S3),
        (CharacVariant.SP4, CharacVariant.S4),
        (CharacVariant.SP5, CharacVariant.S5),
    )
)
# A double-primed variant does not test x in S: it is stated for an open
# ground set.
_CONDITIONS[CharacVariant.SHATPP1] = (
    "in_X1", "active_dots_zero", "nonzero_gradient", "same_unit_gradient"
)
_CONDITIONS[CharacVariant.SHATPP2] = (
    "in_X1", "active_dots_at_least", "nonzero_gradient", "same_unit_gradient"
)

# The anchor is a member of every variant's set, so a variant whose
# members need a nonzero gradient needs one at the anchor.
_NEEDS_ANCHOR_GRADIENT = {v for v, names in _CONDITIONS.items() if "nonzero_gradient" in names}


def _cosine_distance(G, gnorm, g0, g0norm):
    """1 - cos of the angle between g0 and each gradient, the columns of G
    (or one vector), given the norms of both."""
    return 1.0 - _dot(G, g0) / (gnorm * g0norm)


class _Rows:
    """The conditions of the characterizations, decided at N points at once.

    X holds the points as rows and G their gradients; the anchor's record
    (kkt._anchor_record) gives the anchor xb and its gradient g0.  sets
    maps each set condition to the mask of the points in its set, and
    active lists (i, grad g_i(xb)) for the strict-multiplier constraints
    i.  One point and its gradient can be given as vectors instead: every
    column is then a scalar.  Each condition returns its (residual name,
    value, verdict, shown) entries, in order, where shown marks the points
    whose residual is reported, and decided keeps them by condition name.
    """

    def __init__(self, X: np.ndarray, G: np.ndarray, anchor, sets: Dict[str, object],
                 cfg: Config, active: Sequence = ()):
        self.d = (X - anchor.xb).T
        self.G, self.sets, self.cfg, self.active, self.decided = G.T, sets, cfg, active, {}
        self.gnorm, (self.g0, self.g0norm) = _norm(self.G), anchor.gradient
        anchor_dot = _dot(self.g0, self.d)   # grad f(xbar) . (x - xbar)
        point_dot = _dot(self.G, -self.d)    # grad f(x) . (xbar - x)
        self.values = {
            "anchor_gradient_dot": anchor_dot,
            "point_gradient_dot": point_dot,
            "dot_gap": point_dot - anchor_dot,
            "gradient_norm": self.gnorm,
        }

    def freeze(self, arrays=None) -> "_Rows":
        """The rows, with every array they hold (or the arrays given) made read-only."""
        for a in (self.d, *self.values.values(), *self.sets.values()) if arrays is None else arrays:
            np.asarray(a).flags.writeable = False  # a set mask may be the bool True
        return self

    def threshold(self, name: str, value, form, limit: float, above: bool = False) -> tuple:
        """The entry of form(value) > limit if above, else form(value) <= limit."""
        t = form(value)
        return name, value, t > limit if above else t <= limit, True

    def decide(self, variant: CharacVariant):
        """The variant's verdict, the AND of its row's conditions, and
        their entries in order.  A condition that raises is not kept."""
        for name in _CONDITIONS[variant]:
            if name not in self.decided:
                entries = self.decided[name] = _DECIDE[name](self, self.cfg)
                if not self.d.flags.writeable:  # frozen rows keep read-only entries
                    self.freeze(a for _, *arrays in entries for a in arrays)
        entries = [e for name in _CONDITIONS[variant] for e in self.decided[name]]
        return functools.reduce(operator.and_, (ok for _, _, ok, _ in entries)), entries

    def in_set(self, name: str) -> list:
        """The caller's mask of the points in the set; reads 0 in it, 1 out."""
        mask = self.sets[name]
        return [(name, np.where(mask, 0.0, 1.0), mask, True)]

    def same_direction(self, cfg: Config) -> list:
        """Nonzero gradients at the point and at the anchor, at cosine
        distance at most eps_dir; the distance reads 2 where a gradient
        is zero."""
        small = (self.gnorm <= cfg.eps_grad) | (self.g0norm <= cfg.eps_grad)
        cd = np.where(small, 2.0, _cosine_distance(self.G, self.gnorm, self.g0, self.g0norm))
        return [("cosine_distance", cd, ~small & (cd <= cfg.eps_dir), True)]

    def same_unit_gradient(self, cfg: Config) -> list:
        """Cosine distance at most eps_dir from the anchor gradient,
        reported only where the gradient at the point is nonzero."""
        cd = _cosine_distance(self.G, self.gnorm, self.g0, self.g0norm)
        return [("cosine_distance", cd, cd <= cfg.eps_dir, self.gnorm > cfg.eps_grad)]

    def positive_factor(self, cfg: Config) -> list:
        """Both gradients zero, or grad f(x) = p grad f(xbar) with p > 0
        (collinearity_factor's test)."""
        zero, zero0 = self.gnorm <= cfg.eps_grad, self.g0norm <= cfg.eps_grad
        factor, gap = _collinearity(self.g0, self.G)
        found = ~zero & ~zero0 & ~(factor <= 0.0) & ~(gap > cfg.eps_dir * self.gnorm)
        holds = (zero & zero0) | found
        return [("collinearity_gap", np.where(holds, 0.0, np.inf), holds, True),
                ("collinearity_factor", factor, True, found)]

    def active_dots(self, form, cfg: Config) -> list:
        """form(grad g_i(xbar) . (x - xbar)) <= eps_feas for each
        strict-multiplier constraint i."""
        return [self.threshold(f"active_gradient_dot_{i}", _dot(gi, self.d), form, cfg.eps_feas)
                for i, gi in self.active]


def _threshold(key: str, form, tol: str, above: bool = False):
    """The condition form(values[key]) <= cfg.tol, or > it if above.  The
    forms apply to floats and to numpy arrays alike."""
    return lambda rows, cfg: [rows.threshold(key, rows.values[key], form, getattr(cfg, tol), above)]


# condition name -> how _Rows decides it
_DECIDE = {
    **{name: lambda rows, cfg, name=name: rows.in_set(name)
       for name in ("in_feasible_set", "in_X1", "constraints_feasible")},
    "anchor_dot_zero": _threshold("anchor_gradient_dot", abs, "eps_feas"),
    "anchor_dot_at_most": _threshold("anchor_gradient_dot", operator.pos, "eps_feas"),
    "point_dot_zero": _threshold("point_gradient_dot", abs, "eps_feas"),
    "point_dot_at_least": _threshold("point_gradient_dot", operator.neg, "eps_feas"),
    "dot_gap_zero": _threshold("dot_gap", abs, "eps_feas"),
    "dot_gap_at_least": _threshold("dot_gap", operator.neg, "eps_feas"),
    "zero_gradient": _threshold("gradient_norm", operator.pos, "eps_grad"),
    "nonzero_gradient": _threshold("gradient_norm", operator.pos, "eps_grad", above=True),
    "same_direction": _Rows.same_direction,
    "same_unit_gradient": _Rows.same_unit_gradient,
    "positive_factor": _Rows.positive_factor,
    "active_dots_zero": lambda rows, cfg: rows.active_dots(abs, cfg),
    "active_dots_at_least": lambda rows, cfg: rows.active_dots(operator.neg, cfg),
}


def enumerate_solution_set(
    p: Problem,
    xbar,
    variant: CharacVariant,
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> List[tuple]:
    """Grid points of the domain window whose membership verdict is positive."""
    return _enumerate(p, xbar, None, variant, resolution, cfg)


# The one decision path of all 24 variants.  lam is None for a plain
# variant, and a plain problem is the case with no constraints.

def _check_kind(p, lam, variant: CharacVariant) -> None:
    """Refuse a problem or variant of the other kind: without a multiplier,
    a plain problem and a plain variant; with one, a multiplier variant."""
    if lam is None and isinstance(p, ConstrainedProblem):
        raise InputError("a constrained problem needs a multiplier; use kkt.enumerate_constrained")
    if lam is None and variant.requires_multiplier:
        raise InputError(f"{variant.value} needs a multiplier; use kkt.membership_constrained")
    if lam is not None and not variant.requires_multiplier:
        raise InputError(f"{variant.value} needs no multiplier; use charac.membership or "
                         "charac.enumerate_solution_set")


def _anchor(p, xbar, lam, variant: CharacVariant, cfg: Config, anchor=None):
    """Check every anchor hypothesis of the variant, in order, and return
    the anchor's record (kkt._anchor_record, unless the caller holds it),
    its strict-multiplier indices and (i, grad g_i(xb)) for each of them."""
    anchor = _checked(kkt._anchor_record(p, xbar, cfg) if anchor is None else anchor, variant, cfg)
    tilde = () if lam is None else anchor.active_set(lam).strictly_positive
    # a row that does not test x in S is stated for an open ground set
    if "in_feasible_set" not in _CONDITIONS[variant] and p.ground_set.atoms:
        raise NotOpenGroundSetError(
            "double-primed variants need an open (unconstrained) ground set"
        )
    return anchor, tilde, anchor.active(tilde)


def _decide(p, xbar, lam, x, variant: CharacVariant, cfg: Config) -> MembershipVerdict:
    """The verdict and residuals of one point."""
    _check_kind(p, lam, variant)
    anchor, tilde, active = _anchor(p, xbar, lam, variant, cfg)
    xv = as_point(x, p.dimension)
    # no constraint is evaluated outside the ground set, as on the grid
    in_S = contains(p.ground_set, xv, cfg.eps_feas)
    values = np.array([evaluate(g, xv) for g in p.constraints if in_S])
    sets = kkt._masks(in_S, values, tilde, cfg)
    g = grad(p.objective, xv, p.dimension)
    with np.errstate(all="ignore"):
        member, entries = _Rows(xv, g, anchor, sets, cfg, active).decide(variant)
    residuals = {name: float(value) for name, value, _, shown in entries if shown}
    return MembershipVerdict(tuple(float(c) for c in xv), variant, bool(member), residuals)


def _enumerate(p, xbar, lam, variant: CharacVariant, resolution: int, cfg: Config) -> List[tuple]:
    """The rows of p's feasible grid (kkt._grid) in the variant's set, as
    tuples in grid order."""
    grid, member = _members(p, xbar, lam, variant, resolution, cfg)
    return list(map(tuple, grid.X[member].tolist()))


def _members(p, xbar, lam, variant: CharacVariant, resolution: int, cfg: Config, anchor=None):
    """p's feasible grid and the mask of its rows in the variant's set.
    The kind is checked before the grid is read; an empty grid checks no
    anchor.  anchor is the anchor's record, if the caller holds it."""
    _check_kind(p, lam, variant)
    grid = kkt._grid(p, resolution, cfg)
    if not len(grid.X):
        return grid, np.zeros(0, dtype=bool)
    anchor, tilde, active = _anchor(p, xbar, lam, variant, cfg, anchor)
    with np.errstate(all="ignore"):
        # the masks (every row is in S), base columns and decided conditions
        # do not depend on the variant: kept on the grid per anchor record and tilde
        rows = grid.derived((anchor, tilde), lambda: _Rows(
            grid.X, grid.gradients, anchor, kkt._masks(True, grid.C, tilde, cfg), cfg, active).freeze())
        member, _ = rows.decide(variant)
    return grid, member
