"""Solution-set characterizations from a known solution.

Implements the gradient dichotomy classifier, the condition table of all
24 characterization variants (the hat/tilde/numbered S-families, the
T-families and their primed and double-primed multiplier forms), the
membership predicates and windowed enumeration of the 15 plain variants.
One decision path decides every variant; kkt's multiplier functions call
it too.
"""

from __future__ import annotations

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
from .expr import _at, _dot, _norm, grad, grad_many
from .sets import contains_many


_PAIRS = 1 << 16  # the most solution pairs classify_dichotomy compares at once


def classify_dichotomy(
    p: Problem, known_solutions: Sequence, cfg: Config = DEFAULT_CONFIG
) -> DichotomyReport:
    """Classify the solution set by the gradient dichotomy.

    Alternative I: every inspected gradient is nonzero and the gradients
    agree pairwise; II: every gradient is zero.  A mix raises
    InconsistentDichotomyError at the first failing pair (docs/theorems.md).
    """
    if not len(known_solutions):
        raise ValueError("need at least one known solution")
    # one conversion; where it fails, as_point reads the points one by one,
    # so that the first bad point raises its own error
    try:
        X = np.asarray(known_solutions, dtype=float)
        read = X.ndim == 2 and X.shape[1] == p.dimension and np.isfinite(X).all()
    except (ValueError, TypeError, OverflowError):
        read = False
    if not read:
        X = np.array([as_point(x, p.dimension) for x in known_solutions])
    outside = ~contains_many(p.feasible_set, X, cfg.eps_feas)
    if outside.any():
        raise ValueError(f"claimed solution {_at(X[outside.argmax()])} is not feasible")
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
    xb = as_point(xbar, p.dimension)
    kkt._feasible_anchor(p, xb, cfg)
    g0 = grad(p.objective, xb, p.dimension)
    if variant in _NEEDS_ANCHOR_GRADIENT and _norm(g0) <= cfg.eps_grad:
        raise HypothesisViolatedError(
            f"variant {variant.value} requires a nonzero gradient at the anchor"
        )
    return g0


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

    X holds the points as rows and G their gradients, and g0 is the
    gradient at the anchor xb.  sets maps each set condition to the mask
    of the points in its set, and active lists (i, grad g_i(xb)) for the
    strict-multiplier constraints i.  One point and its gradient can be
    given as vectors instead: every column is then a scalar, and point()
    gives the residuals of that point.  Each condition adds its
    residuals, in order, and its verdict to member.
    """

    def __init__(self, X: np.ndarray, G: np.ndarray, xb: np.ndarray, g0: np.ndarray,
                 sets: Dict[str, object], active: Sequence = ()):
        self.d = (X - xb).T
        self.G, self.g0, self.sets, self.active = G.T, g0, sets, active
        self.gnorm, self.g0norm = _norm(self.G), _norm(g0)
        anchor_dot = _dot(g0, self.d)        # grad f(xbar) . (x - xbar)
        point_dot = _dot(self.G, -self.d)    # grad f(x) . (xbar - x)
        self.values = {
            "anchor_gradient_dot": anchor_dot,
            "point_gradient_dot": point_dot,
            "dot_gap": point_dot - anchor_dot,
            "gradient_norm": self.gnorm,
        }
        self.member = np.ones(X.shape[:-1], dtype=bool)
        self.residuals: Dict[str, object] = {}
        self.shown: Dict[str, object] = {}  # residual -> where it is reported

    def report(self, name: str, value, ok, shown=None) -> None:
        self.residuals[name] = value
        self.member &= ok
        if shown is not None:
            self.shown[name] = shown

    def threshold(self, name: str, value, form, limit: float, above: bool = False) -> None:
        """form(value) > limit if above, else form(value) <= limit."""
        t = form(value)
        self.report(name, value, t > limit if above else t <= limit)

    def decide(self, variant: CharacVariant, cfg: Config) -> "_Rows":
        for name in _CONDITIONS[variant]:
            _DECIDE[name](self, cfg)
        return self

    def in_set(self, name: str) -> None:
        """The caller's mask of the points in the set; reads 0 in it, 1 out."""
        mask = self.sets[name]
        self.report(name, np.where(mask, 0.0, 1.0), mask)

    def cosine_distance(self):
        return _cosine_distance(self.G, self.gnorm, self.g0, self.g0norm)

    def same_direction(self, cfg: Config) -> None:
        """Nonzero gradients at the point and at the anchor, at cosine
        distance at most eps_dir; the distance reads 2 where a gradient
        is zero."""
        small = (self.gnorm <= cfg.eps_grad) | (self.g0norm <= cfg.eps_grad)
        cd = np.where(small, 2.0, self.cosine_distance())
        self.report("cosine_distance", cd, ~small & (cd <= cfg.eps_dir))

    def same_unit_gradient(self, cfg: Config) -> None:
        """Cosine distance at most eps_dir from the anchor gradient,
        reported only where the gradient at the point is nonzero."""
        cd = self.cosine_distance()
        self.report("cosine_distance", cd, cd <= cfg.eps_dir, shown=self.gnorm > cfg.eps_grad)

    def positive_factor(self, cfg: Config) -> None:
        """Both gradients zero, or grad f(x) = p grad f(xbar) with p > 0
        (collinearity_factor's test)."""
        zero, zero0 = self.gnorm <= cfg.eps_grad, self.g0norm <= cfg.eps_grad
        factor, gap = _collinearity(self.g0, self.G)
        found = ~zero & ~zero0 & ~(factor <= 0.0) & ~(gap > cfg.eps_dir * self.gnorm)
        holds = (zero & zero0) | found
        self.report("collinearity_gap", np.where(holds, 0.0, np.inf), holds)
        self.report("collinearity_factor", factor, True, shown=found)

    def active_dots(self, form, cfg: Config) -> None:
        """form(grad g_i(xbar) . (x - xbar)) <= eps_feas for each
        strict-multiplier constraint i."""
        for i, gi in self.active:
            self.threshold(f"active_gradient_dot_{i}", _dot(gi, self.d), form, cfg.eps_feas)

    def point(self) -> Dict[str, float]:
        """The residuals of the one point the columns are scalars of."""
        return {
            name: float(value) for name, value in self.residuals.items()
            if self.shown.get(name, True)
        }


def _threshold(key: str, form, tol: str, above: bool = False):
    """The condition form(values[key]) <= cfg.tol, or > it if above.  The
    forms apply to floats and to numpy arrays alike."""
    return lambda rows, cfg: rows.threshold(key, rows.values[key], form, getattr(cfg, tol), above)


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
    _check_kind(p, None, variant)
    return _enumerate(p, xbar, None, variant, kkt._grid(p, resolution, cfg), cfg)


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


def _anchor(p, xbar, lam, variant: CharacVariant, cfg: Config):
    """Check every anchor hypothesis of the variant, in order, and return
    the anchor as a point, its objective gradient, its strict-multiplier
    indices and (i, grad g_i(xb)) for each of them."""
    xb = as_point(xbar, p.dimension)
    g0 = check_anchor_hypothesis(p, xb, variant, cfg)
    tilde = () if lam is None else kkt.strict_index_set(p, xb, lam, cfg)
    # a row that does not test x in S is stated for an open ground set
    if "in_feasible_set" not in _CONDITIONS[variant] and p.ground_set.atoms:
        raise NotOpenGroundSetError(
            "double-primed variants need an open (unconstrained) ground set"
        )
    active = [(i, grad(p.constraints[i], xb, p.dimension)) for i in tilde]
    return xb, g0, tilde, active


def _decide(p, xbar, lam, x, variant: CharacVariant, cfg: Config) -> MembershipVerdict:
    """The verdict and residuals of one point, on the scalar path."""
    _check_kind(p, lam, variant)
    xb, g0, tilde, active = _anchor(p, xbar, lam, variant, cfg)
    xv = as_point(x, p.dimension)
    sets = kkt._masks(p, xv, tilde, cfg)
    g = grad(p.objective, xv, p.dimension)
    with np.errstate(all="ignore"):
        rows = _Rows(xv, g, xb, g0, sets, active).decide(variant, cfg)
    return MembershipVerdict(tuple(float(c) for c in xv), variant, bool(rows.member), rows.point())


def _enumerate(p, xbar, lam, variant: CharacVariant, grid, cfg: Config) -> List[tuple]:
    """The rows of the feasible grid record grid (kkt._grid) in the
    variant's set, as tuples in grid order.  The caller checks the kind
    first; an empty grid returns [] and checks nothing."""
    if not len(grid.X):
        return []
    xb, g0, tilde, active = _anchor(p, xbar, lam, variant, cfg)
    with np.errstate(all="ignore"):
        rows = _Rows(grid.X, grid.gradients(), xb, g0, kkt._masks(p, grid, tilde, cfg), active)
        return list(map(tuple, grid.X[rows.decide(variant, cfg).member].tolist()))
