"""Solution-set characterizations from a known solution.

Implements the gradient dichotomy classifier and the membership
predicates for the hat/tilde/numbered S-families and the T-families,
plus windowed enumeration and cross-variant agreement reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .alternatives import _collinearity
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, DichotomyReport, MembershipVerdict, Problem, as_point
from .errors import HypothesisViolatedError, InconsistentDichotomyError
from .expr import _dot, _norm, grad, grad_many
from .sets import contains, sample_grid


def _cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - float(a @ b) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))


def classify_dichotomy(
    p: Problem, known_solutions: Sequence, cfg: Config = DEFAULT_CONFIG
) -> DichotomyReport:
    """Classify the solution set by the gradient dichotomy.

    Alternative I: every inspected gradient is nonzero and the normalized
    gradients agree pairwise; II: every gradient is zero.  A mix raises
    InconsistentDichotomyError (bad inputs or miscalibrated tolerances).
    """
    if not known_solutions:
        raise ValueError("need at least one known solution")
    pts = [as_point(x, p.dimension) for x in known_solutions]
    for x in pts:
        if not contains(p.feasible_set, x, cfg.eps_feas):
            raise ValueError(f"claimed solution {tuple(x)} is not feasible")
    grads = [grad(p.objective, x, p.dimension) for x in pts]
    norms = [float(np.linalg.norm(g)) for g in grads]
    witnesses = tuple((tuple(float(v) for v in x), nrm) for x, nrm in zip(pts, norms))

    if all(nrm <= cfg.eps_grad for nrm in norms):
        return DichotomyReport("II", None, witnesses)
    if any(nrm <= cfg.eps_grad for nrm in norms):
        raise InconsistentDichotomyError(
            "solutions mix zero and nonzero gradients; inputs are not all "
            "minimizers or tolerances are miscalibrated"
        )
    units = [g / nrm for g, nrm in zip(grads, norms)]
    for i in range(len(units)):
        for j in range(i + 1, len(units)):
            if _cosine_distance(units[i], units[j]) > cfg.eps_dir:
                raise InconsistentDichotomyError(
                    f"normalized gradients at {tuple(pts[i])} and "
                    f"{tuple(pts[j])} differ beyond tolerance"
                )
    mean = np.mean(units, axis=0)
    common = mean / np.linalg.norm(mean)
    return DichotomyReport("I", tuple(float(c) for c in common), witnesses)


def check_anchor_hypothesis(
    p: Problem, xbar, variant: CharacVariant, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Validate the anchor point and return its gradient."""
    xb = as_point(xbar, p.dimension)
    if not contains(p.feasible_set, xb, cfg.eps_feas):
        raise HypothesisViolatedError(f"anchor {tuple(xb)} is not feasible")
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
    xb, g0 = _plain_anchor(p, xbar, variant, cfg)
    xv = as_point(x, p.dimension)
    in_S = contains(p.feasible_set, xv, cfg.eps_feas)
    return _verdict(p, xb, g0, xv, variant, in_S, cfg)


def _plain_anchor(p: Problem, xbar, variant: CharacVariant, cfg: Config):
    """A plain variant's anchor as a point, and its checked gradient."""
    if variant not in _CONDITIONS:
        raise ValueError(
            f"{variant.value} needs a multiplier; use kkt.membership_constrained"
        )
    return as_point(xbar, p.dimension), check_anchor_hypothesis(p, xbar, variant, cfg)


# The conditions of each plain variant, in the order of their residuals.
_CONDITIONS = {
    CharacVariant.SHAT1: ("anchor_dot_zero", "same_direction", "nonzero_gradient"),
    CharacVariant.SHAT2: ("anchor_dot_at_most", "same_direction", "nonzero_gradient"),
    CharacVariant.STILDE: ("zero_gradient",),
    CharacVariant.S1: ("point_dot_zero", "nonzero_gradient"),
    CharacVariant.S2: ("point_dot_at_least", "nonzero_gradient"),
    CharacVariant.S3: ("dot_gap_zero", "nonzero_gradient"),
    CharacVariant.S4: ("dot_gap_at_least", "nonzero_gradient"),
    CharacVariant.S5: ("point_dot_zero", "anchor_dot_zero", "nonzero_gradient"),
    CharacVariant.THAT1: ("anchor_dot_zero", "positive_factor"),
    CharacVariant.THAT2: ("anchor_dot_at_most", "positive_factor"),
    CharacVariant.T1: ("point_dot_zero",),
    CharacVariant.T2: ("point_dot_at_least",),
    CharacVariant.T3: ("dot_gap_zero",),
    CharacVariant.T4: ("dot_gap_at_least",),
    CharacVariant.T5: ("point_dot_zero", "anchor_dot_zero"),
}

# The anchor is a member of every variant's set, so a variant whose
# members need a nonzero gradient needs one at the anchor.
_NEEDS_ANCHOR_GRADIENT = {v for v, names in _CONDITIONS.items() if "nonzero_gradient" in names}

# Threshold conditions: name -> (residual, form, tolerance, above).  The
# condition holds when form(residual) <= the tolerance, or > it if above.
# The forms apply to floats and to numpy arrays alike.
_THRESHOLDS = {
    "anchor_dot_zero": ("anchor_gradient_dot", abs, "eps_feas", False),
    "anchor_dot_at_most": ("anchor_gradient_dot", operator.pos, "eps_feas", False),
    "point_dot_zero": ("point_gradient_dot", abs, "eps_feas", False),
    "point_dot_at_least": ("point_gradient_dot", operator.neg, "eps_feas", False),
    "dot_gap_zero": ("dot_gap", abs, "eps_feas", False),
    "dot_gap_at_least": ("dot_gap", operator.neg, "eps_feas", False),
    "zero_gradient": ("gradient_norm", operator.pos, "eps_grad", False),
    "nonzero_gradient": ("gradient_norm", operator.pos, "eps_grad", True),
}


def _verdict(
    p: Problem,
    xb: np.ndarray,
    g0: np.ndarray,
    xv: np.ndarray,
    variant: CharacVariant,
    in_S: bool,
    cfg: Config,
) -> MembershipVerdict:
    """The variant's conditions at xv, given the validated anchor xb with
    its gradient g0 and the feasibility in_S of xv."""
    g = grad(p.objective, xv, p.dimension)
    with np.errstate(all="ignore"):
        rows = _Rows(xv, g, xb, g0).decide(variant, cfg)
    residuals = {"in_feasible_set": 0.0 if in_S else 1.0, **rows.point()}
    return MembershipVerdict(
        tuple(float(c) for c in xv), variant, bool(in_S and rows.member), residuals
    )


class _Rows:
    """The conditions of the characterizations, decided at N points at once.

    X holds the points as rows and G their gradients, and g0 is the
    gradient at the anchor xb.  One point and its gradient can be given
    as vectors instead: every column is then a scalar, and point() gives
    the residuals of that point.  Each condition adds its residuals, in
    order, and its verdict to member.
    """

    def __init__(self, X: np.ndarray, G: np.ndarray, xb: np.ndarray, g0: np.ndarray):
        d = (X - xb).T
        self.G, self.g0 = G.T, g0
        self.gnorm, self.g0norm = _norm(self.G), _norm(g0)
        anchor_dot = _dot(g0, d)        # grad f(xbar) . (x - xbar)
        point_dot = _dot(self.G, -d)    # grad f(x) . (xbar - x)
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
            if name == "same_direction":
                self.same_direction(cfg)
            elif name == "positive_factor":
                self.positive_factor(cfg)
            else:
                key, form, tol, above = _THRESHOLDS[name]
                self.threshold(key, self.values[key], form, getattr(cfg, tol), above)
        return self

    def cosine_distance(self):
        return 1.0 - _dot(self.G, self.g0) / (self.gnorm * self.g0norm)

    def same_direction(self, cfg: Config) -> None:
        """Nonzero gradients at the point and at the anchor, at cosine
        distance at most eps_dir; the distance reads 2 where a gradient
        is zero."""
        small = (self.gnorm <= cfg.eps_grad) | (self.g0norm <= cfg.eps_grad)
        cd = np.where(small, 2.0, self.cosine_distance())
        self.report("cosine_distance", cd, ~small & (cd <= cfg.eps_dir))

    def positive_factor(self, cfg: Config) -> None:
        """Both gradients zero, or grad f(x) = p grad f(xbar) with p > 0
        (collinearity_factor's test)."""
        zero, zero0 = self.gnorm <= cfg.eps_grad, self.g0norm <= cfg.eps_grad
        factor, gap = _collinearity(self.g0, self.G)
        found = ~zero & ~zero0 & ~(factor <= 0.0) & ~(gap > cfg.eps_dir * self.gnorm)
        holds = (zero & zero0) | found
        self.report("collinearity_gap", np.where(holds, 0.0, np.inf), holds)
        self.report("collinearity_factor", factor, True, shown=found)

    def point(self) -> Dict[str, float]:
        """The residuals of the one point the columns are scalars of."""
        return {
            name: float(value) for name, value in self.residuals.items()
            if self.shown.get(name, True)
        }


def _enumerate(X: np.ndarray, members) -> List[tuple]:
    """The rows of the (N, n) array X that members(X) marks, as tuples."""
    if not len(X):
        return []
    with np.errstate(all="ignore"):
        return list(map(tuple, X[members(X)].tolist()))


def _enumerate_grid(p: Problem, xb, g0, variant: CharacVariant, X: np.ndarray, cfg: Config):
    """The rows of the feasible grid X in the variant's set; xb, g0 from _plain_anchor."""

    def members(X):
        return _Rows(X, grad_many(p.objective, X, p.dimension), xb, g0).decide(variant, cfg).member

    return _enumerate(X, members)


def enumerate_solution_set(
    p: Problem,
    xbar,
    variant: CharacVariant,
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> List[tuple]:
    """Grid points of the domain window whose membership verdict is positive."""
    xb, g0 = _plain_anchor(p, xbar, variant, cfg)
    # sample_grid keeps exactly the points that contains() accepts at eps_feas
    X = sample_grid(p.feasible_set, p.domain_window, resolution, cfg.eps_feas)
    return _enumerate_grid(p, xb, g0, variant, X, cfg)


@dataclass(frozen=True)
class AgreementReport:
    agree: bool
    sets: Dict[str, tuple]
    differences: Dict[str, tuple]  # "V1/V2" -> (only_in_v1, only_in_v2)


def variant_agreement(
    p: Problem,
    xbar,
    variants: Sequence[CharacVariant],
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> AgreementReport:
    """Pairwise symmetric differences of enumerated sets."""
    enumerated = {
        v.value: tuple(enumerate_solution_set(p, xbar, v, resolution, cfg))
        for v in variants
    }
    diffs: Dict[str, tuple] = {}
    agree = True
    names = [v.value for v in variants]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            sa, sb = set(enumerated[a]), set(enumerated[b])
            only_a = tuple(sorted(sa - sb))
            only_b = tuple(sorted(sb - sa))
            if only_a or only_b:
                agree = False
                diffs[f"{a}/{b}"] = (only_a, only_b)
    return AgreementReport(agree, enumerated, diffs)


def convex_gradient_constancy(
    p: Problem, xbar, solutions: Sequence, cfg: Config = DEFAULT_CONFIG
) -> bool:
    """For convex f the gradient is constant over the solution set."""
    xb = as_point(xbar, p.dimension)
    g0 = grad(p.objective, xb, p.dimension)
    scale = cfg.eps_dir * (1.0 + float(np.linalg.norm(g0)))
    for x in solutions:
        g = grad(p.objective, as_point(x, p.dimension), p.dimension)
        if float(np.linalg.norm(g - g0)) > scale:
            return False
    return True
