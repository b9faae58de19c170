"""Solution-set characterizations from a known solution.

Implements the gradient dichotomy classifier and the membership
predicates for the hat/tilde/numbered S-families and the T-families,
plus windowed enumeration and cross-variant agreement reports.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .alternatives import collinearity_factor
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, DichotomyReport, MembershipVerdict, Problem, as_point
from .errors import HypothesisViolatedError, InconsistentDichotomyError, QcsolError
from .expr import _DOT_FLOOR, _DOT_SLACK, _row_dots, grad, grad_many
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


_NEEDS_ANCHOR_GRADIENT = {
    CharacVariant.SHAT1,
    CharacVariant.SHAT2,
    CharacVariant.S1,
    CharacVariant.S2,
    CharacVariant.S3,
    CharacVariant.S4,
    CharacVariant.S5,
}


def check_anchor_hypothesis(
    p: Problem, xbar, variant: CharacVariant, cfg: Config = DEFAULT_CONFIG
) -> np.ndarray:
    """Validate the anchor point and return its gradient."""
    xb = as_point(xbar, p.dimension)
    if not contains(p.feasible_set, xb, cfg.eps_feas):
        raise HypothesisViolatedError(f"anchor {tuple(xb)} is not feasible")
    g0 = grad(p.objective, xb, p.dimension)
    if variant in _NEEDS_ANCHOR_GRADIENT and np.linalg.norm(g0) <= cfg.eps_grad:
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
    _reject_multiplier_variant(variant)
    g0 = check_anchor_hypothesis(p, xbar, variant, cfg)
    xb = as_point(xbar, p.dimension)
    xv = as_point(x, p.dimension)
    in_S = contains(p.feasible_set, xv, cfg.eps_feas)
    return _verdict(p, xb, g0, xv, variant, in_S, cfg)


def _reject_multiplier_variant(variant: CharacVariant) -> None:
    if variant.requires_multiplier or variant in (
        CharacVariant.SHATPP1,
        CharacVariant.SHATPP2,
    ):
        raise ValueError(
            f"{variant.value} needs a multiplier; use kkt.membership_constrained"
        )


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
    g: Optional[np.ndarray] = None,
) -> MembershipVerdict:
    """The variant's conditions at xv, given the validated anchor xb with
    its gradient g0, the feasibility in_S of xv and, optionally, the
    gradient g at xv."""
    if g is None:
        g = grad(p.objective, xv, p.dimension)
    d = xv - xb
    if variant not in _CONDITIONS:
        raise ValueError(f"unhandled variant {variant!r}")

    gnorm = float(np.linalg.norm(g))
    g0norm = float(np.linalg.norm(g0))
    anchor_dot = float(g0 @ d)      # grad f(xbar) . (x - xbar)
    point_dot = float(g @ (-d))    # grad f(x) . (xbar - x)
    values = {
        "anchor_gradient_dot": anchor_dot,
        "point_gradient_dot": point_dot,
        "dot_gap": point_dot - anchor_dot,
        "gradient_norm": gnorm,
    }

    residuals: Dict[str, float] = {"in_feasible_set": 0.0 if in_S else 1.0}
    conds: List[bool] = [in_S]
    for name in _CONDITIONS[variant]:
        if name == "same_direction":
            if gnorm <= cfg.eps_grad or g0norm <= cfg.eps_grad:
                residuals["cosine_distance"] = 2.0
                conds.append(False)
            else:
                cd = _cosine_distance(g, g0)
                residuals["cosine_distance"] = cd
                conds.append(cd <= cfg.eps_dir)
        elif name == "positive_factor":
            # T-hat family: exists p > 0 with grad f(x) = p grad f(xbar).
            if g0norm <= cfg.eps_grad and gnorm <= cfg.eps_grad:
                residuals["collinearity_gap"] = 0.0
                conds.append(True)
            elif g0norm <= cfg.eps_grad or gnorm <= cfg.eps_grad:
                residuals["collinearity_gap"] = float("inf")
                conds.append(False)
            else:
                factor = collinearity_factor(g0, g, cfg)
                if factor is None:
                    residuals["collinearity_gap"] = float("inf")
                    conds.append(False)
                else:
                    residuals["collinearity_gap"] = 0.0
                    residuals["collinearity_factor"] = factor
                    conds.append(True)
        else:
            key, form, tol, above = _THRESHOLDS[name]
            residuals[key] = values[key]
            t, limit = form(values[key]), getattr(cfg, tol)
            conds.append(t > limit if above else t <= limit)

    return MembershipVerdict(tuple(float(c) for c in xv), variant, all(conds), residuals)


# The vectorized quantities below allow _DOT_SLACK of rounding relative to
# the sum of the magnitudes they are computed from, per vector component,
# and _DOT_FLOOR for underflow.  The direction conditions of rows whose
# gradient norms are below _TINY (whose squares may be subnormal) are left
# to the scalar verdict.
_TINY = 1e-140


class _Rows:
    """_verdict's conditions decided for the rows of X at once.

    The rows are all in the feasible set; G holds their gradients (rows of
    grad_many) and g0 the anchor xb's gradient.  A row holds when every
    condition holds clear of its rounding slack, and fails when one fails
    clear of it; any other row is undecided, left to the scalar verdict.
    """

    def __init__(self, X: np.ndarray, G: np.ndarray, xb: np.ndarray, g0: np.ndarray):
        n = X.shape[1]
        d = X - xb
        self.G, self.g0 = G, g0
        self.g0norm = float(np.linalg.norm(g0))
        self.gnorm = np.sqrt((G * G).sum(axis=1))
        self.gnorm_slack = _DOT_SLACK * n * self.gnorm + _DOT_FLOOR
        anchor_dot, anchor_slack = _row_dots(d, g0)
        point_dot, point_slack = _row_dots(G, -d)
        gap = point_dot - anchor_dot
        self.values = {
            "anchor_gradient_dot": (anchor_dot, anchor_slack),
            "point_gradient_dot": (point_dot, point_slack),
            "dot_gap": (gap, anchor_slack + point_slack + _DOT_SLACK * n * np.abs(gap)),
            "gradient_norm": (self.gnorm, self.gnorm_slack),
        }
        self.holds = np.ones(len(X), dtype=bool)
        self.fails = np.zeros(len(X), dtype=bool)

    def require(self, ok) -> None:
        """A condition decided exactly."""
        self.holds &= ok
        self.fails |= np.logical_not(ok)

    def compare(self, value, limit, slack, above: bool = False) -> None:
        """value > limit if above, else value <= limit, where value may lie
        up to slack from the scalar verdict's own rounding."""
        ok = value > limit if above else value <= limit
        clear = np.abs(value - limit) > slack
        self.holds &= ok & clear
        self.fails |= ~ok & clear

    def decide(self, variant: CharacVariant, cfg: Config) -> None:
        for name in _CONDITIONS[variant]:
            if name == "same_direction":
                self.same_direction(cfg)
            elif name == "positive_factor":
                self.positive_factor(cfg)
            else:
                key, form, tol, above = _THRESHOLDS[name]
                value, slack = self.values[key]
                self.compare(form(value), getattr(cfg, tol), slack, above)

    def same_direction(self, cfg: Config) -> None:
        """Nonzero gradients at the row and at the anchor, at cosine
        distance at most eps_dir."""
        self.require(self.g0norm > cfg.eps_grad)
        self.compare(self.gnorm, cfg.eps_grad, self.gnorm_slack, above=True)
        dots, slack = _row_dots(self.G, self.g0)
        scale = self.gnorm * self.g0norm
        cosine = 1.0 - dots / scale
        self.compare(cosine, cfg.eps_dir, 4 * _DOT_SLACK * len(self.g0) + slack / scale)
        self._unsure_if_tiny()

    def positive_factor(self, cfg: Config) -> None:
        """Both gradients zero, or grad f(x) = p grad f(xbar) with p > 0
        (collinearity_factor's test)."""
        if self.g0norm <= cfg.eps_grad:
            self.compare(self.gnorm, cfg.eps_grad, self.gnorm_slack)
            return
        n, g0 = len(self.g0), self.g0
        self.compare(self.gnorm, cfg.eps_grad, self.gnorm_slack, above=True)
        dots, slack = _row_dots(self.G, g0)
        g0g0 = np.dot(g0, g0)
        factor = dots / g0g0
        self.compare(factor, 0.0, slack / g0g0 + _DOT_SLACK * np.abs(factor), above=True)
        gap = np.sqrt(((self.G - factor[:, None] * g0) ** 2).sum(axis=1))
        scale = self.gnorm + np.abs(factor) * self.g0norm + gap
        self.compare(gap, cfg.eps_dir * self.gnorm, _DOT_SLACK * n * scale + _DOT_FLOOR)
        self._unsure_if_tiny()

    def _unsure_if_tiny(self) -> None:
        """Direction tests on gradients below _TINY go to the scalar verdict."""
        self.holds &= ~((self.gnorm < _TINY) | (self.g0norm < _TINY))

    def redecide(self, verdict) -> np.ndarray:
        """The member mask, each undecided row r decided by verdict(r)."""
        for r in np.flatnonzero(~(self.holds | self.fails)):
            self.holds[r] = verdict(r)
        return self.holds


def _enumerate(pts: Sequence[np.ndarray], batch, verdict) -> List[tuple]:
    """The points of pts with a positive verdict.

    batch(X) gives the member mask of the rows of X; when the points are
    not all finite, or batch raises an error that verdict can raise (a
    QcsolError, or the ValueError of a variant without an unconstrained
    base), every point gets its verdict(x) in turn, so that an error is
    the one, and comes where, the per-point definition raises it.
    """
    if not pts:
        return []
    X = np.array(pts, dtype=float)
    if np.all(np.isfinite(X)):
        try:
            with np.errstate(all="ignore"):
                member = batch(X)
        except (QcsolError, ValueError):  # the per-point path raises it, if real
            pass
        else:
            return [tuple(float(c) for c in x) for x in X[member]]
    verdicts = (verdict(x) for x in pts)
    return [v.point for v in verdicts if v.member]


def enumerate_solution_set(
    p: Problem,
    xbar,
    variant: CharacVariant,
    resolution: int,
    cfg: Config = DEFAULT_CONFIG,
) -> List[tuple]:
    """Grid points of the domain window whose membership verdict is positive."""
    _reject_multiplier_variant(variant)
    g0 = check_anchor_hypothesis(p, xbar, variant, cfg)
    xb = as_point(xbar, p.dimension)
    # sample_grid keeps exactly the points that contains() accepts at eps_feas
    pts = sample_grid(p.feasible_set, p.domain_window, resolution, cfg.eps_feas)

    def batch(X):
        G = grad_many(p.objective, X, p.dimension)
        rows = _Rows(X, G, xb, g0)
        rows.decide(variant, cfg)
        return rows.redecide(lambda r: _verdict(p, xb, g0, X[r], variant, True, cfg, G[r]).member)

    return _enumerate(
        pts, batch, lambda x: _verdict(p, xb, g0, as_point(x, p.dimension), variant, True, cfg)
    )


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
