"""Dichotomy classification and characterization membership."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcsol import charac, kkt, oracle, sets
from qcsol.charac import (
    check_anchor_hypothesis,
    classify_dichotomy,
    enumerate_solution_set,
    membership,
)
from qcsol.config import DEFAULT_CONFIG
from qcsol.core import CharacVariant, DichotomyReport, Problem, as_point
from qcsol.errors import (HypothesisViolatedError, InconsistentDichotomyError, InputError,
                          QcsolError)
from qcsol.expr import Const, Mul, _dot, _norm, grad as charac_grad, parse
from qcsol.registry import get_example
from qcsol.sets import Box, ConvexSetDescriptor, Halfspace, contains, sample_grid
from test_registry import EXAMPLE_NAMES

V = CharacVariant


class TestDichotomy:
    def test_alternative_one(self):
        e = get_example("ex2_1")
        pts = [(x1, 0.0) for x1 in np.linspace(1.0, 2.0, 5)]
        rep = classify_dichotomy(e.problem, pts)
        assert rep.alternative == "I"
        assert rep.common_unit_gradient == pytest.approx((0.0, 1.0))

    def test_alternative_two(self):
        e = get_example("ex2_4")
        pts = [(0.0, t) for t in (-2.0, -1.0, 0.0)]
        rep = classify_dichotomy(e.problem, pts)
        assert rep.alternative == "II"
        assert rep.common_unit_gradient is None

    def test_mixed_gradients_rejected(self):
        e = get_example("ex2_2")
        with pytest.raises(InconsistentDichotomyError):
            classify_dichotomy(e.problem, [(-1.0, 0.0), (0.0, 0.0)])

    @pytest.mark.parametrize("points", [[(1.0, 1.0)], [], [("bad",)]], ids=["point", "none", "bad"])
    def test_constrained_problem_refused_before_its_points(self, points):
        # the dichotomy is stated for a plain problem; a constrained one
        # has no feasible_set, which raised AttributeError
        with pytest.raises(InputError, match="stated for a plain problem"):
            classify_dichotomy(get_example("ex2_3_constrained").problem, points)


def _dichotomy_per_pair(p, solutions, cfg=DEFAULT_CONFIG):
    """classify_dichotomy one point and one pair at a time: contains and
    grad per point, then every pair (i, j), i < j, at the cosine distance
    1 - g_j . g_i / (|g_j| |g_i|)."""
    pts = [np.asarray(x, dtype=float) for x in solutions]
    for x in pts:
        if not contains(p.feasible_set, x, cfg.eps_feas):
            raise InputError(f"claimed solution {tuple(x.tolist())} is not feasible")
    grads = [charac_grad(p.objective, x, p.dimension) for x in pts]
    norms = [_norm(g) for g in grads]
    witnesses = tuple((tuple(x.tolist()), float(nrm)) for x, nrm in zip(pts, norms))
    if all(nrm <= cfg.eps_grad for nrm in norms):
        return DichotomyReport("II", None, witnesses)
    if any(nrm <= cfg.eps_grad for nrm in norms):
        raise InconsistentDichotomyError(
            "solutions mix zero and nonzero gradients; inputs are not all "
            "minimizers or tolerances are miscalibrated"
        )
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if 1.0 - _dot(grads[j], grads[i]) / (norms[j] * norms[i]) > cfg.eps_dir:
                raise InconsistentDichotomyError(
                    f"normalized gradients at {tuple(pts[i].tolist())} and "
                    f"{tuple(pts[j].tolist())} differ beyond tolerance"
                )
    mean = np.mean([g / nrm for g, nrm in zip(grads, norms)], axis=0)
    return DichotomyReport("I", tuple((mean / _norm(mean)).tolist()), witnesses)


_COEFFICIENTS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 1.0, 3.0])


@st.composite
def _dichotomy_cases(draw):
    """A linear or separable quadratic objective in 1-3 variables and 1-12
    points on a ray from a base point, each moved by noise of one scale;
    at scales near 1e-4 the gradients are near-parallel, at cosine
    distances around eps_dir.  The ground set is open or a halfspace that
    may cut some points off."""
    n = draw(st.integers(1, 3))
    coeffs = draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
    if draw(st.booleans()):
        text = " + ".join(f"({c})*x{i + 1}" for i, c in enumerate(coeffs))
    else:
        centers = draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))
        text = " + ".join(
            f"({abs(c)})*(x{i + 1} - ({u}))^2" for i, (c, u) in enumerate(zip(coeffs, centers))
        )
    base = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    ray = draw(st.lists(st.floats(-1, 1), min_size=n, max_size=n))
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 3e-5, 1e-4, 3e-4, 1e-1]))
    k = draw(st.integers(1, 12))
    ts = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=k, max_size=k))
    noise = draw(st.lists(st.floats(-1, 1), min_size=k * n, max_size=k * n))
    pts = [
        tuple(b + t * r + scale * noise[m * n + i] for i, (b, r) in enumerate(zip(base, ray)))
        for m, t in enumerate(ts)
    ]
    atoms = ()
    if draw(st.booleans()):
        atoms = (Halfspace(tuple(draw(st.lists(_COEFFICIENTS, min_size=n, max_size=n))),
                           draw(st.floats(-3, 3))),)
    window = Box((-10.0,) * n, (10.0,) * n)
    return Problem(parse(text, n), ConvexSetDescriptor(n, atoms), n, window), pts


@given(_dichotomy_cases())
@settings(max_examples=300, deadline=None)
def test_dichotomy_equals_the_per_pair_loop(case):
    p, pts = case
    got = _outcome(lambda: classify_dichotomy(p, pts))
    want = _outcome(lambda: _dichotomy_per_pair(p, pts))
    # the same alternative, witnesses and direction bytes, or the same error
    assert repr(got) == repr(want)


@given(_dichotomy_cases(), st.sampled_from([1, 2, 5, 13]))
@settings(max_examples=100, deadline=None)
def test_dichotomy_in_blocks_of_rows_equals_the_per_pair_loop(case, pairs):
    # at most pairs cosine distances per array: blocks of one row or more,
    # so the first failing pair may lie in any block
    p, pts = case
    with mock.patch.object(charac, "_PAIRS", pairs):
        got = _outcome(lambda: classify_dichotomy(p, pts))
    assert repr(got) == repr(_outcome(lambda: _dichotomy_per_pair(p, pts)))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "points",
    [
        [(1.0, 0.0), (1.5, 0.0)],
        np.array([[1.0, 0.0], [2.0, 0.0]]),
        [("1", "0"), ("1.5", "-0")],
        [(1.0, 0.0), (1.5, 0.0, 0.0)],
        [(1.0, _NAN), (1.5, 0.0, 0.0)],
        [(1.0, 0.0), (1.5, _NAN)],
        [(1.0, 0.0), (_INF, 0.0)],
        [(1.0, 0.0, 0.0), (1.5, 0.0, 0.0)],
        [(1.0, 0.0, 0.0), (_NAN, 0.0, 0.0)],
        (1.0, 0.0),
        [[(1.0, 0.0)]],
        ["10", "15"],
        [(1.0, 0.0), ("1,5", "0")],
        [(1.0, 0.0), (1j, 0.0)],
        [(1.0, 0.0), (10**400, 0)],
    ],
    ids=["tuples", "array", "numeric-strings", "ragged", "non-finite-then-ragged",
         "nan", "inf", "wrong-dimension", "wrong-dimension-then-nan", "flat-point",
         "nested", "strings", "bad-string", "complex", "huge-int"],
)
def test_dichotomy_reads_its_solutions_as_the_per_point_loop(points):
    # the one-array read falls back to as_point on each point, so the first
    # bad point raises what as_point raises at it, under the argument's name
    p = get_example("ex2_1").problem

    def outcome(fn):
        try:
            return fn()
        except Exception as exc:
            return type(exc), str(exc)

    got = outcome(lambda: classify_dichotomy(p, points))
    want = outcome(lambda: _dichotomy_per_pair(p, [as_point(x, 2, "known_solutions row") for x in points]))
    assert repr(got) == repr(want)


def _dichotomy_records():
    return {key: entry for key, entry in sets._KEPT.items() if key[0] == "dichotomy"}


def test_a_dichotomy_is_kept_per_problem_points_and_config(grid_work):
    p = get_example("ex2_1").problem
    pts = [(x1, 0.0) for x1 in np.linspace(1.0, 2.0, 5)]
    rep = classify_dichotomy(p, pts)
    assert rep == _dichotomy_per_pair(p, pts)
    # warm: the same points, in any form, read the report and take no gradients
    assert classify_dichotomy(p, np.array(pts)) is rep
    assert classify_dichotomy(p, [tuple(map(str, x)) for x in pts]) is rep
    assert grid_work["gradients"] == [5]
    # signed zeros and each config get their own record
    minus = classify_dichotomy(p, [(x1, -0.0) for x1, _ in pts])
    assert minus.witnesses[0][0] == (1.0, -0.0) and rep.witnesses[0][0] == (1.0, 0.0)
    other = classify_dichotomy(p, pts, replace(DEFAULT_CONFIG, seed=1))
    assert other == rep and other is not rep
    assert grid_work["gradients"] == [5, 5, 5]
    # each record counts its points as rows
    assert [sets._held(*entry) for entry in _dichotomy_records().values()] == [5, 5, 5]


@pytest.mark.parametrize("points,error", [
    ([(-1.0, 0.0), (0.0, 0.0)], InconsistentDichotomyError),
    ([(0.0, 0.0), (-5.0, 0.0)], InputError),
    ([], InputError),
], ids=["mixed", "infeasible", "none"])
def test_a_failing_dichotomy_raises_on_every_call(grid_work, points, error):
    p = get_example("ex2_2").problem
    messages = set()
    for _ in range(2):
        with pytest.raises(error) as info:
            classify_dichotomy(p, points)
        messages.add(str(info.value))
    assert len(messages) == 1 and _dichotomy_records() == {}


class TestAnchorHypothesis:
    def test_zero_gradient_blocks_s_variants(self):
        e = get_example("ex2_4")
        with pytest.raises(HypothesisViolatedError):
            check_anchor_hypothesis(e.problem, e.anchor, V.SHAT1)
        # the tilde variant accepts a vanishing gradient
        g = check_anchor_hypothesis(e.problem, e.anchor, V.STILDE)
        assert np.linalg.norm(g) <= 1e-8

    def test_infeasible_anchor(self):
        e = get_example("ex2_1")
        with pytest.raises(HypothesisViolatedError):
            check_anchor_hypothesis(e.problem, (0.0, 0.0), V.SHAT1)


class TestMembership:
    def test_shat1_verdicts(self):
        e = get_example("ex2_1")
        good = membership(e.problem, e.anchor, (1.5, 0.0), V.SHAT1)
        bad = membership(e.problem, e.anchor, (1.5, 1.0), V.SHAT1)
        assert good.member and not bad.member
        assert good.residuals["anchor_gradient_dot"] == pytest.approx(0.0, abs=1e-12)
        assert "cosine_distance" in good.residuals

    def test_stilde_requires_zero_gradient(self):
        e = get_example("ex2_4")
        assert membership(e.problem, e.anchor, (0.0, -1.0), V.STILDE).member
        assert not membership(e.problem, e.anchor, (1.0, 1.0), V.STILDE).member

    def test_that_accepts_two_zero_gradients(self):
        e = get_example("ex2_4")
        assert membership(e.problem, e.anchor, (0.0, -1.0), V.THAT1).member

    def test_infeasible_point_is_not_member(self):
        e = get_example("ex2_1")
        v = membership(e.problem, e.anchor, (1.0, 1.5), V.SHAT1)
        assert not v.member and v.residuals["in_feasible_set"] == 1.0


class TestEnumeration:
    def test_cubic_shat1(self):
        e = get_example("ex2_2")
        pts = enumerate_solution_set(e.problem, e.anchor, V.SHAT1, e.resolution)
        assert len(pts) == 13
        assert all(p[0] == pytest.approx(-1.0) for p in pts)

    def test_surd_s1_singleton(self):
        e = get_example("ex2_3")
        pts = enumerate_solution_set(e.problem, e.anchor, V.S1, e.resolution)
        assert pts == [(1.0, 1.0)]

    def test_quadrant_stilde(self):
        e = get_example("ex2_4")
        pts = enumerate_solution_set(e.problem, e.anchor, V.STILDE, e.resolution)
        assert {p for p in pts} == {(0.0, -2.0 + 0.25 * k) for k in range(9)}


UNCONSTRAINED = [
    name for name in EXAMPLE_NAMES if isinstance(get_example(name).problem, Problem)
]
# the variants membership() decides without a multiplier
PLAIN_VARIANTS = [
    v for v in V if not v.requires_multiplier and v not in (V.SHATPP1, V.SHATPP2)
]


@pytest.mark.parametrize("name", UNCONSTRAINED)
def test_enumeration_is_pointwise_membership(name):
    e = get_example(name)
    p = e.problem
    grid = sample_grid(p.feasible_set, p.domain_window, 9)
    for v in PLAIN_VARIANTS:
        try:
            expected = [
                tuple(float(c) for c in x)
                for x in grid
                if membership(p, e.anchor, x, v).member
            ]
        except HypothesisViolatedError:
            with pytest.raises(HypothesisViolatedError):
                enumerate_solution_set(p, e.anchor, v, 9)
            continue
        assert enumerate_solution_set(p, e.anchor, v, 9) == expected, v


def test_enumeration_errors():
    e = get_example("ex2_1")
    with pytest.raises(HypothesisViolatedError, match="not feasible"):
        enumerate_solution_set(e.problem, (0.0, 0.0), V.SHAT1, 9)
    q = get_example("ex2_4")
    with pytest.raises(HypothesisViolatedError, match="nonzero gradient"):
        enumerate_solution_set(q.problem, q.anchor, V.S1, 9)
    for v in (V.SHATP1, V.SHATPP1):
        with pytest.raises(ValueError, match="needs a multiplier"):
            enumerate_solution_set(e.problem, e.anchor, v, 9)
        with pytest.raises(ValueError, match="needs a multiplier"):
            membership(e.problem, e.anchor, (1.5, 0.0), v)


def test_empty_grid_checks_nothing():
    # no feasible node: the anchor, outside the set and with a zero
    # gradient, is never examined, as when every point was checked on its own
    p = Problem(parse("x1^2 + x2^2", 2), ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), -10.0),)),
                2, Box((-1.5, -1.5), (1.5, 1.5)))
    assert enumerate_solution_set(p, (0.0, 0.0), V.S1, 5) == []
    with pytest.raises(HypothesisViolatedError):
        membership(p, (0.0, 0.0), (0.0, 0.0), V.S1)


def test_variant_agreement_small_grid():
    e = get_example("ex2_1")
    variants = [V.SHAT1, V.SHAT2, V.S1, V.S2, V.S3, V.S4, V.S5]
    sets = {frozenset(enumerate_solution_set(e.problem, e.anchor, v, 9)) for v in variants}
    assert len(sets) == 1 and sets != {frozenset()}


def test_every_variant_has_one_row_of_known_conditions():
    assert len(charac._CONDITIONS) == len(V) and set(charac._CONDITIONS) == set(V)
    assert {name for row in charac._CONDITIONS.values() for name in row} <= set(charac._DECIDE)


PRIMED_BASES = {
    V.SHATP1: V.SHAT1, V.SHATP2: V.SHAT2,
    V.SP1: V.S1, V.SP2: V.S2, V.SP3: V.S3, V.SP4: V.S4, V.SP5: V.S5,
}


@pytest.mark.parametrize("primed", PRIMED_BASES, ids=lambda v: v.value)
def test_primed_row_holds_its_base_row(primed):
    # the nesting of the multiplier forms, S'_i within S_i and X1(lambda),
    # read off the table: a primed row tests every condition of its base
    row, base = charac._CONDITIONS[primed], charac._CONDITIONS[PRIMED_BASES[primed]]
    assert row == ("in_X1", *base, "constraints_feasible")


def test_rows_with_nonzero_gradient_need_it_at_the_anchor():
    want = {V.SHAT1, V.SHAT2, V.S1, V.S2, V.S3, V.S4, V.S5, *PRIMED_BASES, V.SHATPP1, V.SHATPP2}
    assert {v for v, names in charac._CONDITIONS.items() if "nonzero_gradient" in names} == want
    assert charac._NEEDS_ANCHOR_GRADIENT == want


def test_nesting_on_random_points():
    e = get_example("ex2_1")
    rng = np.random.default_rng(3)
    lo, hi = e.problem.domain_window.lo, e.problem.domain_window.hi
    for _ in range(50):
        x = tuple(rng.uniform(l, h) for l, h in zip(lo, hi))
        m = {v: membership(e.problem, e.anchor, x, v).member
             for v in (V.SHAT1, V.SHAT2, V.S1, V.S2, V.S3, V.S4, V.S5)}
        assert not m[V.SHAT1] or m[V.SHAT2]
        assert not m[V.S5] or (m[V.S1] and m[V.S3])
        assert not m[V.S1] or m[V.S2]
        assert not m[V.S3] or m[V.S4]


def _outcome(fn):
    try:
        return fn()
    except (QcsolError, ValueError) as exc:
        return type(exc), str(exc)


def _pointwise(p, anchor, variant, resolution, cfg=DEFAULT_CONFIG):
    return [
        tuple(float(c) for c in x)
        for x in sample_grid(p.feasible_set, p.domain_window, resolution, cfg.eps_feas)
        if membership(p, anchor, x, variant, cfg).member
    ]


@pytest.mark.parametrize("name", UNCONSTRAINED)
def test_enumeration_is_pointwise_membership_at_canonical_resolution(name):
    e = get_example(name)
    for v in V:
        want = _outcome(lambda: _pointwise(e.problem, e.anchor, v, e.resolution))
        got = _outcome(lambda: enumerate_solution_set(e.problem, e.anchor, v, e.resolution))
        assert got == want, v


def count_scalar_grad(monkeypatch, *targets):
    """Count the calls of a scalar gradient through each listed (module, name)."""
    calls = []
    for module, name in targets:
        def counted(*args, real=getattr(module, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", UNCONSTRAINED)
def test_enumeration_takes_the_batch_path(name, monkeypatch):
    """Enumeration at canonical resolution asks scalar grad only for the
    anchor's gradient: a batch path that fell back to the per-point loop
    would ask once per grid point."""
    from qcsol import expr

    e = get_example(name)
    for v in V:
        calls = count_scalar_grad(monkeypatch, (expr, "grad"), (charac, "_point"))
        _outcome(lambda: enumerate_solution_set(e.problem, e.anchor, v, e.resolution))
        assert len(calls) <= 2, v


def rounded_apart(u, v) -> bool:
    """Whether numpy's row sum of u * v rounds apart from np.dot(u, v)."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return float((u * v).sum()) != float(np.dot(u, v))


# An objective with inexact coefficients and an anchor with a nonzero
# gradient; no atoms, so every node is feasible.
NEAR = Problem(
    parse("0.1*x1*x1 + 0.7*x2 + 0.3*x1*x2 - 0.13*x2*x2", 2),
    ConvexSetDescriptor(2, ()),
    2,
    Box((-1.0, -1.0), (1.0, 1.0)),
)
NEAR_ANCHOR = (0.3, 0.2)
def _residual(name, variant):
    """The threshold value of a reported residual at x."""
    return lambda x, g, g0: abs(membership(NEAR, NEAR_ANCHOR, x, variant).residuals[name])


def _collinearity_threshold(x, g, g0):
    """The eps_dir at which collinearity_factor's verdict on (g0, g) flips."""
    p = float(np.dot(g0, g) / np.dot(g0, g0))
    return float(np.linalg.norm(g - p * g0) / np.linalg.norm(g))


# condition -> (the tolerance it is compared with, the variants that test
# it, the dot products it is computed from, of d = x - xbar, g = grad f(x)
# and g0 = grad f(xbar), and its threshold value at a node)
NEAR_CONDITIONS = {
    "anchor_gradient_dot": ("eps_feas", (V.SHAT1, V.SHAT2, V.THAT1, V.THAT2, V.T5),
                            lambda d, g, g0: [(d, g0)],
                            _residual("anchor_gradient_dot", V.SHAT1)),
    "point_gradient_dot": ("eps_feas", (V.S1, V.S2, V.T1, V.T2, V.S5),
                           lambda d, g, g0: [(g, -d)],
                           _residual("point_gradient_dot", V.S1)),
    "dot_gap": ("eps_feas", (V.S3, V.S4, V.T3, V.T4),
                lambda d, g, g0: [(d, g0), (g, -d)], _residual("dot_gap", V.S3)),
    "gradient_norm": ("eps_grad", (V.STILDE, V.S1),
                      lambda d, g, g0: [(g, g)], _residual("gradient_norm", V.STILDE)),
    "cosine_distance": ("eps_dir", (V.SHAT1, V.SHAT2),
                        lambda d, g, g0: [(g, g0), (g, g)],
                        _residual("cosine_distance", V.SHAT1)),
    "collinearity": ("eps_dir", (V.THAT1, V.THAT2),
                     lambda d, g, g0: [(g0, g), (g, g)], _collinearity_threshold),
}


@pytest.mark.parametrize("condition", sorted(NEAR_CONDITIONS))
def test_enumeration_decides_near_threshold_rows_like_membership(condition):
    # The tolerance is set to a condition's threshold value at a node, and
    # to the floats next to it, at the first nodes where one of its dot
    # products rounds differently in numpy's row sums than in np.dot.
    tol, variants, dots, threshold = NEAR_CONDITIONS[condition]
    resolution = 9
    xb = np.array(NEAR_ANCHOR)
    g0 = charac_grad(NEAR.objective, xb)
    limits = set()
    for x in sample_grid(NEAR.feasible_set, NEAR.domain_window, resolution):
        g = charac_grad(NEAR.objective, x)
        if len(limits) < 12 and any(rounded_apart(u, v) for u, v in dots(x - xb, g, g0)):
            value = threshold(x, g, g0)
            limits |= {value, float(np.nextafter(value, 0.0)), float(np.nextafter(value, 1.0))}
    assert limits
    for limit in sorted(limits):
        cfg = replace(DEFAULT_CONFIG, **{tol: limit})
        for v in variants:
            want = _outcome(lambda: _pointwise(NEAR, NEAR_ANCHOR, v, resolution, cfg))
            got = _outcome(lambda: enumerate_solution_set(NEAR, NEAR_ANCHOR, v, resolution, cfg))
            assert got == want, (v, tol, limit)


def _kept_rows(cfg=DEFAULT_CONFIG):
    """The condition rows kept under cfg on the kept feasible grids, each
    kept under the window kind as (window, p, resolution, feasible, eps_feas)."""
    return [rows for key, (grid, _) in sets._KEPT.items() if key[3:4] == ("feasible",)
            for tag, rows in vars(grid).get("results", {}).items() if tag[0] != "oracle"
            and tag[0].cfg == cfg]


def test_each_condition_is_decided_once_per_grid_anchor_and_config(monkeypatch):
    e = get_example("ex2_3")
    calls = {}

    def counted(name, decide):
        def run(rows, cfg):
            calls[name] = calls.get(name, 0) + 1
            return decide(rows, cfg)
        return run

    for name, decide in list(charac._DECIDE.items()):
        monkeypatch.setitem(charac._DECIDE, name, counted(name, decide))
    cfgs = (DEFAULT_CONFIG, replace(DEFAULT_CONFIG, eps_dir=1e-2))
    rounds = [[oracle.agreement(e.problem, e.anchor, v, e.resolution, cfg=cfg)
               for v in PLAIN_VARIANTS] for cfg in cfgs * 2]
    assert rounds[:2] == rounds[2:]
    used = {name for v in PLAIN_VARIANTS for name in charac._CONDITIONS[v]}
    assert len(used) == 11 and calls == {name: len(cfgs) for name in used}
    # one record per config, holding each condition its variants test
    assert all(len(_kept_rows(cfg)) == 1 and set(_kept_rows(cfg)[0].decided) == used
               for cfg in cfgs)


def test_kept_conditions_refuse_writes():
    e = get_example("ex2_3")
    for v in PLAIN_VARIANTS:
        enumerate_solution_set(e.problem, e.anchor, v, 9)
    (rows,) = _kept_rows()
    arrays = [a for entries in rows.decided.values() for _, *kept in entries for a in kept
              if isinstance(a, np.ndarray)]
    assert len(arrays) >= 2 * len(rows.decided)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = a


def test_a_condition_that_raises_is_not_kept(monkeypatch):
    e = get_example("ex2_3")
    decide = charac._DECIDE["dot_gap_zero"]

    def fails_once(rows, cfg):
        monkeypatch.setitem(charac._DECIDE, "dot_gap_zero", decide)
        raise InputError("no verdict")

    monkeypatch.setitem(charac._DECIDE, "dot_gap_zero", fails_once)
    with pytest.raises(InputError, match="no verdict"):
        enumerate_solution_set(e.problem, e.anchor, V.S3, 9)
    assert "dot_gap_zero" not in _kept_rows()[0].decided
    got = enumerate_solution_set(e.problem, e.anchor, V.S3, 9)
    sets._KEPT.clear()
    assert got == enumerate_solution_set(e.problem, e.anchor, V.S3, 9)


def test_decided_conditions_are_kept_per_config():
    e = get_example("ex2_3")
    cfgs = (DEFAULT_CONFIG, replace(DEFAULT_CONFIG, eps_dir=1e-2))

    def same_direction(cfgs):
        """The same_direction verdicts of ex2_3's grid under each config,
        asked in turn through SHAT1 and SHAT2 in one store."""
        for cfg in cfgs:
            for v in (V.SHAT1, V.SHAT2):
                enumerate_solution_set(e.problem, e.anchor, v, e.resolution, cfg)
        return [_kept_rows(cfg)[0].decided["same_direction"][0][2] for cfg in cfgs]

    shared = same_direction(cfgs)
    assert shared[0].sum() < shared[1].sum()
    for cfg, mask in zip(cfgs, shared):
        sets._KEPT.clear()
        assert np.array_equal(same_direction([cfg])[0], mask)


# One point's conditions are decided on floats, a grid's on numpy columns,
# by the same _Rows: the entries must agree bit for bit.
_ENTRY = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, -1e-300, 1e200, -1e200))
_COORDS = st.lists(_ENTRY | st.floats(-10.0, 10.0), min_size=2, max_size=2)
_LOOSE = replace(DEFAULT_CONFIG, eps_grad=0.5, eps_dir=1e-3, eps_feas=0.2, eps_act=0.05)


def _anchor_of(xb, g0):
    """What _Rows reads of an anchor record (kkt._Anchor): xb, its gradient
    and the gradient's norm, as the record keeps them, tuples of floats."""
    return mock.Mock(xb=tuple(xb), gradient=(tuple(g0), _norm(g0)))


def _entries_hex(entries, point: bool):
    """Each entry as (name, value's float.hex, verdict, shown); at one point
    every value is a float and every verdict a bool, in a 1-row array the
    row's own."""
    out = []
    for name, value, ok, shown in entries:
        if point:
            assert (type(value), type(ok), type(shown)) == (float, bool, bool), name
        else:
            value, ok, shown = (np.asarray(a).reshape(-1)[0] for a in (value, ok, shown))
        out.append((name, float(value).hex(), bool(ok), bool(shown)))
    return out


@settings(max_examples=300, deadline=None)
@given(_COORDS, _COORDS, _COORDS, _COORDS, _COORDS,
       st.lists(_ENTRY | st.floats(-1.0, 1.0), min_size=2, max_size=2), st.booleans(),
       st.sampled_from(((), (0,), (1,), (0, 1))), st.sampled_from((DEFAULT_CONFIG, _LOOSE)))
@example(x=[1.0, 2.0], xb=[0.0, 1.0], g=[0.0, 0.0], g0=[1.0, 1.0], gi=[1.0, 0.0],
         values=[0.0, -1.0], in_S=True, tilde=(0,), cfg=DEFAULT_CONFIG)   # zero gradient at x
@example(x=[1.0, 2.0], xb=[0.0, 1.0], g=[1.0, 3.0], g0=[0.0, -0.0], gi=[1.0, 0.0],
         values=[0.0, -1.0], in_S=True, tilde=(0,), cfg=DEFAULT_CONFIG)   # zero anchor gradient
@example(x=[0.5, -1.0], xb=[0.5, -1.0], g=[-2.0, 3.0], g0=[1.0, -1.0], gi=[0.0, -1.0],
         values=[-0.0, 0.0], in_S=True, tilde=(0, 1), cfg=DEFAULT_CONFIG)  # x = xbar
@example(x=[-0.0, 0.0], xb=[0.0, -0.0], g=[-0.0, 1.0], g0=[0.0, -1.0], gi=[-0.0, 0.0],
         values=[-0.0, 0.0], in_S=False, tilde=(1,), cfg=_LOOSE)          # signed zeros
@example(x=[1e200, -1e200], xb=[-1e200, 1e200], g=[1e200, 1e200], g0=[1e200, -1e200],
         gi=[1e200, 1e200], values=[1e200, -1e200], in_S=True, tilde=(0,),
         cfg=DEFAULT_CONFIG)                                               # products overflow
def test_a_point_decides_on_floats_what_a_row_decides_on_columns(x, xb, g, g0, gi, values,
                                                                  in_S, tilde, cfg):
    anchor = _anchor_of(xb, g0)
    active = tuple((i, tuple(gi)) for i in tilde)
    point = charac._Rows(x, g, anchor, kkt._masks(in_S, values, tilde, cfg), cfg, active)
    with np.errstate(all="ignore"):
        rows = charac._Rows(np.array([x]).T, np.array([g]).T, anchor, kkt._masks(
            np.array([in_S]), np.array([values]).T, tilde, cfg), cfg, active)
        columns = {name: _entries_hex(decide(rows, cfg), False) for name, decide in charac._DECIDE.items()}
    for name, decide in charac._DECIDE.items():
        assert _entries_hex(decide(point, cfg), True) == columns[name], name


def test_numpy_constants_decide_one_point_as_float_constants():
    # an AST built through the API may hold numpy floats, whose derivatives
    # are numpy floats: 0/0 at a zero gradient must read NaN silently
    from qcsol.expr import Const, Mul, Pow, Var
    box = Box((-10.0, -10.0), (10.0, 10.0))
    problems = [Problem(Mul(Const(c), Pow(Var(1), 2)), ConvexSetDescriptor(2, ()), 2, box)
                for c in (1.0, np.float64(1.0))]
    for v in CharacVariant:
        if not v.requires_multiplier and v is not CharacVariant.STILDE:
            for x in ((0.0, 0.0), (-0.0, 3.0), (2.0, 1.0)):
                got = [_outcome(lambda: membership(p, (1.0, 0.0), x, v)) for p in problems]
                assert got[0] == got[1], (v, x)
                assert all(type(r) is float for r in getattr(got[1], "residuals", {}).values())


def _scaled_plane(c: str) -> Problem:
    """c*x1 + c*x2 on the open plane, over the window [0, 1]^2."""
    return Problem(parse(f"{c}*x1 + {c}*x2", 2), ConvexSetDescriptor(2, ()), 2,
                   Box((0.0, 0.0), (1.0, 1.0)))


def test_a_gradient_whose_square_overflows_keeps_every_verdict():
    # at 1e200 the sums of squares and the dot products overflow: the norm,
    # the cosine and the collinearity factor are then taken of scaled
    # vectors, so every plain variant reads what it reads at 1e100, with
    # finite residuals (and no numpy warning, which fails the suite)
    small, large, xb = _scaled_plane("1e100"), _scaled_plane("1e200"), (0.5, 0.5)
    for x in ((0.75, 0.25), (0.5, 0.5), (0.9, 0.3)):
        for v in PLAIN_VARIANTS:
            want, got = membership(small, xb, x, v), membership(large, xb, x, v)
            assert got.member is want.member and set(got.residuals) == set(want.residuals), (x, v)
            assert all(np.isfinite(list(got.residuals.values()))), (x, v)
    for v in PLAIN_VARIANTS:  # a grid's columns decide as the points do
        assert enumerate_solution_set(large, xb, v, 5) == enumerate_solution_set(small, xb, v, 5), v
    pts = [(0.5, 0.5), (0.25, 0.75), (0.0, 1.0)]
    assert classify_dichotomy(large, pts).common_unit_gradient == \
        classify_dichotomy(small, pts).common_unit_gradient


# What 2^k * f moves against f at the canonical resolution: the oracle's
# size, the dichotomy and each plain enumeration's size, or the error
# class raised instead.  Values and derivatives scale exactly, so an
# outcome moves only through an absolute tolerance.  At 2^-40 every
# gradient counts as zero and every value lies within eps_opt of f*; at
# 2^-20 ex4_1's oracle takes three nodes whose gradients are not zero.
# From 2^20 up nothing moves; from 2^520 every gradient entry above 1e-2
# exceeds 1.3e154, so the grid's norms, cosines and collinearity factors
# are rescaled (expr._rescaled).
_S_VARIANTS = ("SHAT1", "SHAT2", "S1", "S2", "S3", "S4", "S5")
_T_VARIANTS = ("STILDE", "THAT1", "THAT2", "T1", "T2", "T3", "T4", "T5")
_SCALE_MOVES = {
    **{(name, -40): {"oracle": size, "dichotomy": "II", **dict.fromkeys(_T_VARIANTS, size),
                     **dict.fromkeys(_S_VARIANTS, "HypothesisViolatedError")}
       for name, size in (("ex2_1", 1261), ("ex2_2", 169), ("ex2_3", 2521))},
    **{(name, -40): {"oracle": size, **dict.fromkeys(_T_VARIANTS, size)}
       for name, size in (("ex2_4", 153), ("ex4_1", 201))},
    ("ex4_1", -20): {"oracle": 104, "dichotomy": "InconsistentDichotomyError"},
}


def _scale_outcomes(e, k: int) -> dict:
    """The oracle's points, the dichotomy's alternative and each plain
    enumeration (or the error class raised) for 2^k times e's objective,
    and the membership verdicts at the anchor and a few grid nodes."""
    p = replace(e.problem, objective=Mul(Const(2.0 ** k), e.problem.objective))
    solutions = oracle.brute_force_solutions(p, e.resolution).solution_points
    out = {"oracle": solutions,
           "dichotomy": _class_or(lambda: classify_dichotomy(p, solutions).alternative)}
    for v in PLAIN_VARIANTS:
        out[v.value] = _class_or(lambda: enumerate_solution_set(p, e.anchor, v, e.resolution))
    nodes = sets.grid_nodes(p.domain_window, e.resolution).tolist()
    for x in [e.anchor, *nodes[::len(nodes) // 5]]:
        for v in PLAIN_VARIANTS:  # the float path decides as the grid's columns do
            enumerated = out[v.value]
            want = enumerated if isinstance(enumerated, str) else tuple(x) in enumerated
            assert _class_or(lambda: membership(p, e.anchor, x, v).member) == want, (k, x, v)
    return out


def _class_or(call):
    try:
        return call()
    except QcsolError as exc:
        return type(exc).__name__


@pytest.mark.parametrize("name", UNCONSTRAINED)
def test_scaling_the_objective_by_a_power_of_two_moves_only_the_pinned_outcomes(name):
    e = get_example(name)
    base = _scale_outcomes(e, 0)
    for k in (-40, -20, 20, 40, 520, 600):
        got, moves = _scale_outcomes(e, k), _SCALE_MOVES.get((name, k), {})
        for key, outcome in got.items():
            if key in moves:
                assert (outcome if isinstance(outcome, str) else len(outcome)) == moves[key], (k, key)
            else:
                assert outcome == base[key], (k, key)


@given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=3),
       st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=3))
@settings(max_examples=200, deadline=None)
def test_a_cosine_of_finite_sums_keeps_its_bits(g, g0):
    # the scaled form is taken only where the plain one overflows or underflows
    n = min(len(g), len(g0))
    g, g0 = g[:n], g0[:n]
    gn, g0n = _norm(g), _norm(g0)
    assume(gn * g0n > 0.0)
    want = 1.0 - _dot(g, g0) / (gn * g0n)
    assert charac._cosine_distance(g, gn, g0, g0n).hex() == want.hex()
    columns = charac._cosine_distance(np.array([g]).T, np.array([gn]), g0, g0n)
    assert columns.tolist() == [want]
