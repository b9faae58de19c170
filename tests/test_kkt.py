"""Multipliers, constraint qualification, and primed characterizations."""

from dataclasses import replace

import numpy as np
import pytest

from qcsol.config import DEFAULT_CONFIG
from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector
from qcsol import charac, expr, kkt
from qcsol.errors import (
    EvalError,
    HypothesisViolatedError,
    InfeasibleError,
    NoMultiplierError,
    NotOpenGroundSetError,
    QcsolError,
)
from qcsol.expr import parse
from qcsol.kkt import (
    active_set,
    check_gmfcq,
    constraint_values,
    enumerate_constrained,
    feasible_grid,
    is_feasible,
    lagrangian,
    lagrangian_constancy,
    member_X1,
    membership_constrained,
    solve_multipliers,
    stationarity_residual,
    strict_index_set,
)
from qcsol.registry import get_example
from qcsol.sets import Ball, Box, ConvexSetDescriptor, Halfspace, grid_nodes

V = CharacVariant


@pytest.fixture()
def surd():
    return get_example("ex2_3_constrained")


class TestFeasibility:
    def test_constraint_values(self, surd):
        vals = constraint_values(surd.problem, (1.0, 1.0))
        assert vals == pytest.approx([0.0])

    def test_is_feasible(self, surd):
        assert is_feasible(surd.problem, (0.0, 0.0))
        assert not is_feasible(surd.problem, (1.5, 1.5))

    def test_active_set(self, surd):
        rep = active_set(surd.problem, (1.0, 1.0))
        assert rep.active == (0,)
        assert active_set(surd.problem, (0.0, 0.0)).active == ()
        with pytest.raises(InfeasibleError):
            active_set(surd.problem, (2.0, 2.0))


class TestMultipliers:
    def test_golden_multiplier(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        assert lam.lambdas == pytest.approx([0.5])
        assert not lam.rank_deficient
        assert stationarity_residual(surd.problem, surd.anchor, lam) <= 1e-9

    def test_complementary_slackness(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        vals = constraint_values(surd.problem, surd.anchor)
        assert all(abs(l * v) <= 1e-9 for l, v in zip(lam.lambdas, vals))

    def test_strict_index_set(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        assert strict_index_set(surd.problem, surd.anchor, lam) == (0,)

    def test_no_multiplier_at_interior_nonstationary_point(self, surd):
        cp = ConstrainedProblem(
            parse("x1", 2),
            (parse("x1^2 + x2^2 - 2", 2),),
            ConvexSetDescriptor(2, ()),
            2,
            surd.problem.domain_window,
        )
        with pytest.raises(NoMultiplierError):
            solve_multipliers(cp, (0.0, 0.0))

    def test_residual_modulo_an_active_face(self, surd):
        # at (1, 1) both upper bounds of the box are active, so the normal
        # cone absorbs the whole gradient (-1, -1) of f; the face x1 <= 1
        # alone absorbs none of it
        cp = surd.problem
        boxed, halved = (
            ConstrainedProblem(cp.objective, cp.constraints, ConvexSetDescriptor(2, (atom,)),
                               2, cp.domain_window)
            for atom in (Box((-1.5, -1.5), (1.0, 1.0)), Halfspace((1.0, 0.0), 1.0))
        )
        zero = MultiplierVector((0.0,))
        assert stationarity_residual(boxed, (1.0, 1.0), zero) == 0.0
        assert stationarity_residual(halved, (1.0, 1.0), zero) == 1.0
        lam = solve_multipliers(halved, (1.0, 1.0))
        assert lam.lambdas == (0.5,)
        assert stationarity_residual(halved, (1.0, 1.0), lam) == 0.0

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ValueError):
            MultiplierVector((-0.1,))


class TestConstraintQualification:
    def test_gmfcq_on_the_disk(self, surd):
        rep = check_gmfcq(surd.problem, surd.anchor)
        assert rep.holds
        assert rep.direction == pytest.approx((-1.0, -1.0))

    def test_vacuous_when_inactive(self, surd):
        rep = check_gmfcq(surd.problem, (0.0, 0.0))
        assert rep.holds and rep.direction == (0.0, 0.0)


class TestX1AndPrimedVariants:
    def test_member_x1(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        assert member_X1(surd.problem, surd.anchor, lam, (1.0, 1.0))
        assert not member_X1(surd.problem, surd.anchor, lam, (0.0, 0.0))
        assert not member_X1(surd.problem, surd.anchor, lam, (2.0, 2.0))

    def test_primed_membership(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        yes = membership_constrained(surd.problem, surd.anchor, lam, (1.0, 1.0), V.SP1)
        no = membership_constrained(surd.problem, surd.anchor, lam, (1.0, -1.0), V.SP1)
        assert yes.member and not no.member

    def test_double_primed_membership(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        v = membership_constrained(surd.problem, surd.anchor, lam, (1.0, 1.0), V.SHATPP1)
        assert v.member

    def test_double_primed_needs_open_ground_set(self, surd):
        closed = ConstrainedProblem(
            surd.problem.objective,
            surd.problem.constraints,
            ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), 5.0),)),
            2,
            surd.problem.domain_window,
        )
        lam = solve_multipliers(closed, surd.anchor)
        with pytest.raises(NotOpenGroundSetError):
            membership_constrained(closed, surd.anchor, lam, (1.0, 1.0), V.SHATPP1)

    def test_enumerate_constrained_singleton(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        pts = enumerate_constrained(surd.problem, surd.anchor, lam, V.SP1, surd.resolution)
        assert pts == [(1.0, 1.0)]


MULTIPLIER_VARIANTS = [v for v in V if v.requires_multiplier] + [V.SHATPP1, V.SHATPP2]


def _outcome(fn):
    try:
        return fn()
    except QcsolError as exc:
        return type(exc)


class TestEnumerationSharesTheAnchor:
    @pytest.fixture()
    def cases(self, surd):
        cp = surd.problem
        closed = ConstrainedProblem(
            cp.objective, cp.constraints,
            ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), 1.2),)), 2, cp.domain_window,
        )
        flat = ConstrainedProblem(
            parse("x1^2 + x2^2", 2), (parse("x1 + x2 - 1", 2),),
            ConvexSetDescriptor(2, ()), 2, cp.domain_window,
        )
        return [
            (cp, surd.anchor),
            (cp, (0.0, 0.0)),
            (cp, (2.0, 2.0)),      # infeasible anchor
            (closed, surd.anchor),  # ground set with an atom
            (closed, (1.3, 0.0)),   # anchor outside the ground set
            (flat, (0.0, 0.0)),     # zero anchor gradient
        ]

    @pytest.mark.parametrize("variant", MULTIPLIER_VARIANTS, ids=lambda v: v.value)
    def test_enumeration_is_pointwise_membership(self, surd, cases, variant):
        lam = solve_multipliers(surd.problem, surd.anchor)
        for cp, anchor in cases:
            want = _outcome(lambda: [
                tuple(float(c) for c in x)
                for x in feasible_grid(cp, 13)
                if membership_constrained(cp, anchor, lam, x, variant).member
            ])
            assert _outcome(lambda: enumerate_constrained(cp, anchor, lam, variant, 13)) == want

    def test_anchor_checked_once(self, surd, monkeypatch):
        calls = {"anchor": 0, "tilde": 0}
        check, tilde = kkt.check_anchor_hypothesis, kkt.strict_index_set

        def counted_check(*args):
            calls["anchor"] += 1
            return check(*args)

        def counted_tilde(*args):
            calls["tilde"] += 1
            return tilde(*args)

        monkeypatch.setattr(kkt, "check_anchor_hypothesis", counted_check)
        monkeypatch.setattr(kkt, "strict_index_set", counted_tilde)
        lam = solve_multipliers(surd.problem, surd.anchor)
        pts = enumerate_constrained(surd.problem, surd.anchor, lam, V.SP3, 13)
        assert pts == [(1.0, 1.0)]
        assert calls == {"anchor": 1, "tilde": 1}

    def test_empty_grid_checks_nothing(self, surd):
        # no feasible node: the anchor (here with a zero gradient) is
        # never examined, as when every point was checked on its own
        cp = ConstrainedProblem(
            parse("x1^2 + x2^2", 2), (parse("x1 + 10", 2),),
            ConvexSetDescriptor(2, ()), 2, surd.problem.domain_window,
        )
        lam = MultiplierVector((0.0,))
        assert enumerate_constrained(cp, (0.0, 0.0), lam, V.SP1, 5) == []
        with pytest.raises(HypothesisViolatedError):
            membership_constrained(cp, (0.0, 0.0), lam, (0.0, 0.0), V.SP1)


class TestAnchorCheckedBeforeAnyPoint:
    """The anchor hypotheses are checked before any point, so a bad anchor
    fails the same way at every point; here on the ground set x1 <= 1.2."""

    @pytest.fixture()
    def closed(self, surd):
        cp = surd.problem
        return ConstrainedProblem(
            cp.objective, cp.constraints,
            ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), 1.2),)), 2, cp.domain_window,
        )

    def test_constraint_violating_anchor_fails_at_every_node(self, surd, closed):
        lam = solve_multipliers(surd.problem, surd.anchor)
        nodes = grid_nodes(closed.domain_window, 9)
        assert (1.5, -1.5) in map(tuple, nodes.tolist())  # outside the ground set
        for v in MULTIPLIER_VARIANTS:
            for x in nodes:
                with pytest.raises(HypothesisViolatedError):
                    membership_constrained(closed, (1.1, 1.1), lam, x, v)
            with pytest.raises(HypothesisViolatedError):
                enumerate_constrained(closed, (1.1, 1.1), lam, v, 9)

    def test_anchor_outside_the_ground_set_is_not_feasible(self, surd, closed):
        lam = solve_multipliers(surd.problem, surd.anchor)
        plain, anchor = kkt._as_plain_problem(closed), (1.3, 0.0)
        for v in V:
            if v.requires_multiplier:
                outcomes = [lambda x=x: membership_constrained(closed, anchor, lam, x, v)
                            for x in ((0.0, 0.0), (1.5, -1.5))]
                outcomes.append(lambda: enumerate_constrained(closed, anchor, lam, v, 9))
            else:
                outcomes = [lambda: charac.membership(plain, anchor, (0.0, 0.0), v),
                            lambda: charac.enumerate_solution_set(plain, anchor, v, 9)]
            for outcome in outcomes:
                with pytest.raises(HypothesisViolatedError, match="not feasible"):
                    outcome()


class TestLagrangian:
    def test_value(self, surd):
        lam = MultiplierVector((0.5,))
        f0 = lagrangian(surd.problem, lam, (1.0, 1.0))
        # f(1,1) = -2 + 2 = 0 and g(1,1) = 0
        assert f0 == pytest.approx(0.0)

    def test_constancy_over_solutions(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        assert lagrangian_constancy(surd.problem, surd.anchor, lam, [(1.0, 1.0)])
        assert not lagrangian_constancy(surd.problem, surd.anchor, lam, [(0.0, 0.0)])


def _result(fn):
    try:
        return fn()
    except (QcsolError, ValueError) as exc:
        return type(exc), str(exc)


def _feasible_cases(window):
    disk = get_example("ex2_3_constrained").problem
    tilted = ConvexSetDescriptor(2, (Halfspace((0.1, 0.7), 0.3), Ball((0.1, 0.2), 1.1)))
    two = (parse("x1^2 + x2^2 - 2", 2), parse("0.3*x1 - 0.1*x2 - 0.2", 2))
    # the first constraint fails first at the node (1, y), the second at
    # the very first node: the node-by-node filter raises the second's error
    failing = (parse("1/(x1 - 1)", 2), parse("sqrt(x2 + 1)", 2))
    yield pytest.param(disk, id="disk")
    yield pytest.param(ConstrainedProblem(disk.objective, two, tilted, 2, window), id="atoms")
    yield pytest.param(
        ConstrainedProblem(disk.objective, failing, ConvexSetDescriptor(2, ()), 2, window),
        id="failing",
    )
    unbounded = Box((-np.inf, -1.0), (1.0, 1.0))
    yield pytest.param(ConstrainedProblem(disk.objective, two, tilted, 2, unbounded), id="inf")
    never = (parse("x1^2 + x2^2 + 1", 2),)  # no node is feasible
    yield pytest.param(ConstrainedProblem(disk.objective, never, tilted, 2, window), id="empty")


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("cp", _feasible_cases(Box((-1.5, -1.5), (1.5, 1.5))))
@pytest.mark.parametrize("resolution", [5, 13, 61])
def test_feasible_grid_equals_pointwise_is_feasible(cp, resolution):
    def pointwise():
        nodes = [x for x in grid_nodes(cp.domain_window, resolution) if is_feasible(cp, x)]
        return [x.tobytes() for x in nodes]

    want = _result(pointwise)
    assert _result(lambda: [x.tobytes() for x in feasible_grid(cp, resolution)]) == want


def test_feasible_grid_is_a_float_array_of_rows(surd, monkeypatch):
    cp = surd.problem
    never = replace(cp, constraints=(parse("x1^2 + x2^2 + 1", 2),))
    X = feasible_grid(cp, 13)
    assert isinstance(X, np.ndarray) and X.dtype == float
    assert X.shape == (sum(is_feasible(cp, x) for x in grid_nodes(cp.domain_window, 13)), 2)
    assert feasible_grid(never, 13).shape == (0, 2)

    # the node-by-node path, taken when a batch evaluation fails, returns
    # the same array
    def refuse(*args):
        raise EvalError("refused")

    monkeypatch.setattr(kkt, "evaluate_many", refuse)
    Y = feasible_grid(cp, 13)
    assert Y.dtype == float and Y.shape == X.shape and Y.tobytes() == X.tobytes()
    empty = feasible_grid(never, 13)
    assert empty.dtype == float and empty.shape == (0, 2)


@pytest.fixture()
def memo_calculus(monkeypatch):
    """grad and evaluate memoized per (expression, point) in kkt and charac:
    the pointwise reference below asks for each node's values once per
    variant."""
    for module in (kkt, charac):
        for name, original in (("grad", expr.grad), ("evaluate", expr.evaluate)):
            if not hasattr(module, name):
                continue
            seen = {}

            def memo(f, x, *args, _seen=seen, _original=original):
                key = (id(f), np.asarray(x, dtype=float).tobytes(), args)
                if key not in _seen:
                    _seen[key] = _original(f, x, *args)
                return _seen[key]

            monkeypatch.setattr(module, name, memo)


def test_enumeration_is_pointwise_membership_at_canonical_resolution(surd, memo_calculus):
    cp, r = surd.problem, surd.resolution
    lam = solve_multipliers(cp, surd.anchor)
    for v in V:
        want = _result(lambda: [
            tuple(float(c) for c in x)
            for x in feasible_grid(cp, r)
            if membership_constrained(cp, surd.anchor, lam, x, v).member
        ])
        assert _result(lambda: enumerate_constrained(cp, surd.anchor, lam, v, r)) == want, v


def test_enumeration_takes_the_batch_path(surd, monkeypatch):
    """Enumeration at canonical resolution asks scalar grad only for the
    anchor's and the tilde constraints' gradients, not once per node."""
    cp, r = surd.problem, surd.resolution
    lam = solve_multipliers(cp, surd.anchor)
    calls, original = [], expr.grad

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (expr, charac, kkt):
        monkeypatch.setattr(module, "grad", counted)
    for v in V:
        calls.clear()
        _result(lambda: enumerate_constrained(cp, surd.anchor, lam, v, r))
        assert len(calls) <= 4, v


def _rounded_apart(u, v) -> bool:
    """Whether numpy's row sum of u * v rounds apart from np.dot(u, v)."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return float((u * v).sum()) != float(np.dot(u, v))


# A linear objective, whose gradient directions agree to rounding at every
# node, and a quadratic one, whose cosine distances vary; both with
# inexact coefficients and one constraint 0.3 x1 - 0.1 x2 <= 0.2.
NEAR_OBJECTIVES = {
    "linear": "0.1*x1 + 0.7*x2",
    "quadratic": "0.1*x1*x1 + 0.7*x2 + 0.3*x1*x2 - 0.13*x2*x2",
}
# residual -> (objective, the tolerance it is compared with, the variants
# reporting it, the dot products it is computed from: of d = x - xbar,
# g = grad f(x), g0 = grad f(xbar) and gi = grad g_1(xbar))
NEAR_RESIDUALS = {
    "active_gradient_dot_0": ("linear", "eps_feas", (V.SHATPP1, V.SHATPP2),
                              lambda d, g, g0, gi: [(gi, d)]),
    "anchor_gradient_dot": ("linear", "eps_feas", (V.SHATP1, V.SHATP2, V.SP5),
                            lambda d, g, g0, gi: [(g0, d)]),
    "dot_gap": ("linear", "eps_feas", (V.SP3, V.SP4), lambda d, g, g0, gi: [(g0, d), (g, -d)]),
    "cosine_distance": ("quadratic", "eps_dir", (V.SHATPP2, V.SHATP2),
                        lambda d, g, g0, gi: [(g, g0), (g, g)]),
}


@pytest.mark.parametrize("residual", sorted(NEAR_RESIDUALS))
def test_enumeration_decides_near_threshold_rows_like_membership(residual, memo_calculus):
    # With eps_act = 10 the constraint is active, with a positive
    # multiplier, at every node, so every feasible node is in X1(lambda).
    # The tolerance is set to a residual's exact value at a node, and to
    # the next float below it, at the first nodes where one of its dot
    # products rounds differently in numpy's row sums than in np.dot.
    objective, tol, variants, dots = NEAR_RESIDUALS[residual]
    cp = ConstrainedProblem(
        parse(NEAR_OBJECTIVES[objective], 2),
        (parse("0.3*x1 - 0.1*x2 - 0.2", 2),),
        ConvexSetDescriptor(2, ()), 2, Box((-3.0, -3.0), (3.0, 3.0)),
    )
    anchor, lam, resolution = (0.0, 0.0), MultiplierVector((0.5,)), 9
    base = replace(DEFAULT_CONFIG, eps_act=10.0)
    xb = np.array(anchor)
    g0, gi = expr.grad(cp.objective, xb), expr.grad(cp.constraints[0], xb)
    limits = set()
    for x in feasible_grid(cp, resolution, base):
        g = expr.grad(cp.objective, x)
        if len(limits) < 8 and any(_rounded_apart(u, v) for u, v in dots(x - xb, g, g0, gi)):
            verdict = membership_constrained(cp, anchor, lam, x, variants[0], base)
            r = abs(verdict.residuals[residual])
            limits |= {r, float(np.nextafter(r, 0.0))}
    assert limits
    for limit in sorted(limits):
        cfg = replace(base, **{tol: limit})
        for v in variants:
            want = _result(lambda: [
                tuple(float(c) for c in x)
                for x in feasible_grid(cp, resolution, cfg)
                if membership_constrained(cp, anchor, lam, x, v, cfg).member
            ])
            got = _result(lambda: enumerate_constrained(cp, anchor, lam, v, resolution, cfg))
            assert got == want, (v, tol, limit)
