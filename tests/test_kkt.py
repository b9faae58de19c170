"""Multipliers, constraint qualification, and primed characterizations."""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol.charac import enumerate_solution_set
from qcsol.config import DEFAULT_CONFIG
from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector, Problem
from qcsol import charac, expr, kkt, sets
from qcsol.errors import (
    EvalError,
    HypothesisViolatedError,
    InputError,
    NoMultiplierError,
    NotOpenGroundSetError,
    QcsolError,
)
from qcsol.expr import parse
from qcsol.kkt import (
    active_set,
    check_gmfcq,
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
from qcsol.oracle import agreement, brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import (
    MAX_GRID_NODES,
    Ball,
    Box,
    ConvexSetDescriptor,
    Halfspace,
    LinearEquality,
    grid_nodes,
    normal_cone_generators,
)
from test_registry import EXAMPLE_NAMES

V = CharacVariant


@pytest.fixture()
def surd():
    return get_example("ex2_3_constrained")


class TestFeasibility:
    def test_constraint_values(self, surd):
        vals = [expr.evaluate(g, (1.0, 1.0)) for g in surd.problem.constraints]
        assert vals == pytest.approx([0.0])

    def test_is_feasible(self, surd):
        assert is_feasible(surd.problem, (0.0, 0.0))
        assert not is_feasible(surd.problem, (1.5, 1.5))

    def test_active_set(self, surd):
        rep = active_set(surd.problem, (1.0, 1.0))
        assert rep.active == (0,)
        assert active_set(surd.problem, (0.0, 0.0)).active == ()
        with pytest.raises(HypothesisViolatedError, match=r"anchor \(2.0, 2.0\) is not feasible"):
            active_set(surd.problem, (2.0, 2.0))

    def test_active_set_keeps_the_feasibility_errors(self, surd):
        # outside the ground set nothing is evaluated; inside, the first
        # constraint that fails to evaluate raises
        cp = ConstrainedProblem(
            surd.problem.objective, (parse("sqrt(x1) - 1", 2), parse("1/x2", 2)),
            ConvexSetDescriptor(2, (Box((-1.0, -1.0), (2.0, 2.0)),)), 2,
            surd.problem.domain_window,
        )
        with pytest.raises(HypothesisViolatedError, match=r"anchor \(3.0, 0.0\) is not feasible"):
            active_set(cp, (3.0, 0.0))
        for x in ((-1.0, 0.0), (1.0, 0.0)):
            with pytest.raises(EvalError) as info:
                active_set(cp, x)
            with pytest.raises(EvalError) as want:
                is_feasible(cp, x)
            assert str(info.value) == str(want.value)


def test_multiplier_questions_refuse_an_infeasible_anchor(surd):
    lam = solve_multipliers(surd.problem, surd.anchor)
    for ask in (active_set, solve_multipliers, check_gmfcq,
                lambda cp, x: strict_index_set(cp, x, lam),
                lambda cp, x: stationarity_residual(cp, x, lam)):
        with pytest.raises(HypothesisViolatedError, match=r"^anchor \(2.0, 2.0\) is not feasible$"):
            ask(surd.problem, (2.0, 2.0))


@pytest.mark.parametrize("solved", [True, False])
def test_member_x1_equals_the_grid_mask_at_every_feasible_row(solved):
    # the point question and the enumeration's grid path read one _masks
    e = get_example("ex2_3_constrained")
    cp, cfg = e.problem, DEFAULT_CONFIG
    lam = solve_multipliers(cp, e.anchor) if solved else MultiplierVector((0.0,))
    grid = kkt._grid(cp, e.resolution, cfg)
    tilde = strict_index_set(cp, e.anchor, lam, cfg)
    mask = kkt._masks(True, grid.C, tilde, cfg)["in_X1"]
    got = [member_X1(cp, e.anchor, lam, x, cfg) for x in grid.X]
    assert got == mask.tolist()
    # lambda = 0 puts every feasible row in X1; the solved one, the circle
    assert all(got) if not solved else 0 < sum(got) < len(got)


def _count_constraint_evaluations(monkeypatch):
    """The points at which kkt or charac evaluates a constraint, as tuples
    (charac evaluates a membership point's constraints)."""
    points = []

    def counted(g, x):
        points.append(tuple(float(v) for v in x))
        return expr.evaluate(g, x)

    monkeypatch.setattr(kkt, "evaluate", counted)
    monkeypatch.setattr(charac, "evaluate", counted)
    return points


def test_active_set_evaluates_each_constraint_once(surd, monkeypatch):
    cp = replace(surd.problem, constraints=(parse("x1^2 + x2^2 - 2", 2), parse("x1 - x2", 2)))
    points = _count_constraint_evaluations(monkeypatch)
    assert active_set(cp, (1.0, 1.0)).active == (0, 1)
    assert points == [(1.0, 1.0)] * 2


def test_membership_evaluates_the_constraint_once_per_anchor_record(surd, monkeypatch):
    # the anchor's feasibility check and its active set read one kept
    # evaluation, and later questions about the same anchor read it too
    lam = solve_multipliers(surd.problem, surd.anchor)
    sets._KEPT.clear()
    points = _count_constraint_evaluations(monkeypatch)
    membership_constrained(surd.problem, surd.anchor, lam, (0.5, 0.5), V.SP1)
    assert points.count(tuple(surd.anchor)) == 1
    assert points.count((0.5, 0.5)) == 1
    membership_constrained(surd.problem, surd.anchor, lam, (0.5, 0.5), V.SP3)
    assert solve_multipliers(surd.problem, surd.anchor) == lam
    assert stationarity_residual(surd.problem, surd.anchor, lam) <= 1e-9
    assert points.count(tuple(surd.anchor)) == 1
    assert points.count((0.5, 0.5)) == 2


class TestMultipliers:
    def test_golden_multiplier(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        assert lam.lambdas == pytest.approx([0.5])
        assert not lam.rank_deficient
        assert stationarity_residual(surd.problem, surd.anchor, lam) <= 1e-9

    @pytest.mark.parametrize("name", ["ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex4_1"])
    def test_a_plain_problem_has_an_empty_multiplier(self, name):
        """A plain problem has no constraints: its multiplier, where the
        ground set's normal cone gives one, has no entries.  On ex2_3's
        disk the cone at (1, 1) is the ray of x - center = (1, 1)."""
        e = get_example(name)
        lam = solve_multipliers(e.problem, e.anchor)
        assert type(lam) is MultiplierVector and lam.lambdas == ()
        assert stationarity_residual(e.problem, e.anchor, lam) <= 1e-9
        if name == "ex2_3":
            gens = normal_cone_generators(e.problem.ground_set, e.anchor)
            assert [g.tolist() for g in gens] == [[1.0, 1.0]]
            assert stationarity_residual(e.problem, e.anchor, lam) == 0.0

    def test_complementary_slackness(self, surd):
        lam = solve_multipliers(surd.problem, surd.anchor)
        vals = [expr.evaluate(g, surd.anchor) for g in surd.problem.constraints]
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

    def test_residual_is_the_distance_to_the_cone(self, surd):
        # grad f = (-2, -1) at (1, 1); the face x1 <= 1 absorbs the first
        # component, at mu in [1, 3], and leaves |-1| = 1
        cp = ConstrainedProblem(
            parse("-2*x1 - x2", 2), surd.problem.constraints,
            ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), 1.0),)), 2,
            surd.problem.domain_window,
        )
        assert stationarity_residual(cp, (1.0, 1.0), MultiplierVector((0.0,))) == 1.0

    def test_a_degenerate_box_axis_has_both_normals(self, surd):
        # the box -1 <= x1 <= 1, 0 <= x2 <= 0 is the segment that the
        # equality x2 = 0 cuts from the box -1 <= x1 <= 1: at (0, 0) both
        # have the normal cone of the line x2 = 0
        segment = (Box((-1.0, 0.0), (1.0, 0.0)),)
        line = (Box((-1.0, -1.0), (1.0, 1.0)), LinearEquality((0.0, 1.0), 0.0))
        for atoms in (segment, line):
            C = ConvexSetDescriptor(2, atoms)
            kinked = ConstrainedProblem(parse("x1 + x2", 2), (parse("-x1", 2),), C, 2,
                                        surd.problem.domain_window)
            assert solve_multipliers(kinked, (0.0, 0.0)).lambdas == (1.0,)
            # no tangent direction of the segment decreases x2
            flat = ConstrainedProblem(parse("x1", 2), (parse("x2", 2),), C, 2,
                                      surd.problem.domain_window)
            assert check_gmfcq(flat, (0.0, 0.0)).holds is False

    def test_negative_multiplier_rejected(self):
        with pytest.raises(InputError):
            MultiplierVector((-0.1,))

    @pytest.mark.parametrize("lambdas", [(), (0.5, 0.0), (0.5, 0.5, 0.5)],
                             ids=["short", "long", "longer"])
    def test_a_multiplier_of_another_length_is_refused(self, surd, lambdas):
        cp, xbar, lam = surd.problem, surd.anchor, MultiplierVector(lambdas)
        message = rf"multipliers {re.escape(str(lambdas))} do not fit 1 constraints"
        for call in (
            lambda: active_set(cp, xbar, lam),
            lambda: strict_index_set(cp, xbar, lam),
            lambda: stationarity_residual(cp, xbar, lam),
            lambda: member_X1(cp, xbar, lam, (0.0, 0.0)),
            lambda: membership_constrained(cp, xbar, lam, (1.0, 1.0), V.SP1),
            lambda: enumerate_constrained(cp, xbar, lam, V.SHATP1, 5),
            lambda: lagrangian(cp, lam, (1.0, 1.0)),
            lambda: lagrangian_constancy(cp, xbar, lam, [(1.0, 1.0)]),
        ):
            with pytest.raises(InputError, match=message):
                call()

    @pytest.mark.parametrize("name", ["ex2_1", "ex2_4"])
    def test_a_plain_problem_takes_only_the_empty_multiplier(self, name):
        e = get_example(name)
        assert active_set(e.problem, e.anchor, MultiplierVector(())).strictly_positive == ()
        with pytest.raises(InputError, match="do not fit 0 constraints"):
            active_set(e.problem, e.anchor, MultiplierVector((0.0,)))


_DYADIC = st.sampled_from([-2.0, -1.0, -0.75, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5])


@st.composite
def _residual_cases(draw):
    """A linear objective and one linear constraint, active at a dyadic
    anchor in 2 or 3 variables, with a dyadic multiplier, on a ground set
    of 0-4 halfspaces (active at the anchor or not), a box with some upper
    bounds at the anchor, and an equality through it."""
    n = draw(st.integers(2, 3))
    vec = st.lists(_DYADIC, min_size=n, max_size=n)
    xb, c, d = draw(vec), draw(vec), draw(vec)
    atoms = []
    for a in draw(st.lists(vec, max_size=4)):
        slack = draw(st.sampled_from([0.0, 0.0, 1.0]))
        atoms.append(Halfspace(tuple(a), float(np.dot(a, xb)) + slack))
    if draw(st.booleans()):
        at = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        atoms.append(Box((-5.0,) * n, tuple(x if on else 5.0 for x, on in zip(xb, at))))
    if draw(st.booleans()):
        a = draw(vec)
        atoms.append(LinearEquality(tuple(a), float(np.dot(a, xb))))
    names = [f"x{i + 1}" for i in range(n)]
    f = parse(" + ".join(f"({ci})*{v}" for ci, v in zip(c, names)), n)
    g = parse(" + ".join(f"({di})*{v}" for di, v in zip(d, names)) + f" - ({np.dot(d, xb)})", n)
    cp = ConstrainedProblem(f, (g,), ConvexSetDescriptor(n, tuple(atoms)), n,
                            Box((-5.0,) * n, (5.0,) * n))
    lam = draw(st.sampled_from([0.0, 0.25, 0.5, 2.0]))
    return cp, tuple(xb), MultiplierVector((lam,)), np.array(c) + lam * np.array(d)


@given(_residual_cases())
@settings(max_examples=200, deadline=None)
def test_stationarity_residual_agrees_with_highs(case):
    linprog = pytest.importorskip("scipy.optimize").linprog
    cp, xb, lam, resid = case
    N = np.array(normal_cone_generators(cp.ground_set, xb), dtype=float).reshape(-1, cp.dimension).T
    t = -np.ones((cp.dimension, 1))
    # min t over mu >= 0 with |resid + N mu| <= t, componentwise
    ref = linprog(
        np.append(np.zeros(N.shape[1]), 1.0), A_ub=np.block([[N, t], [-N, t]]),
        b_ub=np.concatenate([-resid, resid]), bounds=(0, None), method="highs",
    )
    assert ref.status == 0
    got = stationarity_residual(cp, xb, lam)
    # mu = 0 leaves max|resid|, which the residual never exceeds
    assert got <= np.max(np.abs(resid))
    assert abs(got - ref.fun) <= DEFAULT_CONFIG.eps_lp


# The ball's outward normal and the constraint |x - c|^2 - r^2 <= 0 are one
# cone: -grad f = mu (x - c) on the sphere, and -grad f = lam * 2 (x - c),
# so mu = 2 lam.  At ex2_3's (1, 1), mu = 1 and lam = 0.5.
_COORD = st.sampled_from([-1.5, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0])


@st.composite
def _balls_and_anchors(draw):
    n = draw(st.integers(1, 3))
    c = np.array(draw(st.tuples(*[_COORD] * n)))
    u = np.array(draw(st.tuples(*[_COORD] * n)))
    if not u.any():
        u[0] = 1.0
    r = draw(st.sampled_from([0.5, 1.0, 2.0]))
    depth = draw(st.sampled_from([0.0, 0.0, 0.25]))  # on the sphere or inside it
    mu = draw(st.sampled_from([0.25, 1.0, 3.0]))
    return c, r, c + (1.0 - depth) * r * u / np.linalg.norm(u), mu


def _on_a_ball_and_under_its_constraint(c, r, xb, mu):
    n = len(c)
    window = Box(tuple(c - 2 * r), tuple(c + 2 * r))
    f = parse(" + ".join(f"({-mu * d!r})*x{i + 1}" for i, d in enumerate((xb - c).tolist())), n)
    g = parse(" + ".join(f"(x{i + 1} - ({ci!r}))^2" for i, ci in enumerate(c.tolist()))
              + f" - {r * r!r}", n)
    return (Problem(f, ConvexSetDescriptor(n, (Ball(tuple(c), r),)), n, window),
            ConstrainedProblem(f, (g,), ConvexSetDescriptor(n, ()), n, window))


@given(_balls_and_anchors())
@settings(max_examples=100, deadline=None)
def test_a_ball_normal_is_twice_the_multiplier_of_its_constraint(case):
    c, r, xb, mu = case
    plain, constrained = _on_a_ball_and_under_its_constraint(c, r, xb, mu)
    gens = normal_cone_generators(plain.ground_set, xb)
    if abs(np.linalg.norm(xb - c) - r) > DEFAULT_CONFIG.eps_act:  # inside: no cone
        assert gens == []
        for p in (plain, constrained):
            with pytest.raises(NoMultiplierError):
                solve_multipliers(p, xb)
        return
    assert [g.tolist() for g in gens] == [(xb - c).tolist()]
    lam = solve_multipliers(plain, xb)
    assert lam.lambdas == () and stationarity_residual(plain, xb, lam) <= 1e-9
    # mu, read off the one generator, is twice the constraint's multiplier
    slope = -expr.grad(plain.objective, xb)
    got_mu = float(np.dot(slope, gens[0]) / np.dot(gens[0], gens[0]))
    assert got_mu == pytest.approx(mu, rel=1e-9)
    assert got_mu == pytest.approx(2 * solve_multipliers(constrained, xb).lambdas[0], rel=1e-9)


def test_the_disk_normal_is_twice_the_disk_constraints_multiplier():
    disk, constrained = get_example("ex2_3"), get_example("ex2_3_constrained")
    (normal,) = normal_cone_generators(disk.problem.ground_set, disk.anchor)
    slope = -expr.grad(disk.problem.objective, disk.anchor)
    assert slope.tolist() == normal.tolist() == [1.0, 1.0]  # mu = 1
    assert solve_multipliers(constrained.problem, constrained.anchor).lambdas == (0.5,)


def test_a_ball_of_radius_0_answers_as_the_box_of_its_point():
    # {(0, 0)} as a ball and as a box: every multiplier question agrees
    window = Box((-1.0, -1.0), (1.0, 1.0))
    f, g, origin = parse("x1", 2), parse("x2", 2), (0.0, 0.0)
    answers = []
    for atom in (Ball(origin, 0.0), Box(origin, origin)):
        ground = ConvexSetDescriptor(2, (atom,))
        cp = ConstrainedProblem(f, (g,), ground, 2, window)
        lam = solve_multipliers(cp, origin)
        plain = solve_multipliers(Problem(f, ground, 2, window), origin)
        answers.append((lam, stationarity_residual(cp, origin, lam), plain))
    assert answers[0] == answers[1]
    lam, residual, plain = answers[0]
    assert lam == MultiplierVector((-0.0,), rank_deficient=True) and residual == 0.0
    assert plain.lambdas == ()


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

    def test_no_constraint_is_evaluated_outside_the_ground_set(self, surd):
        # sqrt(x1) fails at x1 < 0, where the ground set x1 >= 0 already
        # says no: the point is in no set, and its set residuals read 1
        cp = ConstrainedProblem(
            surd.problem.objective, (parse("sqrt(x1) - 2", 2),),
            ConvexSetDescriptor(2, (Halfspace((-1.0, 0.0), 0.0),)), 2,
            surd.problem.domain_window,
        )
        lam, x = MultiplierVector((0.0,)), (-0.5, 0.0)
        assert not is_feasible(cp, x) and not member_X1(cp, (0.0, 0.0), lam, x)
        for variant in (V.SP3, V.SHATP1):
            v = membership_constrained(cp, (0.0, 0.0), lam, x, variant)
            assert not v.member
            sets = ("in_X1", "in_feasible_set", "constraints_feasible")
            assert [v.residuals[k] for k in sets] == [1.0, 1.0, 1.0]

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
        # the constraint fails to evaluate outside the ground set x1 >= 0
        rooted = ConstrainedProblem(
            cp.objective, (parse("sqrt(x1) - 2", 2),),
            ConvexSetDescriptor(2, (Halfspace((-1.0, 0.0), 0.0),)), 2, cp.domain_window,
        )
        return [
            (cp, surd.anchor),
            (cp, (0.0, 0.0)),
            (cp, (2.0, 2.0)),      # infeasible anchor
            (closed, surd.anchor),  # ground set with an atom
            (closed, (1.3, 0.0)),   # anchor outside the ground set
            (flat, (0.0, 0.0)),     # zero anchor gradient
            (rooted, (0.0, 0.0)),
        ]

    @pytest.mark.parametrize("variant", MULTIPLIER_VARIANTS, ids=lambda v: v.value)
    def test_enumeration_is_pointwise_membership(self, surd, cases, variant):
        # every node of the window is asked: one outside the feasible grid
        # is never a member, and no constraint is evaluated outside C
        lam = solve_multipliers(surd.problem, surd.anchor)
        for cp, anchor in cases:
            want = _outcome(lambda: [
                tuple(float(c) for c in x)
                for x in grid_nodes(cp.domain_window, 13)
                if membership_constrained(cp, anchor, lam, x, variant).member
            ])
            assert _outcome(lambda: enumerate_constrained(cp, anchor, lam, variant, 13)) == want

    def test_anchor_checked_once(self, surd, monkeypatch):
        calls = {"anchor": 0, "tilde": 0}
        check, tilde = charac._checked, kkt._Anchor.active_set

        def counted_check(*args):
            calls["anchor"] += 1
            return check(*args)

        def counted_tilde(*args):
            calls["tilde"] += 1
            return tilde(*args)

        lam = solve_multipliers(surd.problem, surd.anchor)
        monkeypatch.setattr(charac, "_checked", counted_check)
        monkeypatch.setattr(kkt._Anchor, "active_set", counted_tilde)
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
        plain = Problem(closed.objective, closed.ground_set, 2, closed.domain_window)
        anchor = (1.3, 0.0)
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


class TestGridMemo:
    """kkt._grid: one evaluation of each feasible grid per process."""

    def test_record_arrays_are_read_only(self, surd):
        grid = kkt._grid(surd.problem, 9, DEFAULT_CONFIG)
        brute_force_solutions(surd.problem, 9)
        mask = grid.results["oracle", DEFAULT_CONFIG.eps_opt][1]
        for a in (grid.X, grid.C, grid.values, grid.gradients, mask):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_feasible_grid_is_a_writable_copy(self):
        e = get_example("ex2_1")
        oracle_before = brute_force_solutions(e.problem, 9)
        points = enumerate_solution_set(e.problem, e.anchor, V.S1, 9)
        X = feasible_grid(e.problem, 9)
        assert X.flags.writeable and X is not kkt._grid(e.problem, 9, DEFAULT_CONFIG).X
        X[...] = 0.0
        assert brute_force_solutions(e.problem, 9) == oracle_before
        assert enumerate_solution_set(e.problem, e.anchor, V.S1, 9) == points
        assert feasible_grid(e.problem, 9).tolist() == kkt._grid(e.problem, 9, DEFAULT_CONFIG).X.tolist()

    def test_a_failing_evaluation_raises_again_and_harms_no_other_record(self):
        e = get_example("ex2_1")
        # the objective fails at the nodes x1 = 1.5, its gradient at x1 = 1
        no_value = replace(e.problem, objective=parse("x2 / (x1 - 1.5)", 2))
        no_gradient = replace(e.problem, objective=parse("sqrt(x1 - 1) + x2", 2))
        for call in (
            lambda: brute_force_solutions(no_value, 9),
            lambda: agreement(no_value, e.anchor, V.S1, 9),
            lambda: enumerate_solution_set(no_gradient, (1.5, 0.0), V.STILDE, 9),
        ):
            first, second = _result(call), _result(call)
            assert first[0] is EvalError and first == second
        warm = brute_force_solutions(e.problem, 9)
        sets._KEPT.clear()
        assert warm == brute_force_solutions(e.problem, 9)

    def test_signed_zeros_get_separate_records(self):
        p = get_example("ex2_2").problem
        cfg = DEFAULT_CONFIG
        plus = replace(p, objective=expr.Add(p.objective, expr.Const(0.0)))
        minus = replace(p, objective=expr.Add(p.objective, expr.Const(-0.0)))
        assert plus == minus
        assert kkt._grid(plus, 9, cfg) is not kkt._grid(minus, 9, cfg)
        # a -0.0 upper bound is the last node on its axis
        lo = p.domain_window.lo
        up, down = (replace(p, domain_window=Box(lo, (2.0, z))) for z in (0.0, -0.0))
        assert up == down
        a, b = kkt._grid(up, 9, cfg), kkt._grid(down, 9, cfg)
        assert a is not b and a.X.tolist() == b.X.tolist() and a.X.tobytes() != b.X.tobytes()
        assert kkt._grid(replace(p), 9, cfg) is kkt._grid(p, 9, cfg)

    def test_numpy_bounds_are_keyed_by_every_digit(self):
        p = get_example("ex2_2").problem
        near, far = (
            replace(p, domain_window=Box(np.array([-1.0, -2.0]), np.array([2.0, hi])))
            for hi in (2.0, 2.000000001)
        )
        a, b = kkt._grid(near, 5, DEFAULT_CONFIG), kkt._grid(far, 5, DEFAULT_CONFIG)
        assert a is not b and b.X.tolist() == feasible_grid(far, 5).tolist()

    def test_records_hold_at_most_max_grid_nodes_rows(self):
        e = get_example("ex2_3")
        held = []
        for eps in (1e-9, 1e-8, 1e-7, 1e-6):
            cfg = replace(DEFAULT_CONFIG, eps_feas=eps)
            grid = kkt._grid(e.problem, 700, cfg)
            assert len(grid.X) > MAX_GRID_NODES // 3
            held.append(sum(sets._held(*entry) for entry in sets._KEPT.values()))
            assert kkt._grid(e.problem, 700, cfg) is grid
        assert max(held) <= MAX_GRID_NODES and len(sets._KEPT) < 4

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_a_warm_grid_gives_the_cold_answers(self, name):
        e = get_example(name)
        p, anchor, r = e.problem, e.anchor, e.resolution
        if isinstance(p, ConstrainedProblem):
            lam = solve_multipliers(p, anchor)
            calls = [
                lambda v=v: enumerate_constrained(p, anchor, lam, v, r)
                for v in V if v.requires_multiplier
            ]
        else:
            calls = [
                call
                for v in V if not v.requires_multiplier
                for call in (
                    lambda v=v: agreement(p, anchor, v, r),
                    lambda v=v: enumerate_solution_set(p, anchor, v, r),
                )
            ]
        cold = []
        for call in calls:
            sets._KEPT.clear()
            cold.append(_result(call))
        assert [_result(call) for call in calls] == cold
