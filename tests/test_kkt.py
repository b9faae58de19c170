"""Multipliers, constraint qualification, and primed characterizations."""

import numpy as np
import pytest

from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector
from qcsol import kkt
from qcsol.errors import (
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
from qcsol.sets import Box, ConvexSetDescriptor, Halfspace

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
