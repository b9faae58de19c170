"""Brute-force grid oracle."""

from dataclasses import replace

import pytest

from qcsol.config import DEFAULT_CONFIG
from qcsol.charac import classify_dichotomy, enumerate_solution_set, membership
from qcsol import oracle, sets
from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector, Problem
from qcsol.errors import EmptyGridError, EvalError, HypothesisViolatedError
from qcsol.expr import evaluate, parse
from qcsol.kkt import enumerate_constrained, feasible_grid
from qcsol.oracle import OracleResult, agreement, brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import Box, ConvexSetDescriptor, Halfspace
from test_registry import EXAMPLE_NAMES


def test_rectangle_oracle():
    e = get_example("ex2_1")
    res = brute_force_solutions(e.problem, e.resolution)
    assert res.min_value == pytest.approx(0.0, abs=1e-12)
    assert len(res.solution_points) == 41
    assert all(p[1] == 0.0 for p in res.solution_points)
    assert res.grid_size > len(res.solution_points)


def test_flat_oracle():
    e = get_example("ex4_1")
    res = brute_force_solutions(e.problem, e.resolution)
    assert res.min_value == pytest.approx(0.0, abs=1e-12)
    assert len(res.solution_points) == 101
    assert min(p[0] for p in res.solution_points) == pytest.approx(0.0)
    assert max(p[0] for p in res.solution_points) == pytest.approx(1.0)


def test_constrained_oracle_singleton():
    e = get_example("ex2_3_constrained")
    res = brute_force_solutions(e.problem, e.resolution)
    assert res.solution_points == ((1.0, 1.0),)


def test_agreement_with_enumeration():
    e = get_example("ex2_1")
    rep = agreement(e.problem, e.anchor, CharacVariant.SHAT1, 9)
    assert rep.equal and rep.missing == () and rep.extra == ()
    pts = enumerate_solution_set(e.problem, e.anchor, CharacVariant.SHAT1, 9)
    assert set(pts) == set(rep.oracle.solution_points)


def test_eps_opt_defaults_to_the_config():
    e = get_example("ex2_4")
    cfg = replace(DEFAULT_CONFIG, eps_opt=0.5)
    res = brute_force_solutions(e.problem, 17, cfg=cfg)
    assert len(res.solution_points) == 33
    assert res == brute_force_solutions(e.problem, 17, 0.5)
    rep = agreement(e.problem, e.anchor, CharacVariant.STILDE, 17, cfg=cfg)
    assert rep.oracle == res


def test_agreement_rejects_suboptimal_anchor():
    e = get_example("ex2_1")
    with pytest.raises(HypothesisViolatedError, match=r"anchor \(1\.0, 1\.0\) is not in the oracle"):
        agreement(e.problem, (1.0, 1.0), CharacVariant.SHAT1, 9)


def test_empty_grid():
    p = Problem(
        parse("x1", 1),
        ConvexSetDescriptor(1, (Halfspace((1.0,), -10.0),)),
        1,
        Box((0.0,), (1.0,)),
    )
    with pytest.raises(EmptyGridError):
        brute_force_solutions(p, 5)
    with pytest.raises(EmptyGridError):
        agreement(p, (0.0,), CharacVariant.STILDE, 5)
    # a constrained problem whose constraint no node of the window meets
    cp = ConstrainedProblem(parse("x1", 1), (parse("x1 + 10", 1),), ConvexSetDescriptor(1, ()),
                            1, Box((0.0,), (1.0,)))
    with pytest.raises(EmptyGridError):
        brute_force_solutions(cp, 5)


def test_a_non_finite_window_is_refused_in_both_problem_forms():
    # the plain oracle once minimized over the finite nodes alone, while the
    # constrained one failed on the first node with a NaN coordinate
    window = Box((-float("inf"), -1.0), (1.0, 1.0))
    f = parse("x1^2 + x2^2", 2)
    p = Problem(f, ConvexSetDescriptor(2, (Halfspace((0.1, 0.7), 0.3),)), 2, window)
    cp = ConstrainedProblem(f, (parse("0.1*x1 + 0.7*x2 - 0.3", 2),),
                            ConvexSetDescriptor(2, ()), 2, window)
    messages = set()
    for problem in (p, cp):
        with pytest.raises(ValueError, match="a grid needs a finite window") as info:
            brute_force_solutions(problem, 5)
        messages.add(str(info.value))
    assert len(messages) == 1


def test_agreement_builds_one_grid(grid_work):
    e = get_example("ex2_1")
    rep = agreement(e.problem, e.anchor, CharacVariant.SHAT1, 9)
    assert rep.equal and grid_work == {"grids": [9], "gradients": [rep.oracle.grid_size]}
    # warm: another variant, and enumeration at the same resolution, reuse
    # the grid and its gradients
    grid_work["grids"].clear(), grid_work["gradients"].clear()
    for v in (CharacVariant.T3, CharacVariant.SHAT1):
        rep = agreement(e.problem, e.anchor, v, 9)
        assert rep.equal
        assert set(enumerate_solution_set(e.problem, e.anchor, v, 9)) == set(rep.oracle.solution_points)
    assert grid_work == {"grids": [], "gradients": []}


@pytest.mark.parametrize("name", ["ex2_1", "ex2_4"])
def test_grid_checks_share_one_grid_and_one_gradient_array(grid_work, name):
    e = get_example(name)
    variants = {"I": (CharacVariant.S1, CharacVariant.T3), "II": (CharacVariant.STILDE,)}
    rows = grid_work["gradients"]
    summary = oracle.grid_checks(e.problem, e.anchor, 9)
    res = brute_force_solutions(e.problem, 9)
    # without variants, one grid, and gradients at the oracle's solutions only
    assert summary.oracle == res and grid_work["grids"] == [9]
    assert rows == [len(res.solution_points)]
    assert summary.dichotomy == classify_dichotomy(e.problem, res.solution_points)
    assert summary.agreements == {} and summary.solutions_in_X1 is None
    rows.clear()
    full = oracle.grid_checks(e.problem, e.anchor, 9, variants)
    assert rows == [res.grid_size] and full.dichotomy == summary.dichotomy
    listed = variants[full.dichotomy.alternative]
    assert full.agreements == {v: agreement(e.problem, e.anchor, v, 9) for v in listed}
    # warm: the summary now reads the kept gradients
    assert oracle.grid_checks(e.problem, e.anchor, 9) == summary
    assert grid_work["grids"] == [9] and rows == [res.grid_size]


@pytest.mark.parametrize("name", ["ex2_1", "ex2_3_constrained"])
def test_grid_checks_refuses_a_multiplier_with_variants_before_any_grid(grid_work, name):
    e = get_example(name)
    with pytest.raises(ValueError, match="a multiplier or variants, not both"):
        oracle.grid_checks(
            e.problem, e.anchor, 9, {"I": (CharacVariant.SP1,)}, lam=MultiplierVector((0.5,))
        )
    assert grid_work["grids"] == []


def test_constrained_problem_is_rejected_before_any_grid(monkeypatch):
    grids = []
    monkeypatch.setattr(sets, "grid_nodes", lambda *args: grids.append(args))
    e = get_example("ex2_3_constrained")
    for call in (
        lambda: agreement(e.problem, e.anchor, CharacVariant.S1, 9),
        lambda: enumerate_solution_set(e.problem, e.anchor, CharacVariant.S1, 9),
        lambda: membership(e.problem, e.anchor, (1.0, 1.0), CharacVariant.S1),
    ):
        with pytest.raises(ValueError, match="kkt.enumerate_constrained"):
            call()
    # and a variant of the other kind, for a plain problem and a constrained one
    plain = get_example("ex2_1")
    lam = MultiplierVector((0.5,))
    for call, match in (
        (lambda: agreement(plain.problem, plain.anchor, CharacVariant.SP1, 9), "needs a multiplier"),
        (lambda: enumerate_solution_set(plain.problem, plain.anchor, CharacVariant.SP1, 9),
         "needs a multiplier"),
        (lambda: enumerate_constrained(e.problem, e.anchor, lam, CharacVariant.S1, 9),
         "needs no multiplier"),
    ):
        with pytest.raises(ValueError, match=match):
            call()
    assert grids == []


@pytest.mark.parametrize("text,sign", [("0 * x1", "-"), ("-(0 * x1)", "")])
def test_zero_minimum_keeps_the_sign_of_its_first_node(text, sign):
    # on [-1, 1] the first node, x1 = -1, gives 0 * x1 = -0.0; the nodes
    # from x1 = 0 on give +0.0; every node is a minimizer
    p = Problem(parse(text, 1), ConvexSetDescriptor(1, ()), 1, Box((-1.0,), (1.0,)))
    res = brute_force_solutions(p, 5)
    assert res.min_value.hex() == sign + "0x0.0p+0"
    assert len(res.solution_points) == 5


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_oracle_equals_pointwise_minimum(name):
    e = get_example(name)
    pts = feasible_grid(e.problem, e.resolution, DEFAULT_CONFIG)
    values = [evaluate(e.problem.objective, x) for x in pts]
    vmin = min(values)
    want = OracleResult(
        vmin,
        tuple(tuple(float(c) for c in x) for x, v in zip(pts, values) if v <= vmin + 1e-9),
        len(pts),
    )
    got = brute_force_solutions(e.problem, e.resolution)
    assert got == want and got.min_value.hex() == want.min_value.hex()


def test_oracle_raises_the_first_failing_point():
    p = Problem(parse("sqrt(x1)", 1), ConvexSetDescriptor(1, ()), 1, Box((-1.0,), (1.0,)))
    with pytest.raises(EvalError, match="sqrt of negative value"):
        brute_force_solutions(p, 5)
