"""Brute-force grid oracle."""

import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcsol.config import DEFAULT_CONFIG
from qcsol.charac import classify_dichotomy, enumerate_solution_set, membership
from qcsol import charac, kkt, oracle, sets
from qcsol.cli import _AGREEMENT_VARIANTS, run
from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector, Problem
from qcsol.errors import EmptyGridError, EvalError, HypothesisViolatedError, InputError
from qcsol.expr import _at, evaluate, parse
from qcsol.kkt import enumerate_constrained, feasible_grid
from qcsol.oracle import OracleAgreement, OracleResult, agreement, brute_force_solutions
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


@pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf"), "1e-9", True])
def test_an_eps_opt_argument_is_refused_as_config_refuses_it(bad):
    # a NaN or negative band once gave an oracle result with no solution points
    e = get_example("ex2_1")
    message = re.escape(f"config eps_opt must be a nonnegative finite real, got {bad!r}")
    with pytest.raises(InputError, match=message):
        brute_force_solutions(e.problem, 9, bad)
    with pytest.raises(InputError, match=message):
        agreement(e.problem, e.anchor, CharacVariant.S1, 9, bad)


def test_the_configs_own_eps_opt_is_read_as_given():
    e, cfg = get_example("ex2_1"), replace(DEFAULT_CONFIG, eps_opt=0.0)
    res = brute_force_solutions(e.problem, 9, cfg=cfg)
    assert brute_force_solutions(e.problem, 9, 0, cfg) is res
    assert brute_force_solutions(e.problem, 9, -0.0, cfg) is res


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


def test_each_question_checks_kind_then_grid_then_anchor():
    # no node of the window [0, 1] meets x1 >= 5, and the anchor 0.5 does not
    p = Problem(parse("x1", 1), ConvexSetDescriptor(1, (Halfspace((-1.0,), -5.0),)), 1,
                Box((0.0,), (1.0,)))
    cp = ConstrainedProblem(parse("x1", 1), (parse("x1 - 10", 1),),
                            ConvexSetDescriptor(1, (Halfspace((-1.0,), -5.0),)), 1,
                            Box((0.0,), (1.0,)))
    lam = MultiplierVector((0.0,))
    wrong_kind = [
        lambda: enumerate_solution_set(p, (0.5,), CharacVariant.SP1, 5),
        lambda: enumerate_constrained(cp, (0.5,), lam, CharacVariant.S1, 5),
        lambda: agreement(p, (0.5,), CharacVariant.SP1, 5),
    ]
    for ask in wrong_kind:
        with pytest.raises(InputError):
            ask()
    assert enumerate_solution_set(p, (0.5,), CharacVariant.S1, 5) == []
    assert enumerate_constrained(cp, (0.5,), lam, CharacVariant.SP1, 5) == []
    with pytest.raises(EmptyGridError):
        agreement(p, (0.5,), CharacVariant.S1, 5)


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


def test_a_resolution_must_be_an_integer():
    p = get_example("ex4_1").problem
    assert brute_force_solutions(p, np.int64(5)) == brute_force_solutions(p, 5)
    for resolution in (2.5, 5.0):  # 5.0 also after the grid of 5 is kept
        with pytest.raises(InputError, match="resolution must be an integer"):
            brute_force_solutions(p, resolution)


def _set_difference_agreement(p, xbar, variant, resolution, eps_opt=None, cfg=DEFAULT_CONFIG):
    """agreement by the set difference of the oracle's points and the
    enumerated points, with its checks in the same order."""
    charac._check_kind(p, None, variant)
    eps_opt = cfg.eps_opt if eps_opt is None else eps_opt
    result = brute_force_solutions(p, resolution, eps_opt, cfg)
    anchor = kkt._anchor_record(p, xbar, cfg)
    if anchor.value > result.min_value + eps_opt:
        raise HypothesisViolatedError(f"anchor {_at(anchor.xb)} is not in the oracle solution set")
    oracle_set = set(result.solution_points)
    enumerated = set(enumerate_solution_set(p, xbar, variant, resolution, cfg))
    missing = tuple(sorted(oracle_set - enumerated))
    extra = tuple(sorted(enumerated - oracle_set))
    return OracleAgreement(not missing and not extra, missing, extra, result)


def _answer(call):
    """The repr of the answer, or the error's type and message."""
    try:
        return repr(call())
    except Exception as exc:  # every error must repeat exactly
        return type(exc).__name__, str(exc)


# every unconstrained example, and ex2_1 on a window with lo == hi on the
# first axis, whose grid rows repeat
_AGREEMENT_CASES = [
    *((name, None) for name in EXAMPLE_NAMES if name != "ex2_3_constrained"),
    ("ex2_1", Box((1.0, 0.0), (1.0, 1.0))),
]


@pytest.mark.parametrize("name,window", _AGREEMENT_CASES,
                         ids=[name + ("-degenerate" if w else "") for name, w in _AGREEMENT_CASES])
def test_agreement_by_masks_equals_the_set_difference(name, window):
    e = get_example(name)
    p = e.problem if window is None else replace(e.problem, domain_window=window)
    for resolution, eps_opt in itertools.product(sorted({3, 5, 9, e.resolution}), (1e-9, 1e-3)):
        sets._KEPT.clear()
        for v in CharacVariant:
            got = _answer(lambda: agreement(p, e.anchor, v, resolution, eps_opt))
            assert got == _answer(
                lambda: _set_difference_agreement(p, e.anchor, v, resolution, eps_opt)), v
        # the dichotomy of the oracle's solutions, cold and then kept
        points = brute_force_solutions(p, resolution, eps_opt).solution_points
        dichotomy = _answer(lambda: classify_dichotomy(p, points))
        assert _answer(lambda: classify_dichotomy(p, points)) == dichotomy
        sets._KEPT.clear()
        assert _answer(lambda: classify_dichotomy(p, points)) == dichotomy


def test_a_point_on_repeated_rows_is_listed_once():
    e = get_example("ex2_1")
    p = replace(e.problem, domain_window=Box((1.0, 0.0), (1.0, 1.0)))
    assert brute_force_solutions(p, 3).solution_points == ((1.0, 0.0),) * 3
    rep = agreement(p, e.anchor, CharacVariant.STILDE, 3)
    assert (rep.equal, rep.missing, rep.extra) == (False, ((1.0, 0.0),), ())


def test_agreement_looks_its_anchor_up_once(monkeypatch):
    e = get_example("ex2_1")
    agreement(e.problem, e.anchor, CharacVariant.S1, 9)
    lookups = []

    def counted(*args):
        lookups.append(args)
        return record(*args)

    record = kkt._anchor_record
    monkeypatch.setattr(kkt, "_anchor_record", counted)
    monkeypatch.setattr(oracle, "_anchor_record", counted)
    assert agreement(e.problem, e.anchor, CharacVariant.S2, 9).equal
    assert len(lookups) == 1


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
def test_run_example_shares_one_grid_and_one_gradient_array(grid_work, capsys, name):
    e = get_example(name)
    res = brute_force_solutions(e.problem, e.resolution)
    k, N = len(res.solution_points), res.grid_size
    # the summary: one grid, and gradients at the oracle's solutions only
    assert run(["run-example", name]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert grid_work["grids"] == [e.resolution] and grid_work["gradients"] == [k]
    # every check: the kept dichotomy, and one batch at all rows
    assert run(["run-example", name, "--check", "all"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert grid_work["grids"] == [e.resolution] and grid_work["gradients"] == [k, N]
    dichotomy = classify_dichotomy(e.problem, res.solution_points)
    assert "agreement" not in summary and {**summary, "agreement": report["agreement"]} == report
    assert report["alternative"] == dichotomy.alternative
    assert (report["oracle_min"], report["oracle_count"]) == (res.min_value, k)
    assert report["agreement"] == {
        v.value: agreement(e.problem, e.anchor, v, e.resolution).equal
        for v in _AGREEMENT_VARIANTS[dichotomy.alternative]
    }
    # the questions asked here again take no batch
    assert grid_work["grids"] == [e.resolution] and grid_work["gradients"] == [k, N]


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


# An exact oracle for alternative II.  The flat-bottomed objective
# sum_i ((x_i - u_i)_+)^2 + ((l_i - x_i)_+)^2 is C1 and convex; it and its
# gradient vanish exactly on the box [l, u], and it is positive off it.
# So its solution set on S is [l, u] ∩ S when that is nonempty, and with
# dyadic data on the nodes of [-2, 2] at resolution 9 (steps of 0.5) every
# value, gradient and membership is exact.
_NODES = tuple(k / 2 for k in range(-4, 5))
_DYADIC = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


def _flat_bottomed(l, u):
    return " + ".join(
        f"pw[x{i} <= {lo}: ({lo} - x{i})^2; x{i} >= {lo} & x{i} <= {hi}: 0;"
        f" x{i} >= {hi}: (x{i} - {hi})^2]"
        for i, (lo, hi) in enumerate(zip(l, u), 1)
    )


@st.composite
def _flat_bottomed_cases(draw):
    """The bottom [l, u] on grid nodes, S a box on grid nodes or a
    halfspace with dyadic data, and the grid nodes in [l, u] ∩ S."""
    n = draw(st.integers(1, 3))

    def box():
        pairs = [sorted(draw(st.lists(st.sampled_from(_NODES), min_size=2, max_size=2)))
                 for _ in range(n)]
        return tuple(lo for lo, _ in pairs), tuple(hi for _, hi in pairs)

    l, u = box()
    if draw(st.booleans()):
        atom = Box(*box())
        inside = lambda x: all(lo <= c <= hi for lo, c, hi in zip(atom.lo, x, atom.hi))
    else:
        atom = Halfspace(tuple(draw(_DYADIC) for _ in range(n)),
                         draw(st.sampled_from([k / 4 for k in range(-8, 9)])))
        inside = lambda x: sum(a * c for a, c in zip(atom.a, x)) <= atom.b
    exact = {x for x in itertools.product(_NODES, repeat=n)
             if inside(x) and all(lo <= c <= hi for lo, c, hi in zip(l, x, u))}
    assume(exact)
    window = Box((-2.0,) * n, (2.0,) * n)
    p = Problem(parse(_flat_bottomed(l, u), n), ConvexSetDescriptor(n, (atom,)), n, window)
    return p, exact


@given(_flat_bottomed_cases())
@settings(max_examples=40, deadline=None)
def test_flat_bottomed_solution_set_is_the_box_within_s(case):
    p, exact = case
    res = brute_force_solutions(p, 9)
    assert res.min_value == 0.0
    assert len(res.solution_points) == len(exact) and set(res.solution_points) == exact
    assert classify_dichotomy(p, res.solution_points).alternative == "II"
    anchor = min(exact)
    assert set(enumerate_solution_set(p, anchor, CharacVariant.STILDE, 9)) == exact
    rep = agreement(p, anchor, CharacVariant.STILDE, 9)
    assert rep.equal and rep.oracle == res
