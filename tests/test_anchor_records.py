"""The kept anchor records and condition rows (kkt._anchor_record and
charac._enumerate's rows): every question about one anchor reuses them,
and a warm answer is the cold one."""

from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol import charac, kkt, sets, subdiff
from qcsol.config import DEFAULT_CONFIG, Config
from qcsol.core import CharacVariant as V
from qcsol.core import ConstrainedProblem, MultiplierVector
from qcsol.errors import EvalError, HypothesisViolatedError
from qcsol.expr import parse
from qcsol.oracle import agreement, brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import MAX_GRID_NODES, grid_nodes
from test_registry import EXAMPLE_NAMES

CONFIGS = (
    DEFAULT_CONFIG,
    # the same feasible grids, with more of the disk's nodes active
    Config(eps_act=0.25, eps_grad=1e-2, eps_dir=1e-4, eps_opt=1e-3),
    # wider feasible grids, on which every anchor gradient reads as zero
    Config(eps_feas=0.2, eps_grad=10.0),
)
LAMBDAS = ((0.0,), (0.5,), (2.0,))


def _anchors(e):
    """The example's anchor, with its zeros flipped to -0.0, the window's
    corners and centre: feasible, infeasible and zero-gradient anchors."""
    w = e.problem.domain_window
    return (
        tuple(e.anchor),
        tuple(-0.0 if c == 0.0 else c for c in e.anchor),
        tuple(w.lo),
        tuple(w.hi),
        tuple((lo + hi) / 2 for lo, hi in zip(w.lo, w.hi)),
        tuple(0.0 * c for c in e.anchor),
    )


def _question(name, kind, anchor_i, point_i, variant, lam_i, cfg_i, resolution):
    """One public question about an example, as a call."""
    e = get_example(name)
    p, cfg = e.problem, CONFIGS[cfg_i]
    xb = _anchors(e)[anchor_i]
    x = tuple(grid_nodes(p.domain_window, 5)[point_i % 5 ** p.dimension].tolist())
    lam = MultiplierVector(LAMBDAS[lam_i] if isinstance(p, ConstrainedProblem) else ())
    return {
        "agreement": lambda: agreement(p, xb, variant, resolution, cfg=cfg),
        "enumerate": lambda: charac.enumerate_solution_set(p, xb, variant, resolution, cfg),
        "enumerate_constrained": lambda: kkt.enumerate_constrained(
            p, xb, lam, variant, resolution, cfg),
        "membership": lambda: charac.membership(p, xb, x, variant, cfg),
        "membership_constrained": lambda: kkt.membership_constrained(p, xb, lam, x, variant, cfg),
        "gp": lambda: subdiff.gp_solution_check(p, xb, x, resolution=resolution, cfg=cfg),
        "solve_multipliers": lambda: kkt.solve_multipliers(p, xb, cfg),
        "check_gmfcq": lambda: kkt.check_gmfcq(p, xb, cfg),
        "stationarity_residual": lambda: kkt.stationarity_residual(p, xb, lam, cfg),
        "member_X1": lambda: kkt.member_X1(p, xb, lam, x, cfg),
    }[kind]


def _answer(call):
    """The repr of the answer, or the error's type and message."""
    try:
        return repr(call())
    except Exception as exc:  # every error must repeat exactly
        return type(exc).__name__, str(exc)


QUESTIONS = st.tuples(
    st.sampled_from(("agreement", "enumerate", "enumerate_constrained", "membership",
                     "membership_constrained", "gp", "solve_multipliers", "check_gmfcq",
                     "stationarity_residual", "member_X1")),
    st.integers(0, 5),
    st.integers(0, 24),
    st.sampled_from(list(V)),
    st.integers(0, len(LAMBDAS) - 1),
    st.integers(0, len(CONFIGS) - 1),
    st.sampled_from((3, 5, 9)),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(EXAMPLE_NAMES), st.lists(QUESTIONS, min_size=1, max_size=20))
def test_warm_answers_equal_cold_answers(name, questions):
    """Each answer about one example, after the questions before it,
    equals the answer with an empty store."""
    sets._KEPT.clear()
    for question in questions:
        call = _question(name, *question)
        warm = _answer(call)
        kept = OrderedDict(sets._KEPT)
        sets._KEPT.clear()
        assert _answer(call) == warm, question
        sets._KEPT.clear()
        sets._KEPT.update(kept)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_warm_answers_equal_cold_answers_over_every_case(name):
    """Every variant, anchor, multiplier and config in turn, each asked
    after all the others, against each asked of an empty store."""
    kinds = (("enumerate_constrained", "membership_constrained")
             if isinstance(get_example(name).problem, ConstrainedProblem)
             else ("agreement", "membership"))
    calls = [_question(name, kind, anchor_i, 7, v, lam_i, cfg_i, 9)
             for kind in kinds for v in V for anchor_i in range(6)
             for lam_i in range(len(LAMBDAS)) for cfg_i in range(len(CONFIGS))]
    warm = [_answer(call) for call in calls]
    cold = []
    for call in calls:
        sets._KEPT.clear()
        cold.append(_answer(call))
    assert warm == cold


def _rows_held():
    return sum(rows for _, rows in sets._KEPT.values())


def test_the_store_stays_bounded_over_many_anchors():
    # 600 anchors' condition rows at 1,681 rows each exceed both bounds
    e = get_example("ex2_1")
    first = charac.enumerate_solution_set(e.problem, (1.0, 0.0), V.T1, 41)
    for i in range(600):
        anchor = (1.0 + i / 1000, 0.0)
        charac.enumerate_solution_set(e.problem, anchor, V.T1, 41)
        assert len(sets._KEPT) <= 512 and _rows_held() <= MAX_GRID_NODES
    assert 1681 * 600 > MAX_GRID_NODES and len(sets._KEPT) == 512
    assert charac.enumerate_solution_set(e.problem, (1.0, 0.0), V.T1, 41) == first


def test_an_anchor_is_examined_once_across_questions(monkeypatch):
    e = get_example("ex2_1")
    calls, grad, evaluate = [], kkt.grad, kkt.evaluate
    monkeypatch.setattr(kkt, "grad", lambda f, x, n: calls.append(tuple(x)) or grad(f, x, n))
    monkeypatch.setattr(kkt, "evaluate", lambda f, x: calls.append(tuple(x)) or evaluate(f, x))
    for v in (V.S1, V.S2, V.T1, V.SHAT1):
        agreement(e.problem, e.anchor, v, 9)
        charac.membership(e.problem, e.anchor, (1.5, 0.5), v)
    subdiff.gp_solution_check(e.problem, e.anchor, (1.5, 0.0))
    # the anchor's gradient and objective value, each taken once; ex2_1
    # has no constraint to evaluate
    assert calls == [e.anchor, e.anchor]


def test_kkt_questions_read_the_anchor_record(monkeypatch):
    e = get_example("ex2_3_constrained")
    p, anchor = e.problem, e.anchor
    evaluated, grad, evaluate = [], kkt.grad, kkt.evaluate
    monkeypatch.setattr(kkt, "evaluate",
                        lambda f, x: evaluated.append(tuple(x)) or evaluate(f, x))
    monkeypatch.setattr(kkt, "grad", lambda f, x, n: evaluated.append(f) or grad(f, x, n))
    lam = kkt.solve_multipliers(p, anchor)
    for _ in range(3):
        assert kkt.solve_multipliers(p, anchor) == lam
        kkt.check_gmfcq(p, anchor)
        kkt.stationarity_residual(p, anchor, lam)
        kkt.strict_index_set(p, anchor, lam)
        kkt.active_set(p, anchor, lam)
    # one constraint value, one objective gradient, one constraint gradient
    assert evaluated == [anchor, p.objective, p.constraints[0]]


def test_a_failing_field_raises_again_and_the_others_are_independent():
    e = get_example("ex2_1")
    outside = (0.5, 0.5)  # left of the rectangle and of the window
    for ask in (lambda: charac.enumerate_solution_set(e.problem, outside, V.S1, 9),
                lambda: kkt.active_set(e.problem, outside)) * 2:
        with pytest.raises(HypothesisViolatedError, match=r"anchor \(0.5, 0.5\) is not feasible"):
            ask()
    record = kkt._anchor_record(e.problem, outside, DEFAULT_CONFIG)
    assert "values" not in vars(record) and "gradient" not in vars(record)
    # the GP route checks no feasibility: it reads the gradient alone
    subdiff.gp_solution_check(e.problem, outside, (1.5, 0.0))
    assert "values" not in vars(record) and "gradient" in vars(record)
    # a gradient that fails at the anchor fails on every call
    p = replace(e.problem, objective=parse("sqrt(x1 - 1) + x2", 2))
    for _ in range(2):
        with pytest.raises(EvalError):
            charac.enumerate_solution_set(p, (1.0, 0.0), V.T1, 9)
    assert "values" in vars(kkt._anchor_record(p, (1.0, 0.0), DEFAULT_CONFIG))


def test_signed_zero_anchors_get_separate_records():
    e = get_example("ex2_4")
    plus = kkt._anchor_record(e.problem, (0.0, 0.0), DEFAULT_CONFIG)
    minus = kkt._anchor_record(e.problem, (-0.0, 0.0), DEFAULT_CONFIG)
    assert plus is not minus and plus.xb.tobytes() != minus.xb.tobytes()
    assert kkt._anchor_record(e.problem, np.zeros(2), DEFAULT_CONFIG) is plus
    assert kkt._anchor_record(e.problem, (0.0, 0.0), replace(DEFAULT_CONFIG, seed=1)) is not plus


def test_kept_records_are_read_only():
    e = get_example("ex2_3_constrained")
    lam = kkt.solve_multipliers(e.problem, e.anchor)
    kkt.enumerate_constrained(e.problem, e.anchor, lam, V.SP1, 9)
    record = kkt._anchor_record(e.problem, e.anchor, DEFAULT_CONFIG)
    (rows, _), = [entry for key, entry in sets._KEPT.items() if key[0] == "rows"]
    arrays = [record.xb, record.gradient[0], *(g for _, g in record.active((0,))),
              rows.d, rows.G, *rows.values.values(), rows.sets["in_X1"]]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    anchor = np.array(e.anchor)
    kkt._anchor_record(e.problem, anchor, DEFAULT_CONFIG)
    assert anchor.flags.writeable  # the record keeps a copy


def test_the_oracle_result_is_kept_per_grid_and_eps_opt():
    e = get_example("ex2_4")
    res = brute_force_solutions(e.problem, 9)
    assert brute_force_solutions(e.problem, 9) is res
    wide = brute_force_solutions(e.problem, 9, 0.5)
    assert wide != res and brute_force_solutions(e.problem, 9) == res
