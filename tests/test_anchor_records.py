"""The kept anchor records and condition rows (kkt._anchor_record and
charac._enumerate's rows): every question about one anchor reuses them,
and a warm answer is the cold one."""

import functools
import gc
import math
import weakref
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
from qcsol.errors import EvalError, HypothesisViolatedError, NoMultiplierError
from qcsol.expr import parse
from qcsol.oracle import agreement, brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import MAX_GRID_NODES, Box, grid_nodes
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
    """The rows the store holds, from each record's live count."""
    return sum(sets._held(*entry) for entry in sets._KEPT.values())


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


def _grid_results(grid):
    """The oracle mask and the condition rows kept on a feasible grid."""
    (mask,) = [r[1] for tag, r in grid.results.items() if tag[0] == "oracle"]
    (rows,) = [r for tag, r in grid.results.items() if tag[0] != "oracle"]
    return mask, rows


def test_a_grids_rows_and_oracle_mask_go_with_it():
    e = get_example("ex2_3")
    assert agreement(e.problem, e.anchor, V.S1, e.resolution).equal
    grid = kkt._grid(e.problem, e.resolution, DEFAULT_CONFIG)
    refs = [weakref.ref(a) for a in (grid, *_grid_results(grid))]
    del grid
    f = parse("x1", 1)
    # the anchor's record, the window's nodes, then the grid (used last)
    # go by LRU: the grid and its results live until the 512th newer record
    for k in range(512):
        sets._window(f, Box((float(k),), (k + 1.0,)), 2)
        if k >= 510:
            gc.collect()
            assert [ref() is None for ref in refs] == [k == 511] * 3


def test_a_grid_past_the_row_bound_by_its_own_results_is_dropped_with_them():
    # 16 oracle results and one set of condition rows on 62,845 feasible
    # rows, kept beside the window's record of 301^2 nodes
    e, eps = get_example("ex2_3"), [i / 1000 for i in range(16)]
    grid = kkt._grid(e.problem, 301, DEFAULT_CONFIG)
    rows = charac.enumerate_solution_set(e.problem, e.anchor, V.T1, 301)
    warm = [brute_force_solutions(e.problem, 301, x) for x in eps]
    assert len(grid.results) == 17 and kkt._grid(e.problem, 301, DEFAULT_CONFIG) is grid
    assert MAX_GRID_NODES < _rows_held() == 301 ** 2 + 18 * len(grid.X)
    masks = [weakref.ref(r[1]) for tag, r in grid.results.items() if tag[0] == "oracle"]
    del grid
    kkt._anchor_record(e.problem, (0.5, 0.5), DEFAULT_CONFIG)  # the next miss drops it
    gc.collect()
    # only the window and the grid: e.anchor's record holds no rows, so it stays with the new one
    assert [key[0] for key in sets._KEPT] == ["anchor", "anchor"] and _rows_held() == 0
    assert len(masks) == 16 and all(mask() is None for mask in masks)
    # asked again, then of a cold store, it answers as before
    for cold in (False, True):
        if cold:
            sets._KEPT.clear()
        assert [brute_force_solutions(e.problem, 301, x) for x in eps] == warm
        assert charac.enumerate_solution_set(e.problem, e.anchor, V.T1, 301) == rows


def test_records_that_hold_no_rows_stay_when_a_grid_passes_the_row_bound():
    # dropping an anchor record frees no rows: past the row bound only the grid goes
    e = get_example("ex2_3")
    records = [kkt._anchor_record(e.problem, (1.0 + i / 1000, 1.0), DEFAULT_CONFIG)
               for i in range(100)]
    for x in (i / 1000 for i in range(16)):  # 16 oracle results on 62,845 rows
        brute_force_solutions(e.problem, 301, x)
    assert MAX_GRID_NODES < _rows_held() == 301 ** 2 + 17 * 62845
    new = kkt._anchor_record(e.problem, (0.5, 0.5), DEFAULT_CONFIG)
    assert [entry[0] for entry in sets._KEPT.values()] == records + [new]
    assert _rows_held() == 0


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


def _counted(monkeypatch, module, names):
    """Count the calls made through module's names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, call=getattr(module, name), **kwargs):
            calls[name] += 1
            return call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_kkt_questions_read_the_anchor_record(monkeypatch):
    e = get_example("ex2_3_constrained")
    p, anchor = e.problem, e.anchor
    evaluated, grad, evaluate = [], kkt.grad, kkt.evaluate
    monkeypatch.setattr(kkt, "evaluate",
                        lambda f, x: evaluated.append(tuple(x)) or evaluate(f, x))
    monkeypatch.setattr(kkt, "grad", lambda f, x, n: evaluated.append(f) or grad(f, x, n))
    calls = _counted(monkeypatch, kkt,
                     ("solve_lp", "strict_feasibility", "normal_cone_generators"))
    lam = kkt.solve_multipliers(p, anchor)
    report = kkt.check_gmfcq(p, anchor)
    for _ in range(3):
        assert kkt.solve_multipliers(p, anchor) is lam
        assert kkt.check_gmfcq(p, anchor) is report
        kkt.stationarity_residual(p, anchor, lam)
        assert kkt.strict_index_set(p, anchor, lam) == (0,)
        kkt.active_set(p, anchor, lam)
    # one constraint value, one objective gradient, one constraint gradient
    assert evaluated == [anchor, p.objective, p.constraints[0]]
    # one LP for lambda and one for the residual at lambda
    assert calls == {"solve_lp": 1 + 1, "strict_feasibility": 1, "normal_cone_generators": 1}


def test_only_the_residual_at_the_kept_multiplier_is_kept(monkeypatch):
    e = get_example("ex2_3_constrained")
    p, anchor = e.problem, e.anchor
    calls = _counted(monkeypatch, kkt, ("solve_lp",))
    record = kkt._anchor_record(p, anchor, DEFAULT_CONFIG)
    lams = [MultiplierVector((0.0,)), MultiplierVector((0.5,)), MultiplierVector((2.0,))]
    first = [kkt.stationarity_residual(p, anchor, lam) for lam in lams]
    assert [kkt.stationarity_residual(p, anchor, lam) for lam in lams] == first
    assert calls["solve_lp"] == 6 and all(type(r) is float for r in first)
    own = kkt.solve_multipliers(p, anchor)  # one LP
    assert own.lambdas == (0.5,)
    resid = [kkt.stationarity_residual(p, anchor, lam) for lam in (*lams, *lams, own)]
    # one LP for the residual at own, which lams[1] equals; the others are not kept
    assert calls["solve_lp"] == 6 + 1 + 1 + 4 and resid == first + first + first[1:2]
    assert list(record.results) == [(), (0,)]  # constraint gradients per index set, none per lambda
    sets._KEPT.clear()
    assert [kkt.stationarity_residual(p, anchor, lam) for lam in lams] == first


def test_a_failing_multiplier_solve_is_not_kept(monkeypatch):
    p = get_example("ex2_3_constrained").problem
    solves = []
    solve = kkt._Anchor.multipliers.func
    field = functools.cached_property(lambda record: solves.append(1) or solve(record))
    field.__set_name__(kkt._Anchor, "multipliers")
    monkeypatch.setattr(kkt._Anchor, "multipliers", field)
    calls = _counted(monkeypatch, kkt, ("solve_lp",))
    # inside the disk, where the gradient is nonzero: no active constraint;
    # on its edge at (1, -1): the multiplier LP is infeasible
    for anchor, message, lps in (
            ((0.5, 0.25), "stationarity cannot hold: nonzero gradient, no active "
                          "constraints, unconstrained ground set", 0),
            ((1.0, -1.0), r"no multiplier exists at \(1.0, -1.0\) within tolerance", 1)):
        solves.clear()
        calls["solve_lp"] = 0
        for _ in range(3):
            with pytest.raises(NoMultiplierError, match=f"^{message}$"):
                kkt.solve_multipliers(p, anchor)
        record = kkt._anchor_record(p, anchor, DEFAULT_CONFIG)
        assert "multipliers" not in vars(record)
        assert len(solves) == 3 and calls["solve_lp"] == 3 * lps
        assert record.gradient[1] > 0 and record.values
        assert kkt.check_gmfcq(p, anchor).holds and "gmfcq" in vars(record)


def test_each_config_gets_its_own_answers():
    """Configs that differ only in eps_lp or eps_act, asked in turn after
    one another, each get the answers they get alone."""
    p = get_example("ex2_3_constrained").problem
    loose, wide = replace(DEFAULT_CONFIG, eps_lp=10.0), replace(DEFAULT_CONFIG, eps_act=0.25)
    interior = ("NoMultiplierError", "stationarity cannot hold: nonzero gradient, no active "
                                     "constraints, unconstrained ground set")
    want = {
        ((1.0, 1.0), DEFAULT_CONFIG): (repr(MultiplierVector((0.5,))),
                                       repr(kkt.CQReport(True, (-1.0, -1.0)))),
        ((1.0, 1.0), loose): (repr(MultiplierVector((0.0,))), repr(kkt.CQReport(False, None))),
        ((1.0, 0.9), DEFAULT_CONFIG): (interior, repr(kkt.CQReport(True, (0.0, 0.0)))),
        ((1.0, 0.9), loose): (repr(MultiplierVector((0.0,))), repr(kkt.CQReport(True, (0.0, 0.0)))),
        ((1.0, 0.9), wide): (("NoMultiplierError", "no multiplier exists at (1.0, 0.9) within "
                              "tolerance"), repr(kkt.CQReport(True, (-1.0, -1.0)))),
    }
    for _ in range(2):
        for (anchor, cfg), answers in want.items():
            assert (_answer(lambda: kkt.solve_multipliers(p, anchor, cfg)),
                    _answer(lambda: kkt.check_gmfcq(p, anchor, cfg))) == answers, (anchor, cfg)


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
    assert plus is not minus and plus.xb == minus.xb == (0.0, 0.0)
    assert [math.copysign(1.0, c) for c in plus.xb + minus.xb] == [1.0, 1.0, -1.0, 1.0]
    assert kkt._anchor_record(e.problem, np.zeros(2), DEFAULT_CONFIG) is plus
    assert kkt._anchor_record(e.problem, (0.0, 0.0), replace(DEFAULT_CONFIG, seed=1)) is not plus


def test_kept_records_are_immutable():
    e = get_example("ex2_3_constrained")
    lam = kkt.solve_multipliers(e.problem, e.anchor)
    kkt.enumerate_constrained(e.problem, e.anchor, lam, V.SP1, 9)
    record = kkt._anchor_record(e.problem, e.anchor, DEFAULT_CONFIG)
    grid = kkt._grid(e.problem, 9, DEFAULT_CONFIG)
    (rows,) = [r for tag, r in grid.results.items() if tag[0] != "oracle"]
    window = sets._window(e.problem.objective, e.problem.domain_window, 9)
    arrays = [*rows.d, rows.G, *rows.values.values(), rows.sets["in_X1"], grid.X, grid.C, window.X]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    # the anchor record's points and vectors are tuples of floats, which the rows share
    active = record.active((0,))
    vectors = (record.xb, record.gradient[0], *(g for _, g in active), *record.normals)
    assert all(type(t) is tuple for t in (active, record.normals, *active, *vectors))
    assert all(type(c) is float for t in vectors for c in t) and type(record.gradient[1]) is float
    assert rows.g0 is record.gradient[0] and rows.active is active
    assert all(type(t) is tuple for t in (rows.d, rows.g0, rows.active, *(g for _, g in rows.active)))
    for anchor in (np.array(e.anchor), list(e.anchor)):  # the record keeps a copy
        sets._KEPT.clear()
        kept = kkt._anchor_record(e.problem, anchor, DEFAULT_CONFIG)
        anchor[0] = 9.0
        assert kept.xb == tuple(e.anchor)


def test_the_oracle_result_is_kept_per_grid_and_eps_opt():
    e = get_example("ex2_4")
    res = brute_force_solutions(e.problem, 9)
    assert brute_force_solutions(e.problem, 9) is res
    wide = brute_force_solutions(e.problem, 9, 0.5)
    assert wide != res and brute_force_solutions(e.problem, 9) == res
