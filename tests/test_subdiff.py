"""Greenberg-Pierskalla and Martinez-Legaz subdifferential routes."""

import gc
import itertools
from decimal import Decimal
from fractions import Fraction
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol import kkt, sets, subdiff
from qcsol.config import DEFAULT_CONFIG, Config
from qcsol.core import Problem
from qcsol.errors import DimensionError, EvalError, InputError
from qcsol.expr import _dot, _norm, evaluate, grad, parse
from qcsol.oracle import brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import MAX_GRID_NODES, Box, ConvexSetDescriptor, grid_nodes
from qcsol.subdiff import (
    MLPair,
    default_gp_candidates,
    default_ml_pairs,
    gp_member,
    gp_solution_check,
    ml_member_1d,
    ml_solution_check_1d,
)


@pytest.fixture()
def quadrant():
    return get_example("ex2_4")


@pytest.fixture()
def flat():
    return get_example("ex4_1")


class TestGreenbergPierskalla:
    def test_member_at_origin(self, quadrant):
        f = quadrant.problem.objective
        w = quadrant.problem.domain_window
        assert gp_member(f, (0.0, 0.0), (1.0, 0.0), w)
        # pointing into the quadrant where f goes negative: not a subgradient
        assert not gp_member(f, (0.0, 0.0), (-1.0, 0.0), w)

    def test_resolution_validation(self, quadrant):
        with pytest.raises(ValueError):
            gp_member(quadrant.problem.objective, (0.0, 0.0), (1.0, 0.0),
                      quadrant.problem.domain_window, resolution=2)

    def test_solution_check_refuses_a_grid_of_two_nodes_per_axis(self, quadrant):
        with pytest.raises(InputError, match="resolution must be >= 3"):
            gp_solution_check(quadrant.problem, quadrant.anchor, (0.0, -1.0), resolution=2)

    def test_member_reads_x0_as_a_point_of_the_window(self, flat):
        f, w = flat.problem.objective, flat.problem.domain_window
        for x0 in ((0.5, 7.0), [[0.5]], ()):
            with pytest.raises(DimensionError):
                gp_member(f, x0, (1.0,), w)

    def test_candidates_include_units_and_gradients(self, quadrant):
        cands = default_gp_candidates(
            quadrant.problem.objective, (0.0, 0.0), (1.0, 1.0), 2
        )
        assert any(tuple(c) == (1.0, 0.0) for c in cands)
        assert any(tuple(c) == (0.0, 1.0) for c in cands)

    def test_solution_check(self, quadrant):
        p, xbar = quadrant.problem, quadrant.anchor
        assert gp_solution_check(p, xbar, (0.0, -1.0))
        assert not gp_solution_check(p, xbar, (1.0, 1.0))

    def test_shared_grid_gives_same_answer(self, quadrant):
        from qcsol.subdiff import _grid_values

        p, xbar = quadrant.problem, quadrant.anchor
        grid = _grid_values(p.objective, p.domain_window, 21)
        assert gp_solution_check(p, xbar, (0.0, -1.0), _grid=grid)


class TestMartinezLegaz:
    def test_member_goldens(self, flat):
        f = flat.problem.objective
        w = flat.problem.domain_window
        assert ml_member_1d(f, 0.5, MLPair(1.0, 0.4), w)
        assert ml_member_1d(f, 1.5, MLPair(1.0, 1.5), w)
        assert not ml_member_1d(f, 1.5, MLPair(1.0, 1.0), w)
        # v*x < t fails the pairing condition outright
        assert not ml_member_1d(f, 0.5, MLPair(1.0, 0.6), w)

    def test_default_pairs_cover_zero_threshold(self, flat):
        pairs = default_ml_pairs(flat.problem.domain_window)
        assert any(p.t == 0.0 for p in pairs)
        assert all(p.v > 0 for p in pairs)

    def test_default_pairs_are_a_fresh_list(self, flat):
        w = flat.problem.domain_window
        pairs = default_ml_pairs(w)
        assert isinstance(pairs, list) and default_ml_pairs(w) is not pairs
        pairs.clear()
        assert len(default_ml_pairs(w)) == 63
        # three slopes, 21 thresholds each spanning v * window, and zero
        pairs = default_ml_pairs(Box((1.0,), (2.0,)))
        assert [q.v for q in pairs] == [0.5] * 22 + [1.0] * 22 + [2.0] * 22
        assert [q.t for q in pairs[:22]] == [0.0] + np.linspace(0.5, 1.0, 21).tolist()

    def test_default_pair_arrays_are_read_only_and_built_once(self, flat):
        # the route keeps one per-slope table of the default pairs, immutable
        p, w, eps = flat.problem, flat.problem.domain_window, DEFAULT_CONFIG.eps_feas
        ml_solution_check_1d(p, 0.0, 0.5)
        record = sets._window(p.objective, w, 201)
        kept = record.results["ml", eps]
        assert set(record.results) == {("ml", "table"), ("ml", eps)}
        assert kept == _ref_ml_slopes(p.objective, w, 201, eps)
        assert type(kept) is tuple and all(type(row) is tuple for entry in kept for row in entry[1:])
        assert {type(c) for _, ts, top in kept for c in (*ts, *top)} == {float}
        for x in (0.0, 1.5, 2.0):
            for form in ("M1", "M2"):
                ml_solution_check_1d(p, 0.0, x, form=form)
        assert record.results["ml", eps] is kept and len(record.results) == 2

    def test_solution_check_accepts_a_window_built_from_lists(self, flat):
        p = flat.problem
        w = p.domain_window
        listed = Problem(p.objective, p.feasible_set, 1, Box(list(w.lo), list(w.hi)))
        for x in (0.5, 1.0, 1.5):
            assert ml_solution_check_1d(listed, 0.0, x) == ml_solution_check_1d(p, 0.0, x)

    def test_solution_check_m2(self, flat):
        p = flat.problem
        assert ml_solution_check_1d(p, 0.0, 0.5)
        assert ml_solution_check_1d(p, 0.0, 1.0)
        assert not ml_solution_check_1d(p, 0.0, 1.5)

    def test_solution_check_m1(self, flat):
        p = flat.problem
        assert ml_solution_check_1d(p, 0.0, 0.5, form="M1")
        assert not ml_solution_check_1d(p, 0.0, 1.5, form="M1")

    def test_rejects_higher_dimensions(self, quadrant):
        with pytest.raises(DimensionError):
            ml_solution_check_1d(quadrant.problem, 0.0, 0.5)
        p = quadrant.problem
        with pytest.raises(DimensionError, match="n=1 only"):
            ml_member_1d(p.objective, 0.5, MLPair(1.0, 0.4), p.domain_window)

    def test_an_unknown_form_is_refused_before_any_evaluation(self, flat, monkeypatch):
        for route in ("evaluate", "evaluate_many", "_window"):
            monkeypatch.setattr(subdiff, route, _no_call)
        for x in (0.5, 1.5):  # a solution and a point that is none
            with pytest.raises(InputError, match="form must be 'M1' or 'M2'"):
                ml_solution_check_1d(flat.problem, 0.0, x, form="bogus")

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 2.0), (0.0, np.inf), (-np.inf, np.inf)])
    def test_an_infinite_window_is_refused_as_every_grid_is(self, flat, quadrant, lo, hi):
        p, window = flat.problem, Box((lo,), (hi,))
        wide = Problem(p.objective, p.feasible_set, 1, window)
        q = quadrant.problem
        plane = Problem(q.objective, q.feasible_set, 2, Box((lo, -1.0), (hi, 1.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy once warned on the infinite step
            with pytest.raises(InputError, match="a grid needs a finite window"):
                ml_member_1d(p.objective, 0.5, MLPair(1.0, 0.4), window)
            with pytest.raises(InputError, match="a grid needs a finite window"):
                ml_solution_check_1d(wide, 0.0, 0.5)
            with pytest.raises(InputError, match="a grid needs a finite window"):
                gp_solution_check(plane, quadrant.anchor, (0.0, -1.0))


def _ref_halfline_inf(f, pair, window, resolution, cfg):
    """Infimum of f over {y : v y >= t} clipped to the window grid, by
    scalar evaluate at each node of the region, with the edge-trend rule:
    where the region extends past a window edge and f still decreases
    outward there, -inf.  A nonempty region with no grid node reads -inf."""
    lo, hi = window.lo[0], window.hi[0]
    ys = np.linspace(lo, hi, resolution)
    step = (hi - lo) / (resolution - 1)
    trend = {"lo": (lo, lo + step), "hi": (hi, hi - step)}
    v, t = pair.v, pair.t
    if v > 0.0:
        cut = t / v
        mask = ys >= cut - cfg.eps_feas
        tail_edges = ["hi"] + (["lo"] if cut < lo else [])
    elif v < 0.0:
        cut = t / v
        mask = ys <= cut + cfg.eps_feas
        tail_edges = ["lo"] + (["hi"] if cut > hi else [])
    else:
        if t > 0.0:
            return float("inf")  # empty constraint region
        mask = np.ones_like(ys, dtype=bool)
        tail_edges = ["lo", "hi"]
    if not mask.any():
        return float("-inf")
    for edge in tail_edges:
        outer, inner = trend[edge]
        if evaluate(f, [outer]) < evaluate(f, [inner]) - cfg.eps_feas:
            return float("-inf")
    return float(min(evaluate(f, [y]) for y in ys[mask]))


def _ref_ml_member(f, x, pair, window, resolution=201, cfg=DEFAULT_CONFIG):
    """ml_member_1d by its definition: the pairing check, then f(x), then
    the halfline infimum of the pair."""
    if pair.v * x < pair.t - cfg.eps_feas:
        return False
    fx = evaluate(f, [x])
    return _ref_halfline_inf(f, pair, window, resolution, cfg) >= fx - cfg.eps_feas


def _ref_ml_slopes(f, window, resolution, eps):
    """The route's per-slope table from its definition: for each slope of
    default_ml_pairs, in order, its thresholds t - eps and the running
    maximum of their halfline infima, -inf first, as float tuples."""
    pairs = default_ml_pairs(window)
    table = subdiff._ml_window(f, window, resolution)[1]
    V, T = np.array([q.v for q in pairs]), np.array([q.t for q in pairs])
    infima = subdiff._halfline_infima(table, V, T, eps).tolist()
    slopes = []
    for v in (0.5, 1.0, 2.0):
        top = [-np.inf]
        for q, inf in zip(pairs, infima):
            if q.v == v:
                top.append(max(top[-1], inf))
        slopes.append((v, tuple(q.t - eps for q in pairs if q.v == v), tuple(top)))
    return tuple(slopes)


def _per_pair_check(p, xbar, x, resolution, form, cfg=DEFAULT_CONFIG, member=_ref_ml_member):
    """ml_solution_check_1d as the loop over the per-pair definition
    without a shared grid."""
    window = p.domain_window
    eps = cfg.eps_feas
    for pair in default_ml_pairs(window):
        if not member(p.objective, x, pair, window, resolution, cfg):
            continue
        if form == "M2":
            if pair.v * xbar >= pair.t - eps:
                return True
        elif member(p.objective, xbar, pair, window, resolution, cfg):
            return True
    return False


def _outcome(fn):
    try:
        return fn()
    except EvalError as exc:
        return type(exc)


class TestSharedWindowValues:
    def test_ml_check_equals_per_pair_loop(self, flat, monkeypatch):
        p = flat.problem
        xs = [float(x) for x in np.linspace(-0.5, 2.5, 121)]
        cases = [
            (resolution, form, xbar)
            for resolution in (201, 41, 7)
            for form in ("M1", "M2")
            for xbar in (0.0, 0.5, 1.5)
        ]
        got = {
            case: [ml_solution_check_1d(p, case[2], x, resolution=case[0], form=case[1])
                   for x in xs]
            for case in cases
        }
        # The reference memoizes the scalar evaluations and the per-pair
        # verdicts it repeats; both are pure, so the verdicts are those of
        # the plain loop.
        values = {}
        real_evaluate = evaluate

        def evaluate_once(f, x):
            key = float(x[0])
            if key not in values:
                values[key] = real_evaluate(f, x)
            return values[key]

        verdicts = {}

        def member_once(f, x, pair, window, resolution, cfg):
            key = (x, pair, resolution)
            if key not in verdicts:
                verdicts[key] = _ref_ml_member(f, x, pair, window, resolution, cfg)
            return verdicts[key]

        monkeypatch.setitem(globals(), "evaluate", evaluate_once)
        for resolution, form, xbar in cases:
            want = [
                _per_pair_check(p, xbar, x, resolution, form, member=member_once)
                for x in xs
            ]
            assert got[resolution, form, xbar] == want, (resolution, form, xbar)

    def test_partly_failing_objective(self):
        # sqrt(x1) fails on half the window: both entry points raise what
        # evaluate raises at the first failing node of the window, as the
        # GP grid does, whatever the pair, the point or the form
        pairs = [MLPair(1.0, t) for t in (0.2, 0.5, 0.8)] + [MLPair(-1.0, 0.3)]
        window = Box((-1.0,), (1.0,))
        for text in ("sqrt(x1)", "pw[x1 <= 0.25: x1]"):
            f = parse(text, 1)
            q = Problem(f, ConvexSetDescriptor(1, ()), 1, window)
            for resolution in (41, 7):
                nodes = np.linspace(-1.0, 1.0, resolution)
                first = next(y for y in nodes if _outcome(lambda: evaluate(f, [y])) is EvalError)
                with pytest.raises(EvalError) as want:
                    evaluate(f, [first])
                for form in ("M1", "M2"):
                    for xbar in (0.0, 0.5):
                        for x in np.linspace(-1.0, 1.0, 21):
                            with pytest.raises(EvalError) as got:
                                ml_solution_check_1d(
                                    q, xbar, float(x), resolution=resolution, form=form)
                            assert str(got.value) == str(want.value)
                for pair in pairs:
                    for x in (-0.5, 0.5, 2.0):
                        with pytest.raises(EvalError) as got:
                            ml_member_1d(f, x, pair, window, resolution)
                        assert str(got.value) == str(want.value)

    def test_resolution_validation(self, flat):
        with pytest.raises(ValueError):
            ml_solution_check_1d(flat.problem, 0.0, 0.5, resolution=1)

    def test_gp_grid_values_are_the_scalar_values(self, quadrant):
        f, w = quadrant.problem.objective, quadrant.problem.domain_window
        vals = subdiff._grid_values(f, w, 21).values
        assert [v.hex() for v in vals.tolist()] == [
            evaluate(f, x).hex() for x in grid_nodes(w, 21)
        ]
        g = parse("sqrt(x1) + x2", 2)
        with pytest.raises(EvalError) as batch:
            subdiff._grid_values(g, w, 5)
        with pytest.raises(EvalError) as scalar:
            [evaluate(g, x) for x in grid_nodes(w, 5)]
        assert str(batch.value) == str(scalar.value)


# ---------------------------------------------------------------------------
# The array routes against per-point and per-pair references
# ---------------------------------------------------------------------------


def _ref_gp_member(f, x0, v, grid, eps):
    """The per-point GP loop."""
    X, values = grid.X, grid.values
    f0 = evaluate(f, x0)
    for x, fx in zip(X, values):
        if _dot(v, x - x0) >= -eps and fx < f0 - eps:
            return False
    return True


def _ref_gp_check(p, xbar, x, candidates, grid, cfg):
    """The per-candidate GP loop; a point outside the feasible set has no
    witness."""
    eps = cfg.eps_feas
    xb, xv = np.asarray(xbar, dtype=float), np.asarray(x, dtype=float)
    if not sets.contains(p.feasible_set, xv, eps):
        return False
    for v in candidates:
        v = np.asarray(v, dtype=float)
        if abs(_dot(v, xv - xb)) > eps:
            continue
        if _ref_gp_member(p.objective, xb, v, grid, eps) and (
            _ref_gp_member(p.objective, xv, v, grid, eps)
        ):
            return True
    return False


def test_gp_route_equals_per_point_loop(quadrant):
    p, xbar = quadrant.problem, quadrant.anchor
    grid = subdiff._grid_values(p.objective, p.domain_window, 21)
    assert grid.X.shape == (441, 2)
    # equal components make exact ties with the left-to-right dot product
    custom = [(1.0, 0.0), (0.0, -1.0), (0.6, 0.6), (0.3, -0.3), (0.7, 0.1), (-0.6, 0.8)]
    seen = set()
    for cfg in (DEFAULT_CONFIG, Config(eps_feas=0.0)):
        for x in grid.X:
            cands = default_gp_candidates(p.objective, xbar, x, 2, cfg)
            got = gp_solution_check(p, xbar, x, _grid=grid, cfg=cfg)
            assert got is _ref_gp_check(p, xbar, x, cands, grid, cfg), (cfg, x)
            seen.add(got)
        for x in grid.X[::7]:
            for v in custom:
                got = gp_member(p.objective, x, v, p.domain_window, cfg=cfg)
                assert got is _ref_gp_member(p.objective, x, np.asarray(v), grid, cfg.eps_feas)
    assert seen == {True, False}


@pytest.mark.parametrize("name, x", [("ex2_1", (3.0, 0.0)), ("ex2_4", (-1.0, 0.0))])
def test_gp_route_refuses_a_point_outside_the_feasible_set(name, x, monkeypatch):
    e = get_example(name)
    p = e.problem
    # without its feasible set, the grid has a witness for the point
    free = Problem(p.objective, ConvexSetDescriptor(2, ()), 2, p.domain_window)
    assert gp_solution_check(free, e.anchor, x)
    for route in ("evaluate", "evaluate_many", "grad", "_point", "_anchor_record"):
        monkeypatch.setattr(subdiff, route, _no_call)
    assert gp_solution_check(p, e.anchor, x) is False


def test_ml_route_refuses_a_point_outside_the_feasible_set(flat, monkeypatch):
    # f = (x1 - 1)^2 is at its least over the window's part of x1 >= 1.5
    # at 1.5, so some pair holds there once [0, 1] no longer bounds x
    p = flat.problem
    narrow = Problem(p.objective, ConvexSetDescriptor(1, (Box((0.0,), (1.0,)),)), 1,
                     p.domain_window)
    for form in ("M1", "M2"):
        assert ml_solution_check_1d(p, 1.5, 1.5, form=form)
    for route in ("evaluate", "evaluate_many", "grad", "_window"):
        monkeypatch.setattr(subdiff, route, _no_call)
    for form in ("M1", "M2"):
        assert ml_solution_check_1d(narrow, 1.5, 1.5, form=form) is False
        assert ml_solution_check_1d(p, 0.0, -0.5, form=form) is False
        assert ml_solution_check_1d(p, 0.0, 2.5, form=form) is False


@pytest.mark.parametrize("xbar, x, name", [
    (np.inf, 0.5, "xbar"), (np.nan, 0.5, "xbar"), (0.0, np.nan, "x"), (0.0, -np.inf, "x"),
    (np.float64("nan"), np.float64(0.5), "xbar"),
])
def test_ml_routes_refuse_a_non_finite_point(flat, monkeypatch, xbar, x, name):
    # an infinite anchor once certified 0.5 under M2, and a NaN x read as
    # not feasible; the GP route refuses both through as_point
    p = flat.problem
    for route in ("evaluate", "evaluate_many", "_window"):
        monkeypatch.setattr(subdiff, route, _no_call)
    message = rf"^{name} \({re.escape(repr(float(dict(xbar=xbar, x=x)[name])))},\) has non-finite entries$"
    for form in ("M1", "M2"):
        with pytest.raises(InputError, match=message):
            ml_solution_check_1d(p, xbar, x, form=form)
    if name == "x":
        with pytest.raises(InputError, match=r"^x \(.*,\) has non-finite entries$"):
            ml_member_1d(p.objective, x, MLPair(1.0, 0.4), p.domain_window)


def test_ml_routes_read_a_real_as_the_float_it_names(flat):
    # each point is read once into a float: a Decimal once raised numpy's
    # TypeError in the pairing test
    p, w, pair = flat.problem, flat.problem.domain_window, MLPair(1.0, 0.4)
    for real in (Decimal("0.5"), Fraction(3, 2), np.float32(0.5), np.array(1.0), True):
        for form in ("M1", "M2"):
            assert ml_solution_check_1d(p, real, real, form=form) is ml_solution_check_1d(
                p, float(real), float(real), form=form)
            assert ml_solution_check_1d(p, real, 0.5, form=form) is ml_solution_check_1d(
                p, float(real), 0.5, form=form)
        assert ml_member_1d(p.objective, real, pair, w) is ml_member_1d(p.objective, float(real), pair, w)


def test_ml_route_refuses_a_window_whose_thresholds_are_not_finite():
    # 2 * 1.7e308 overflows: linspace once made 20 NaN thresholds of the 66,
    # with numpy's RuntimeWarning, and the per-slope table's bisection
    # assumes that they ascend
    w = Box((1e308,), (1.7e308,))
    p = Problem(parse("x1", 1), ConvexSetDescriptor(1), 1, w)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="non-finite thresholds at slope 2.0$"):
            default_ml_pairs(w)
        for form in ("M1", "M2"):
            with pytest.raises(InputError, match="non-finite thresholds at slope 2.0$"):
                ml_solution_check_1d(p, 1.2e308, 1.5e308, form=form)
        # a single pair reads no default pairs, so it still answers there
        assert ml_member_1d(p.objective, 1.5e308, MLPair(1.0, 1.2e308), w) is False


def test_ml_routes_refuse_a_point_that_is_not_one_real(flat):
    # x and xbar are points of one coordinate, read as every entry reads a
    # point: a one-entry sequence or a numeric string is the real it holds
    p, w, pair = flat.problem, flat.problem.domain_window, MLPair(1.0, 0.4)
    for xbar, x, message in (([0.0, 0.0], 0.5, "^xbar has dimension 2, expected 1$"),
                             (0.0, [[0.5]], r"^x has shape \(1, 1\), expected a flat sequence$")):
        with pytest.raises(DimensionError, match=message):
            ml_solution_check_1d(p, xbar, x)
    with pytest.raises(DimensionError, match=r"^x has dimension 2, expected 1$"):
        ml_member_1d(p.objective, [0.5, 0.5], pair, w)
    for form in ("M1", "M2"):
        want = ml_solution_check_1d(p, 0.0, 0.5, form=form)
        assert ml_solution_check_1d(p, [0.0], "0.5", form=form) is want
    assert ml_member_1d(p.objective, ["0.5"], pair, w) is ml_member_1d(p.objective, 0.5, pair, w)


def test_gp_routes_refuse_a_bad_point_in_order(quadrant, monkeypatch):
    # the resolution first, then xbar, then x, each before anything is evaluated
    p, f, w = quadrant.problem, quadrant.problem.objective, quadrant.problem.domain_window
    for route in ("evaluate", "evaluate_many", "grad", "_point", "_anchor_record", "_window", "_holds"):
        monkeypatch.setattr(subdiff, route, _no_call)
    nan, short, good = (np.nan, 0.0), (1.0,), (0.0, 0.0)
    non_finite = (InputError, r"^point \(nan, 0.0\) has non-finite entries$")
    wrong_size = (DimensionError, r"^point has dimension 1, expected 2$")
    for xbar, x, resolution, (error, message) in [
        (nan, short, 2, (InputError, r"^resolution must be >= 3$")),
        (nan, short, 21, non_finite), (short, nan, 21, wrong_size),
        (good, nan, 21, non_finite), (good, short, 21, wrong_size),
    ]:
        with pytest.raises(error, match=message):
            gp_solution_check(p, xbar, x, resolution=resolution)
        if xbar is not good:  # gp_member reads its one point the same way
            with pytest.raises(error, match=message):
                gp_member(f, xbar, (1.0, 0.0), w, resolution=resolution)
    monkeypatch.setattr(subdiff, "_holds", sets._holds)
    assert gp_solution_check(p, good, (-1.0, 0.0)) is False  # outside x1 >= 0


@pytest.mark.parametrize("scale", ["1", "1e-9"])
def test_gp_route_ties_on_the_value_side(scale):
    # integer nodes and a flat bottom: values repeat, and f(x) - eps lands
    # exactly on some (f(x) itself at eps_feas 0, 1e-9 - 1e-9 at the default)
    f = parse(f"pw[x1 + x2 <= 0: 0; x1 + x2 >= 0: {scale} * (x1 + x2)^2]", 2)
    w = Box((-4.0, -4.0), (4.0, 4.0))
    p, xbar = Problem(f, ConvexSetDescriptor(2, ()), 2, w), (-4.0, -4.0)
    nodes = grid_nodes(w, 9)
    ties = 0
    for cfg in (DEFAULT_CONFIG, Config(eps_feas=0.0)):
        grid = subdiff._grid_values(f, w, 9)
        for x in nodes:
            ties += np.count_nonzero(grid.values == evaluate(f, x) - cfg.eps_feas) > 1
            cands = default_gp_candidates(f, xbar, x, 2, cfg)
            want = _ref_gp_check(p, xbar, x, cands, grid, cfg)
            members = [_ref_gp_member(f, x, v, grid, cfg.eps_feas) for v in cands]
            for cold in (True, False):
                if cold:
                    sets._KEPT.clear()
                assert gp_solution_check(p, xbar, x, resolution=9, cfg=cfg) is want, (cfg, x)
                assert [gp_member(f, x, v, w, 9, cfg) for v in cands] == members, (cfg, x)
    assert ties > 0


def test_gp_route_tests_x_unit_gradient(monkeypatch):
    # at these points only x's unit gradient is a shared subgradient on the
    # 5-node grid, so a route that drops that row reads them as no solution
    e, cfg = get_example("ex2_1"), Config(eps_feas=0.2)
    p, xbar = e.problem, e.anchor
    grid = subdiff._grid_values(p.objective, p.domain_window, 5)
    rays = len(_parent_gp_candidates(parse("0", 2), xbar, xbar, 2, cfg))  # no unit gradient
    needs_x_row = 0
    for x in grid_nodes(p.domain_window, 9):
        cands = default_gp_candidates(p.objective, xbar, x, 2, cfg)
        want = _ref_gp_check(p, xbar, x, cands, grid, cfg)
        assert gp_solution_check(p, xbar, x, resolution=5, cfg=cfg) is want, x
        if len(cands) == rays + 2:  # both unit gradients, x's last
            needs_x_row += want and not _ref_gp_check(p, xbar, x, cands[:-1], grid, cfg)
    assert needs_x_row > 0


def _no_call(*args, **kwargs):
    raise AssertionError("nothing is evaluated here")


def test_gp_rejects_directions_of_another_dimension(quadrant):
    # a NaN direction was once certified as a subgradient where (-1, 0) is not
    p, xbar = quadrant.problem, quadrant.anchor
    for v in ((1.0,), (1.0, 0.0, 0.0), (), [[1.0, 0.0]], (np.nan, 0.0), (-np.inf, 0.0)):
        with pytest.raises(InputError, match="a direction must have 2 finite entries"):
            gp_member(p.objective, xbar, v, p.domain_window)


def _parent_gp_candidates(f, xbar, x, dimension, cfg):
    """default_gp_candidates as a list, row by row: the reference for the
    one array the route builds."""
    cands = []
    for i in range(dimension):
        unit = np.zeros(dimension)
        unit[i] = 1.0
        cands.append(unit)
    if dimension >= 2:
        for combo in ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 3.0), (3.0, 1.0)):
            vec = np.ones(dimension)
            vec[0], vec[1] = combo
            cands.append(vec)
    for point in (xbar, x):
        g = grad(f, np.asarray(point, dtype=float), dimension)
        nrm = _norm(g)
        if nrm > cfg.eps_grad:
            cands.append(g / nrm)
    return cands


def test_default_gp_candidates_keep_the_parents_order_and_verdicts(quadrant):
    p, xbar, cfg = quadrant.problem, quadrant.anchor, DEFAULT_CONFIG
    grid = subdiff._grid_values(p.objective, p.domain_window, 21)
    seen = set()
    for x in grid_nodes(p.domain_window, 21):
        want = _parent_gp_candidates(p.objective, xbar, x, 2, cfg)
        got = default_gp_candidates(p.objective, xbar, x, 2, cfg)
        assert got.tobytes() == np.array(want).tobytes()
        verdict = gp_solution_check(p, xbar, x)
        assert verdict is _ref_gp_check(p, xbar, x, want, grid, cfg), x
        seen.add(verdict)
    assert seen == {True, False}
    for dim in (1, 3):  # a zero gradient adds no direction to the rays
        f, zero = parse("0", dim), np.zeros(dim)
        rays = default_gp_candidates(f, zero, zero, dim)
        assert rays.tobytes() == np.array(_parent_gp_candidates(f, zero, zero, dim, cfg)).tobytes()
        # each call builds its own array: writing into one leaves the next alone
        again = default_gp_candidates(f, zero, zero, dim)
        assert again is not rays and again.tobytes() == rays.tobytes()
        rays[...] = 7.0
        assert default_gp_candidates(f, zero, zero, dim).tobytes() == again.tobytes()


def test_gp_grids_are_kept_read_only_per_window(quadrant):
    f, w = quadrant.problem.objective, quadrant.problem.domain_window
    grid = subdiff._grid_values(f, w, 21)
    assert subdiff._grid_values(f, Box(tuple(w.lo), tuple(w.hi)), 21) is grid
    assert not grid.X.flags.writeable and not grid.values.flags.writeable
    # a -0.0 upper bound is the last node on its axis
    up, down = (Box(w.lo, (2.0, z)) for z in (0.0, -0.0))
    assert up == down
    a, b = subdiff._grid_values(f, up, 5), subdiff._grid_values(f, down, 5)
    assert a is not b and a.X.tolist() == b.X.tolist() and a.X.tobytes() != b.X.tobytes()


def test_gp_grids_count_toward_the_shared_row_bound(quadrant):
    f, w = quadrant.problem.objective, quadrant.problem.domain_window
    p = get_example("ex2_3").problem
    feasible = kkt._grid(p, 700, DEFAULT_CONFIG)
    grid = subdiff._grid_values(f, w, 830)
    assert len(feasible.X) + len(grid.X) > MAX_GRID_NODES
    assert [sets._held(*entry) for entry in sets._KEPT.values()] == [len(grid.X)]
    # each evicts the other when it is evaluated again
    assert kkt._grid(p, 700, DEFAULT_CONFIG) is not feasible
    again = subdiff._grid_values(f, w, 830)
    assert again is not grid
    grid = again
    # each derived result counts the rows it holds: the value order the
    # grid's, the anchor side its few float rows; past the bound together,
    # the grid goes at the next miss, however few rows that holds
    assert not gp_solution_check(quadrant.problem, quadrant.anchor, (1.0, 1.0), 830)
    anchor = kkt._anchor_record(quadrant.problem, quadrant.anchor, DEFAULT_CONFIG)
    assert set(grid.results) == {("gp", "order"), ("gp", anchor)}
    side = len(grid.results["gp", anchor])
    assert 0 < side <= 8 and 2 * len(grid.X) > MAX_GRID_NODES
    assert [sets._held(*entry) for entry in sets._KEPT.values()] == [2 * len(grid.X) + side, 0]
    small = subdiff._grid_values(f, w, 5)
    assert [record for record, _ in sets._KEPT.values()] == [anchor, small]


def test_a_gp_side_counts_its_own_rows(quadrant):
    # on ex2_4's 21-grid: the nodes, the value order and the side's 7 rows
    p, xbar = quadrant.problem, quadrant.anchor
    assert gp_solution_check(p, xbar, (0.0, -1.0))
    (grid,) = [record for key, (record, _) in sets._KEPT.items() if key[0] == "window"]
    anchor = kkt._anchor_record(p, xbar, DEFAULT_CONFIG)
    assert len(grid.X) == 441 and len(grid.results["gp", anchor]) == 7
    assert sum(sets._held(*entry) for entry in sets._KEPT.values()) == 441 + 441 + 7
    # a window of 633^2 nodes that has answered a GP check holds 801,378
    # rows and its side's: within the bound, it outlives the next miss
    big = subdiff._grid_values(p.objective, p.domain_window, 633)
    assert not gp_solution_check(p, xbar, (1.0, 1.0), 633)
    held = sets._held(big, lambda record: len(record.X))
    assert 2 * 633 ** 2 < held <= 2 * 633 ** 2 + 8 < MAX_GRID_NODES
    subdiff._grid_values(p.objective, p.domain_window, 5)
    assert any(record is big for record, _ in sets._KEPT.values())
    assert sum(sets._held(*entry) for entry in sets._KEPT.values()) == held + 889 + 25


def test_a_kept_ml_window_is_evaluated_once(flat, grid_work, monkeypatch):
    batches = []
    real = subdiff.evaluate_many

    def counted(f, X):
        batches.append(len(X))
        return real(f, X)

    monkeypatch.setattr(subdiff, "evaluate_many", counted)
    monkeypatch.setattr(sets, "evaluate_many", counted)
    p = flat.problem
    assert ml_solution_check_1d(p, 0.0, 0.5)
    assert batches == [201, 4]  # the window record's nodes, then the four edge-trend points
    assert ml_solution_check_1d(p, 0.0, 0.5) and not ml_solution_check_1d(p, 0.0, 1.5, form="M1")
    assert not ml_member_1d(p.objective, 1.5, MLPair(1.0, 0.0), p.domain_window)
    # the GP route reads the record's values, and the feasible grid its
    # nodes, with f found on the feasible rows alone
    gp_member(p.objective, (0.5,), (1.0,), p.domain_window, 201)
    feasible = brute_force_solutions(p, 201).grid_size
    assert batches == [201, 4, feasible] and grid_work["grids"] == [201]
    assert ml_solution_check_1d(p, 0.0, 0.5, resolution=41)  # another resolution, another window
    assert batches == [201, 4, feasible, 41, 4] and grid_work["grids"] == [201, 41]


@pytest.mark.parametrize("order", list(itertools.permutations(("feasible", "gp", "ml"))))
def test_a_window_builds_its_nodes_once_whichever_question_comes_first(flat, grid_work, order):
    p = flat.problem
    ask = {"feasible": lambda: kkt.feasible_grid(p, 201).tolist(),
           "gp": lambda: gp_member(p.objective, (1.5,), (-1.0,), p.domain_window, 201),
           "ml": lambda: ml_solution_check_1d(p, 0.0, 0.5)}
    answers = [ask[name]() for name in order]
    # the window's record, and the feasible grid kept beside it
    assert grid_work["grids"] == [201] and [key[0] for key in sets._KEPT] == ["window", "window"]
    for name, answer in zip(order, answers):
        sets._KEPT.clear()
        assert ask[name]() == answer, name


def test_ml_windows_are_kept_read_only_per_window(flat):
    f, w = flat.problem.objective, flat.problem.domain_window
    window, record = subdiff._ml_window(f, w, 201)
    assert subdiff._ml_window(f, Box(tuple(w.lo), tuple(w.hi)), 201) == (window, record)
    assert window.results["ml", "table"] is record
    ys, minima, edges = record
    assert not ys.flags.writeable and not minima.flags.writeable
    assert isinstance(edges, tuple) and all(type(v) is float for v in edges)
    # a -0.0 upper bound is the last node
    up, down = (Box((-2.0,), (z,)) for z in (0.0, -0.0))
    assert up == down
    a, b = subdiff._ml_window(f, up, 5)[1], subdiff._ml_window(f, down, 5)[1]
    assert a is not b and a[0].tolist() == b[0].tolist() and a[0].tobytes() != b[0].tobytes()
    assert [key[0] for key in sets._KEPT] == ["window"] * 3


def test_warm_ml_verdicts_equal_cold_ones(flat):
    p, xbar = flat.problem, flat.anchor[0]
    pairs = default_ml_pairs(p.domain_window)

    def verdicts(cold):
        got = []
        for x in grid_nodes(p.domain_window, flat.resolution)[:, 0].tolist():
            for form in ("M1", "M2"):
                if cold:
                    sets._KEPT.clear()
                got.append(ml_solution_check_1d(p, xbar, x, form=form))
            for pair in pairs:
                if cold:
                    sets._KEPT.clear()
                got.append(ml_member_1d(p.objective, x, pair, p.domain_window))
        return got

    warm = verdicts(cold=False)
    assert len(sets._KEPT) == 1 and warm == verdicts(cold=True)
    assert set(warm) == {True, False}


def test_ml_infima_are_kept_per_eps_feas(flat):
    # the default pairs' infima on one window differ between these values
    # (cuts fall on grid nodes), so a call must never read another's table
    p, xbar = flat.problem, flat.anchor[0]
    cfgs = (DEFAULT_CONFIG, Config(eps_feas=0.0), Config(eps_feas=0.2))
    xs = grid_nodes(p.domain_window, flat.resolution)[:, 0].tolist()
    want = {cfg: _ref_ml_slopes(p.objective, p.domain_window, 201, cfg.eps_feas) for cfg in cfgs}

    def verdicts(cold):
        got = {(cfg, form): [] for cfg in cfgs for form in ("M1", "M2")}
        kept = {}
        for x in xs:
            for cfg, form in got:  # the values alternate on the one kept window
                if cold:
                    sets._KEPT.clear()
                got[cfg, form].append(ml_solution_check_1d(p, xbar, x, cfg=cfg, form=form))
                window = subdiff._ml_window(p.objective, p.domain_window, 201)[0]
                slopes = window.results["ml", cfg.eps_feas]
                assert slopes == want[cfg]
                if not cold:  # built once per eps_feas, then read
                    assert kept.setdefault(cfg, slopes) is slopes
        # the window's table and one per-slope table per eps_feas, kept side by side
        assert len(window.results) == 1 + (1 if cold else len(cfgs))
        return got

    warm = verdicts(cold=False)
    assert len(sets._KEPT) == 1 and warm == verdicts(cold=True)
    assert warm[cfgs[0], "M2"] != warm[cfgs[2], "M2"]
    tops = [[top for _, _, top in want[cfg]] for cfg in cfgs]
    assert tops[0] != tops[1] != tops[2] != tops[0]


def test_warm_gp_verdicts_equal_cold_ones(quadrant):
    # two anchors and two configs take turns on one grid, whose kept side
    # each must replace
    p = quadrant.problem
    grid = subdiff._grid_values(p.objective, p.domain_window, 21)
    questions = [(xbar, cfg) for xbar in (quadrant.anchor, (0.3, 0.3))
                 for cfg in (DEFAULT_CONFIG, Config(eps_feas=0.0))]
    nodes = grid_nodes(p.domain_window, 21)
    warm = [gp_solution_check(p, xbar, x, cfg=cfg, _grid=grid)
            for x in nodes for xbar, cfg in questions]
    cold = []
    for x in nodes:
        for xbar, cfg in questions:
            sets._KEPT.clear()  # the grid, the anchor's record and its side go
            cold.append(gp_solution_check(p, xbar, x, cfg=cfg))
    assert warm == cold and set(warm) == {True, False}
    assert warm == [gp_solution_check(p, xbar, x, cfg=cfg)
                    for x in nodes for xbar, cfg in questions]


def test_a_callers_grid_is_answered_from_that_grid(quadrant):
    # at this anchor the 5-node grid misses witnesses the 21-node grid has,
    # so a side kept for one grid answers some node wrongly for the other
    p, xbar, cfg = quadrant.problem, (0.3, 0.3), DEFAULT_CONFIG
    coarse = subdiff._grid_values(p.objective, p.domain_window, 5)
    fine = subdiff._grid_values(p.objective, p.domain_window, 21)
    differ = 0
    for x in grid_nodes(p.domain_window, 21):
        cands = default_gp_candidates(p.objective, xbar, x, 2, cfg)
        want_coarse = _ref_gp_check(p, xbar, x, cands, coarse, cfg)
        want_fine = _ref_gp_check(p, xbar, x, cands, fine, cfg)
        # the call's own resolution (21) names the fine grid
        assert gp_solution_check(p, xbar, x) is want_fine
        assert gp_solution_check(p, xbar, x, _grid=coarse) is want_coarse
        assert gp_solution_check(p, xbar, x, _grid=fine) is want_fine
        differ += want_coarse is not want_fine
    assert differ > 0


def test_a_kept_gp_side_goes_with_its_grid(quadrant):
    p, xbar = quadrant.problem, quadrant.anchor
    assert gp_solution_check(p, xbar, (0.0, -1.0))
    (grid,) = [record for key, (record, _) in sets._KEPT.items() if key[0] == "window"]
    anchor = kkt._anchor_record(p, xbar, DEFAULT_CONFIG)
    assert set(grid.results) == {("gp", "order"), ("gp", anchor)}
    # the value order: the values ascending (stable), the columns in that order
    values, cols = grid.results["gp", "order"]
    order = np.argsort(grid.values, kind="stable")
    assert values.tobytes() == grid.values[order].tobytes()
    assert cols.tobytes() == grid.X[order].T.tobytes()
    assert not values.flags.writeable and not cols.flags.writeable
    # the anchor side: float rows, at most the 8 candidates at xbar
    kept = grid.results["gp", anchor]
    assert 0 < len(kept) <= 8 and {type(c) for row in kept for c in row} == {float}
    refs = [weakref.ref(a) for a in (grid, grid.X, values, cols, anchor)]
    del grid, values, cols, anchor, kept
    f = parse("x1", 1)
    for k in range(512):  # as many records as the store holds evict it by LRU
        sets._window(f, Box((float(k),), (k + 1.0,)), 2)
    gc.collect()
    # the grid went with its order and with the tag (its anchor record) of its side
    assert [ref() for ref in refs] == [None] * 5


def test_a_window_where_f_fails_keeps_no_values():
    f, w = parse("pw[x1 <= 1: x1]", 1), Box((0.0,), (2.0,))
    p = Problem(f, ConvexSetDescriptor(1, ()), 1, w)
    for _ in range(2):
        with pytest.raises(EvalError, match=r"point \(1.01,\) outside every piecewise guard"):
            ml_solution_check_1d(p, 0.0, 0.5)
        with pytest.raises(EvalError, match=r"point \(1.01,\) outside every piecewise guard"):
            ml_member_1d(f, 0.5, MLPair(1.0, 0.0), w)
    # the window's nodes are kept, and nothing found from f
    (window,) = [record for record, _ in sets._KEPT.values()]
    assert "values" not in vars(window) and not getattr(window, "results", {})
    with pytest.raises(DimensionError):  # refused before the store is read
        subdiff._ml_window(f, Box((0.0, 0.0), (1.0, 1.0)), 5)
    assert len(sets._KEPT) == 1


def test_a_failing_edge_point_keeps_no_table():
    # f fails at the edge-trend point hi - step = 1 - 1/3, which rounds
    # above the grid node 2/3, and at no node
    f, w = parse("1 / (x1 - 0.6666666666666667)", 1), Box((0.0,), (1.0,))
    assert 1.0 - 1.0 / 3.0 != grid_nodes(w, 4)[2, 0]
    for _ in range(2):
        with pytest.raises(EvalError, match="division by zero"):
            ml_member_1d(f, 0.5, MLPair(1.0, 0.0), w, 4)
    (window,) = [record for record, _ in sets._KEPT.values()]
    assert "values" in vars(window) and not getattr(window, "results", {})


def test_ml_windows_count_toward_the_shared_row_bound(flat, quadrant):
    f, w = quadrant.problem.objective, quadrant.problem.domain_window
    grid = subdiff._grid_values(f, w, 830)
    resolution = MAX_GRID_NODES - len(grid.X) + 1
    window, _ = subdiff._ml_window(flat.problem.objective, flat.problem.domain_window, resolution)
    # the GP grid went at the ML window's miss; the table counts its nodes once more
    assert [sets._held(*entry) for entry in sets._KEPT.values()] == [2 * resolution]
    # each evicts the other when it is evaluated again
    assert subdiff._grid_values(f, w, 830) is not grid
    assert subdiff._ml_window(flat.problem.objective, flat.problem.domain_window,
                              resolution)[0] is not window


def test_ml_route_equals_per_pair_loop_on_custom_pairs(monkeypatch):
    window = Box((-1.0,), (1.5,))
    resolution = 11
    ys = [float(y) for y in np.linspace(-1.0, 1.5, resolution)]
    # v < 0, v = 0 and v > 0; t > 0 with v = 0; cuts outside the window
    # on both sides; and cuts exactly at grid nodes, where the side of
    # each comparison decides which node the halfline takes
    pairs = [MLPair(v, t) for v in (-2.0, -0.5, 0.0, 0.5, 2.0)
             for t in (-5.0, -1.0, 0.0, 0.3, 5.0)]
    pairs += [MLPair(1.0, y) for y in ys] + [MLPair(-1.0, -y) for y in ys]
    # v < 0 with the cut just past either edge: the region y <= cut lies
    # left of the window (the trend at lo decides) or covers it
    pairs += [MLPair(v, v * cut) for v in (-1.0, -3.0) for cut in (-1.01, 1.51)]
    values = {}
    real_evaluate = evaluate

    def evaluate_once(f, x):  # the reference makes the same few calls often
        key = (id(f), float(x[0]))
        if key not in values:
            values[key] = real_evaluate(f, x)
        return values[key]

    monkeypatch.setitem(globals(), "evaluate", evaluate_once)
    seen = set()
    for text in ("(x1 - 0.2)^2 - x1^3", "abs(x1 - 0.5)", "x1", "-x1"):
        p = Problem(parse(text, 1), ConvexSetDescriptor(1, ()), 1, window)
        for cfg in (DEFAULT_CONFIG, Config(eps_feas=0.0)):
            verdicts = {}

            def member_once(f, y, pair, window, resolution, cfg):
                if (pair, y) not in verdicts:
                    verdicts[pair, y] = _ref_ml_member(f, y, pair, window, resolution, cfg)
                return verdicts[pair, y]

            for pair in pairs:  # the one-pair case on every kind of pair
                for y in ys + [-2.0, 2.0]:
                    got = ml_member_1d(p.objective, y, pair, window, resolution, cfg)
                    assert got is member_once(p.objective, y, pair, window, resolution, cfg), (
                        text, cfg, pair, y)
            for xbar in (-1.0, 0.2, 1.5):  # the route on its default pairs
                for x in ys + [-2.0, 2.0]:
                    for form in ("M1", "M2"):
                        got = ml_solution_check_1d(p, xbar, x, resolution, cfg, form)
                        want = _per_pair_check(p, xbar, x, resolution, form, cfg, member_once)
                        assert got is want, (text, cfg, xbar, x, form)
                        seen.add(got)
    assert seen == {True, False}


def test_ml_region_outside_the_window_certifies_nothing():
    # a region {y : v y >= t} with no window node reads -inf on either
    # side, whatever the trend at the window's edges
    f, w, cfg = parse("x1", 1), Box((0.0,), (1.0,)), DEFAULT_CONFIG
    g = parse("-x1", 1)
    for h in (f, g):
        assert _ref_halfline_inf(h, MLPair(-1.0, 0.5), w, 201, cfg) == float("-inf")
        assert _ref_halfline_inf(h, MLPair(1.0, 1.5), w, 201, cfg) == float("-inf")
    assert not ml_member_1d(f, -1.0, MLPair(-1.0, 1.0), w)
    assert not ml_member_1d(f, 2.0, MLPair(1.0, 2.0), w)
    # inf of -y over y <= -0.5 is 0.5, below f(-1) = 1
    assert not ml_member_1d(g, -1.0, MLPair(-2.0, 1.0), w)
    # a region that meets the window reads its grid minimum
    assert _ref_halfline_inf(f, MLPair(1.0, 0.5), w, 201, cfg) == 0.5
    table = subdiff._ml_window(f, w, 201)[1]
    V, T = np.array([-1.0, 1.0, -2.0, 1.0]), np.array([0.5, 1.5, 3.0, 0.5])
    want = [_ref_halfline_inf(f, MLPair(v, t), w, 201, cfg) for v, t in zip(V, T)]
    assert subdiff._halfline_infima(table, V, T, cfg.eps_feas).tolist() == want


def test_ml_member_refuses_a_window_of_fewer_than_two_nodes(flat):
    f, w = flat.problem.objective, flat.problem.domain_window
    for resolution in (0, 1):
        with pytest.raises(ValueError):
            ml_member_1d(f, 0.5, MLPair(1.0, 0.4), w, resolution)


def test_ml_route_refuses_a_grid_above_the_cap_before_allocating(flat):
    f, w = flat.problem.objective, flat.problem.domain_window
    over = MAX_GRID_NODES + 1
    message = rf"a grid of {over}\^1 nodes exceeds the limit of {MAX_GRID_NODES} nodes"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            ml_solution_check_1d(flat.problem, 0.0, 0.5, resolution=over)
        with pytest.raises(ValueError, match=message):
            ml_member_1d(f, 0.5, MLPair(1.0, 0.4), w, over)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# The ML route against its per-pair definition on generated cases
# ---------------------------------------------------------------------------

_QUARTERS = st.integers(-12, 12).map(lambda k: k / 4)  # exact ties happen


@st.composite
def _ml_cases(draw):
    """A smooth, kinked or piecewise objective, a window, a resolution,
    pairs of each sign of v whose cuts fall on grid nodes, past either
    edge or anywhere, and points inside and outside the window."""
    a, b, c = (f"({draw(_QUARTERS)})" for _ in range(3))
    text = draw(st.sampled_from([
        f"{a} * (x1 - {c})^2 + {b} * x1^3",
        f"{a} * abs(x1 - {c}) + {b} * x1",
        f"pw[x1 <= {c}: {a} * (x1 - {c}); x1 >= {c}: {b} * (x1 - {c})^2]",
    ]))
    lo = draw(_QUARTERS)
    hi = lo + draw(st.integers(1, 16)) / 4
    resolution = draw(st.integers(2, 201))
    ys = np.linspace(lo, hi, resolution)

    def place():
        kind = draw(st.sampled_from(["node", "below", "above", "free"]))
        if kind == "node":
            return float(ys[draw(st.integers(0, resolution - 1))])
        if kind == "free":
            return draw(_QUARTERS)
        past = draw(st.sampled_from([1e-3, 0.25, 2.0]))
        return lo - past if kind == "below" else hi + past

    pairs = []
    for _ in range(draw(st.integers(1, 5))):
        v = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]))
        t = draw(_QUARTERS) if v == 0.0 else v * place()
        pairs.append(MLPair(v, t))
    xs = [place() for _ in range(draw(st.integers(1, 3)))]
    eps = draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    return text, Box((lo,), (hi,)), resolution, pairs, xs, place(), Config(eps_feas=eps)


@given(_ml_cases())
@settings(max_examples=80, deadline=None)
def test_ml_route_equals_its_definition(case):
    # the one-pair case against the definition on the drawn pairs, and the
    # route against the loop of the one-pair case over its default pairs
    text, window, resolution, pairs, xs, xbar, cfg = case
    f = parse(text, 1)
    p = Problem(f, ConvexSetDescriptor(1, ()), 1, window)
    V, T = np.array([[pair.v, pair.t] for pair in pairs]).T
    table = subdiff._ml_window(f, window, resolution)[1]
    infima = subdiff._halfline_infima(table, V, T, cfg.eps_feas)
    assert infima.tolist() == [
        _ref_halfline_inf(f, pair, window, resolution, cfg) for pair in pairs
    ]
    for x in xs:
        for pair in pairs:
            want = _ref_ml_member(f, x, pair, window, resolution, cfg)
            assert ml_member_1d(f, x, pair, window, resolution, cfg) is want
        for form in ("M1", "M2"):
            want = _per_pair_check(p, xbar, x, resolution, form, cfg, ml_member_1d)
            assert ml_solution_check_1d(p, xbar, x, resolution, cfg, form) is want, (form, x)


def _parent_ml_check(p, xbar, x, resolution, form, cfg, evaluate):
    """ml_solution_check_1d as masks over all the default pairs: evaluate(f,
    [y]) is called at x once some pair has v x >= t - eps, and at xbar (M1)
    once some pair in the subdifferential at x has v xbar >= t - eps."""
    eps = cfg.eps_feas
    if not sets.contains(p.feasible_set, [x], eps):
        return False
    pairs = default_ml_pairs(p.domain_window)
    V, T = np.array([q.v for q in pairs]), np.array([q.t for q in pairs])
    table = subdiff._ml_window(p.objective, p.domain_window, resolution)[1]
    inf = subdiff._halfline_infima(table, V, T, eps)
    member = V * x >= T - eps
    if not member.any():
        return False
    paired = member & (inf >= evaluate(p.objective, [x]) - eps) & (V * xbar >= T - eps)
    if form == "M2" or not paired.any():
        return bool(paired.any())
    return bool((paired & (inf >= evaluate(p.objective, [xbar]) - eps)).any())


@pytest.mark.parametrize("text, lo, hi", [
    ("(x1 - 0.25)^2 - x1^3 / 4", -1.0, 1.5),  # lo < 0 < hi
    ("abs(x1 - 1.75) + x1 / 8", 0.5, 3.0),  # lo > 0: every threshold but 0 is positive
    ("pw[x1 <= 0: -x1; x1 >= 0: x1^2]", -2.0, 0.75),
])
def test_the_table_route_equals_the_masks_and_the_definition(text, lo, hi, monkeypatch):
    # x on every threshold node (v is a power of two, so t - eps == v x
    # exactly), signed zeros and subnormals; anchors whose f lies above and
    # below f(x), so that M1 reads either level; cold and warm, with f
    # evaluated where, and in the order, the masks evaluated it
    window, resolution = Box((lo,), (hi,)), 41
    p = Problem(parse(text, 1), ConvexSetDescriptor(1, ()), 1, window)
    real, calls = subdiff.evaluate, []

    def counted(f, y):
        calls.append(y[0])
        return real(f, y)

    values = {}

    def evaluate_once(f, y):  # the definition repeats the same few calls
        return values[y[0]] if y[0] in values else values.setdefault(y[0], real(f, y))

    monkeypatch.setattr(subdiff, "evaluate", counted)
    monkeypatch.setitem(globals(), "evaluate", evaluate_once)
    seen, levels = set(), set()
    for cfg in (DEFAULT_CONFIG, Config(eps_feas=0.0)):
        eps, pairs, verdicts = cfg.eps_feas, default_ml_pairs(window), {}

        def member_once(f, y, pair, window, resolution, cfg):
            key = (y, pair)
            if key not in verdicts:
                verdicts[key] = _ref_ml_member(f, y, pair, window, resolution, cfg)
            return verdicts[key]

        nodes = sorted({(q.t - eps) / q.v for q in pairs})
        assert all(any(q.v * x == q.t - eps for q in pairs) for x in nodes)
        xs = nodes[::2] + [-0.0, 0.0, 5e-324, -5e-324, 2.5e-308 / 3]
        for xbar in (lo, -0.0, 0.5 * (lo + hi), hi, 5e-324):
            for x in xs:
                for form in ("M1", "M2"):
                    want = _per_pair_check(p, xbar, x, resolution, form, cfg, member_once)
                    calls.clear()
                    assert _parent_ml_check(p, xbar, x, resolution, form, cfg, counted) is want
                    evaluated = calls[:]
                    for cold in (True, False):
                        if cold:
                            sets._KEPT.clear()
                        calls.clear()
                        got = ml_solution_check_1d(p, xbar, x, resolution, cfg, form)
                        assert (got, calls) == (want, evaluated), (cfg, xbar, x, form, cold)
                    seen.add(want)
                    if form == "M1" and len(evaluated) == 2:
                        levels.add(real(p.objective, [xbar]) > real(p.objective, [x]))
    assert seen == {True, False} and levels == {True, False}


def test_ml_route_evaluates_f_only_where_the_masks_did(monkeypatch):
    # f fails outside [0, 1]; at xbar = -1 no pair passes v xbar >= t, so
    # neither form evaluates f there, and both answer False
    f, w = parse("pw[x1 >= 0 & x1 <= 1: x1]", 1), Box((0.0,), (1.0,))
    p = Problem(f, ConvexSetDescriptor(1, ()), 1, w)
    real, calls = subdiff.evaluate, []

    def counted(f, y):
        calls.append(y[0])
        return real(f, y)

    monkeypatch.setattr(subdiff, "evaluate", counted)
    for xbar, x, form, want, evaluated in [
        (-1.0, 0.5, "M1", False, [0.5]), (-1.0, 0.5, "M2", False, [0.5]),
        (0.5, 0.5, "M1", True, [0.5, 0.5]), (1.0, 0.5, "M2", True, [0.5]),
        (0.5, -1.0, "M1", False, []), (0.5, -1.0, "M2", False, []),
    ]:
        calls.clear()
        assert ml_solution_check_1d(p, xbar, x, form=form) is want
        assert calls == evaluated, (xbar, x, form)


def test_ml_routes_evaluate_f_only_once_some_pair_passes():
    # f is undefined outside [0, 1]; at x = -1 every default pair has
    # v x < t, so it is refused without f(-1)
    f, w = parse("pw[x1 >= 0 & x1 <= 1: x1]", 1), Box((0.0,), (1.0,))
    p = Problem(f, ConvexSetDescriptor(1, ()), 1, w)
    assert not ml_member_1d(f, -1.0, MLPair(1.0, 0.0), w)
    for form in ("M1", "M2"):
        assert not ml_solution_check_1d(p, 0.0, -1.0, form=form)
        # some pair holds at x = 0.5, and M1 tests xbar = -1 only against those
        assert ml_solution_check_1d(p, 0.5, 0.5, form=form)
        assert not ml_solution_check_1d(p, -1.0, 0.5, form=form)
    with pytest.raises(EvalError):
        ml_member_1d(f, 2.0, MLPair(1.0, 1.0), w)
    for xbar, x, form in ((0.0, 2.0, "M2"), (0.0, 2.0, "M1"), (2.0, 0.5, "M1")):
        with pytest.raises(EvalError, match=r"point \(2.0,\) outside every piecewise guard"):
            ml_solution_check_1d(p, xbar, x, form=form)
