"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines for passing tests as well).
"""

import time

import numpy as np
import pytest

from qcsol.alternatives import dual_certificate, gordan_alternative, primal_margin
from qcsol.charac import classify_dichotomy, enumerate_solution_set, membership
from qcsol.config import DEFAULT_CONFIG
from qcsol.core import CharacVariant
from qcsol.expr import evaluate, grad
from qcsol.kkt import (
    lagrangian_constancy,
    member_X1,
    solve_multipliers,
    stationarity_residual,
)
from qcsol.oracle import agreement, brute_force_solutions
from qcsol.registry import get_example
from qcsol.sets import sample_grid
from qcsol.subdiff import _grid_values, gp_solution_check, ml_solution_check_1d
from test_expr import grad_fd
from test_registry import EXAMPLE_NAMES

V = CharacVariant


def _report(number: int, label: str, ok: bool, detail: str = ""):
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed" + (f": {detail}" if detail else "")


def test_criterion_01_rectangle_reproduction():
    start = time.perf_counter()
    e = get_example("ex2_1")
    res = brute_force_solutions(e.problem, e.resolution)
    oracle_ok = (
        res.min_value == 0.0
        and len(res.solution_points) == 41
        and all(1.0 <= p[0] <= 2.0 and p[1] == 0.0 for p in res.solution_points)
    )
    variants_ok = all(
        agreement(e.problem, e.anchor, v, e.resolution).equal
        for v in (V.SHAT1, V.SHAT2, V.S1, V.S2, V.S3, V.S4, V.S5)
    )
    elapsed = time.perf_counter() - start
    _report(
        1,
        "rectangle example",
        oracle_ok and variants_ok and elapsed < 1.0,
        f"oracle_ok={oracle_ok}, variants_ok={variants_ok}, "
        f"elapsed={elapsed:.3f} s (gate 1.0 s, {'met' if elapsed < 1.0 else 'missed'})",
    )


def test_criterion_02_cubic_reproduction():
    e = get_example("ex2_2")
    pts = enumerate_solution_set(e.problem, e.anchor, V.SHAT1, e.resolution)
    grid = sample_grid(e.problem.feasible_set, e.problem.domain_window, e.resolution)
    expected = {tuple(x) for x in grid if x[0] == -1.0}
    _report(2, "cubic example", set(pts) == expected and len(pts) == 13)


def test_criterion_03_surd_reproduction():
    e = get_example("ex2_3")
    pts = enumerate_solution_set(e.problem, e.anchor, V.S1, e.resolution)
    singleton_ok = pts == [(1.0, 1.0)]
    c = get_example("ex2_3_constrained")
    lam = solve_multipliers(c.problem, c.anchor)
    kkt_ok = (
        lam.lambdas == pytest.approx([0.5], abs=1e-9)
        and stationarity_residual(c.problem, c.anchor, lam) <= 1e-9
    )
    _report(3, "surd example", singleton_ok and kkt_ok)


def test_criterion_04_quadrant_reproduction():
    e = get_example("ex2_4")
    res = brute_force_solutions(e.problem, e.resolution)
    dich = classify_dichotomy(e.problem, res.solution_points)
    expected = {
        tuple(x)
        for x in sample_grid(e.problem.feasible_set, e.problem.domain_window, e.resolution)
        if x[0] == 0.0 and x[1] <= 0.0
    }
    stilde = set(enumerate_solution_set(e.problem, e.anchor, V.STILDE, e.resolution))
    grid = _grid_values(e.problem.objective, e.problem.domain_window, 21)
    gp = {
        tuple(float(c) for c in x)
        for x in sample_grid(e.problem.feasible_set, e.problem.domain_window, e.resolution)
        if gp_solution_check(e.problem, e.anchor, x, _grid=grid)
    }
    _report(
        4,
        "quadrant example",
        dich.alternative == "II" and stilde == expected and gp == expected,
    )


def test_criterion_05_flat_reproduction():
    e = get_example("ex4_1")
    res = brute_force_solutions(e.problem, e.resolution)
    grid = sample_grid(e.problem.feasible_set, e.problem.domain_window, e.resolution)
    expected = {tuple(x) for x in grid if x[0] <= 1.0}
    oracle_set = set(res.solution_points)
    stilde = set(enumerate_solution_set(e.problem, e.anchor, V.STILDE, e.resolution))
    ml = {
        (float(x[0]),)
        for x in grid
        if ml_solution_check_1d(e.problem, e.anchor[0], float(x[0]))
    }
    _report(
        5,
        "flat example",
        len(expected) == 101 and oracle_set == expected and stilde == expected
        and ml == expected,
    )


def test_criterion_06_dichotomy_exclusivity():
    from qcsol.core import ConstrainedProblem, Problem

    ok = True
    for name in EXAMPLE_NAMES:
        e = get_example(name)
        res = brute_force_solutions(e.problem, e.resolution)
        problem = e.problem
        if isinstance(problem, ConstrainedProblem):
            problem = Problem(problem.objective, problem.ground_set, problem.dimension,
                              problem.domain_window)
        rep = classify_dichotomy(problem, res.solution_points)
        ok = ok and rep.alternative in ("I", "II")
        if rep.alternative == "I":
            units = []
            for p in res.solution_points:
                g = grad(e.problem.objective, np.asarray(p), e.problem.dimension)
                units.append(g / np.linalg.norm(g))
            for u in units:
                for w in units:
                    ok = ok and float(u @ w) >= 1.0 - 1e-8
    _report(6, "dichotomy exclusivity", ok)


def test_criterion_07_gordan_property_suite():
    rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        res = gordan_alternative(A)
        if res.branch == "primal":
            ok = ok and np.min(A @ res.witness) > 0
            ok = ok and dual_certificate(A) is None
        else:
            y = np.asarray(res.witness)
            ok = ok and np.all(y >= -1e-9)
            ok = ok and np.max(np.abs(A.T @ y)) <= 1e-9
            ok = ok and abs(float(np.sum(y)) - 1.0) <= 1e-9
            ok = ok and primal_margin(A) <= DEFAULT_CONFIG.eps_lp
    elapsed = time.perf_counter() - start
    _report(7, "Gordan suite", ok and elapsed < 5.0)


def test_criterion_08_ad_correctness():
    rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    ok = True
    for name in EXAMPLE_NAMES:
        e = get_example(name)
        f = e.problem.objective
        lo = np.asarray(e.problem.domain_window.lo)
        hi = np.asarray(e.problem.domain_window.hi)
        for _ in range(100):
            x = rng.uniform(lo, hi)
            g = grad(f, x, e.problem.dimension)
            gap = float(np.max(np.abs(g - grad_fd(f, x))))
            ok = ok and gap <= 1e-6 * (1.0 + float(np.max(np.abs(g))))
    _report(8, "AD vs finite differences", ok)


def test_criterion_09_nesting_properties():
    # nesting is stated for anchors with nonvanishing gradients, which
    # covers the first three builtin problems
    rng = np.random.default_rng(DEFAULT_CONFIG.seed)
    ok = True
    variants = (V.SHAT1, V.SHAT2, V.S1, V.S2, V.S3, V.S4, V.S5)
    for name in ("ex2_1", "ex2_2", "ex2_3"):
        e = get_example(name)
        lo = np.asarray(e.problem.domain_window.lo)
        hi = np.asarray(e.problem.domain_window.hi)
        for _ in range(500):
            x = tuple(rng.uniform(lo, hi))
            m = {v: membership(e.problem, e.anchor, x, v).member for v in variants}
            ok = ok and (not m[V.SHAT1] or m[V.SHAT2])
            ok = ok and (not m[V.S5] or m[V.S1])
            ok = ok and (not m[V.S1] or m[V.S2])
            ok = ok and (not m[V.S5] or m[V.S3])
            ok = ok and (not m[V.S3] or m[V.S4])
    _report(9, "nesting properties", ok)


def test_criterion_10_kkt_suite():
    c = get_example("ex2_3_constrained")
    lam = solve_multipliers(c.problem, c.anchor)
    vals = [evaluate(g, c.anchor) for g in c.problem.constraints]
    slack_ok = all(abs(l * v) <= 1e-9 for l, v in zip(lam.lambdas, vals))
    stat_ok = stationarity_residual(c.problem, c.anchor, lam) <= 1e-9
    res = brute_force_solutions(c.problem, c.resolution)
    x1_ok = all(member_X1(c.problem, c.anchor, lam, p) for p in res.solution_points)
    lag_ok = lagrangian_constancy(c.problem, c.anchor, lam, res.solution_points)
    _report(10, "KKT suite", slack_ok and stat_ok and x1_ok and lag_ok)
