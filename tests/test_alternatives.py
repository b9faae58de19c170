"""Simplex kernel, strict feasibility, Gordan's alternative, collinearity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol.alternatives import (
    collinearity_factor,
    dual_certificate,
    gordan_alternative,
    primal_margin,
    solve_lp,
    strict_feasibility,
)
from qcsol.config import DEFAULT_CONFIG
from qcsol.errors import DimensionError, InputError, ZeroVectorError


class TestSolveLP:
    def test_known_optimum(self):
        # max x1 + x2 s.t. x1 + 2 x2 <= 4, 2 x1 + x2 <= 4, x >= 0
        res = solve_lp([1.0, 1.0], A_ub=[[1.0, 2.0], [2.0, 1.0]], b_ub=[4.0, 4.0])
        assert res.status == "optimal"
        assert res.objective == pytest.approx(8.0 / 3.0)
        assert res.x == pytest.approx([4.0 / 3.0, 4.0 / 3.0])

    def test_equality_rows(self):
        res = solve_lp([0.0, 0.0], A_eq=[[1.0, 1.0]], b_eq=[2.0])
        assert res.status == "optimal"
        assert sum(res.x) == pytest.approx(2.0)

    def test_infeasible(self):
        res = solve_lp([0.0], A_eq=[[1.0]], b_eq=[-1.0])
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve_lp([1.0])
        assert res.status == "unbounded"

    def test_degenerate_does_not_cycle(self):
        # classic degenerate vertex: several constraints active at the optimum
        res = solve_lp(
            [1.0, 1.0, 1.0],
            A_ub=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            b_ub=[1.0, 1.0, 2.0, 0.0],
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(2.0)

    def test_rejects_constraints_that_do_not_fit(self):
        for bad in (
            {"A_ub": [[1.0]], "b_ub": [1.0]},
            {"A_ub": np.ones((1, 1)), "b_ub": [1.0]},
            {"A_ub": [[1.0, 1.0]], "b_ub": [1.0, 2.0]},
            {"A_eq": [[1.0, 1.0], [1.0]], "b_eq": [1.0, 1.0]},
            {"b_eq": [1.0]},
        ):
            with pytest.raises(ValueError):
                solve_lp([1.0, 1.0], **bad)

    @pytest.mark.parametrize("args", [
        ([1.0], [[np.nan]], [1.0]),  # read as unbounded
        ([np.inf], [[1.0]], [1.0]),  # read as optimal, with objective inf
        ([1.0], [[1.0]], [np.nan]),
        ([1.0], None, None, [[-np.inf]], [1.0]),
        ([1.0], None, None, [[1.0]], [np.inf]),
    ], ids=["nan-row", "inf-objective", "nan-rhs", "inf-equality-row", "inf-equality-rhs"])
    def test_refuses_non_finite_data(self, args):
        with pytest.raises(InputError, match="^LP data must be finite"):
            solve_lp(*args)

    def test_lists_of_ints_solve_like_float_arrays(self):
        lists = ([1, -2, 0], [[1, 2, 0], [3, -1, 1]], [4, -1], [[1, 1, 1]], [2])
        arrays = [np.asarray(v, dtype=float) for v in lists]
        got, want = solve_lp(*lists), solve_lp(*arrays)
        assert got.status == want.status == "optimal"
        assert got.x.dtype == float and got.x.tobytes() == want.x.tobytes()
        assert got.objective.hex() == want.objective.hex()


class TestStrictFeasibility:
    def test_single_strict_row(self):
        # y1 + y2 < 0 over [-1,1]^2; best margin 2 at (-1,-1)
        res = strict_feasibility(None, None, [[1.0, 1.0]], [0.0])
        assert res.point == pytest.approx([-1.0, -1.0])
        assert res.margin == pytest.approx(2.0)

    def test_contradictory_strict_rows(self):
        res = strict_feasibility(None, None, [[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        assert res.point is None

    def test_weak_rows_respected(self):
        res = strict_feasibility([[0.0, 1.0]], [-0.5], [[1.0, 0.0]], [0.0])
        assert res.point is not None
        y = np.asarray(res.point)
        assert y[1] <= -0.5 + 1e-9 and y[0] < 0

    def test_every_caller_refuses_non_finite_data(self):
        # each once drew a negative answer from them: no point, no certificate
        for call in (lambda: strict_feasibility(None, None, [[np.nan]], [0.0]),
                     lambda: strict_feasibility([[np.inf]], [0.0], [[1.0]], [0.0]),
                     lambda: dual_certificate([[np.nan, 1.0], [1.0, 1.0]]),
                     lambda: primal_margin([[1.0, np.inf]]),
                     lambda: gordan_alternative([[1.0], [-np.inf]])):
            with pytest.raises(InputError, match="^LP data must be finite"):
                call()

    def test_needs_a_strict_row(self):
        for A_strict in (None, [], np.zeros((0, 2))):
            with pytest.raises(ValueError):
                strict_feasibility([[0.0, 1.0]], [-0.5], A_strict, [])


class TestGordan:
    def test_primal_branch(self):
        res = gordan_alternative([[1.0, 0.0], [0.0, 1.0]])
        assert res.branch == "primal"
        assert np.min(np.array([[1.0, 0.0], [0.0, 1.0]]) @ res.witness) > 0

    def test_dual_branch(self):
        A = np.array([[1.0, 0.0], [-1.0, 0.0]])
        res = gordan_alternative(A)
        assert res.branch == "dual"
        assert res.witness == pytest.approx([0.5, 0.5])
        assert A.T @ res.witness == pytest.approx([0.0, 0.0], abs=1e-9)

    def test_primal_margin(self):
        assert primal_margin([[1.0, -1.0]]) == pytest.approx(2.0)
        assert primal_margin([[1.0], [-1.0]]) <= DEFAULT_CONFIG.eps_lp

    def test_dual_certificate_none_when_primal(self):
        assert dual_certificate([[1.0, 0.0], [0.0, 1.0]]) is None

    def test_rejects_a_matrix_without_rows(self):
        with pytest.raises(ValueError):
            gordan_alternative(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            primal_margin(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gordan_alternative([[np.nan, 1.0]])


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_gordan_exclusivity(case):
    rng = np.random.default_rng(case)
    m = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    res = gordan_alternative(A)
    if res.branch == "primal":
        assert np.min(A @ res.witness) > 0
        assert dual_certificate(A) is None
    else:
        y = np.asarray(res.witness)
        assert np.all(y >= -1e-9)
        assert np.max(np.abs(A.T @ y)) <= 1e-9
        assert np.sum(y) == pytest.approx(1.0, abs=1e-9)
        assert primal_margin(A) <= DEFAULT_CONFIG.eps_lp


@pytest.fixture(scope="module")
def linprog():
    return pytest.importorskip("scipy.optimize").linprog


def _random_lp(seed):
    """An LP of the size the benchmark's kernel workload solves: m, n in
    1..6 and entries in [-1, 1], every seventh rounded to integers so that
    it is degenerate; about four in five are infeasible or unbounded."""
    rng = np.random.default_rng(seed)
    m, n = (int(k) for k in rng.integers(1, 7, size=2))
    A, b, c = rng.uniform(-1.0, 1.0, (m, n)), rng.uniform(-1.0, 1.0, m), rng.uniform(-1.0, 1.0, n)
    if seed % 7 == 0:
        A, b, c = np.round(A), np.round(b), np.round(c)
    return A, b, c


def _highs_reference(linprog, c, A_ub, b_ub, A_eq, b_eq):
    """The LP's status and optimum from HiGHS solves of bounded LPs only:
    on LPs this small HiGHS reports some unbounded ones as infeasible (with
    presolve) or as unknown (without).  A feasible LP is unbounded iff it
    has an improving ray: d >= 0 with A_ub d <= 0, A_eq d = 0, c . d > 0."""

    def solve(cost, rhs_ub, rhs_eq, bounds):
        return linprog(
            cost, A_ub=A_ub if len(A_ub) else None, b_ub=rhs_ub if len(A_ub) else None,
            A_eq=A_eq if len(A_eq) else None, b_eq=rhs_eq if len(A_eq) else None,
            bounds=bounds, method="highs",
        )

    feasible = solve(np.zeros_like(c), b_ub, b_eq, (0, None))
    assert feasible.status in (0, 2)
    if feasible.status == 2:
        return "infeasible", None
    ray = solve(-c, np.zeros_like(b_ub), np.zeros_like(b_eq), (0, 1))
    assert ray.status == 0
    if -ray.fun > 1e-9:
        return "unbounded", None
    best = solve(-c, b_ub, b_eq, (0, None))
    assert best.status == 0
    return "optimal", -best.fun


@given(st.integers(0, 10**6), st.sampled_from(["ub", "eq", "both"]))
@settings(max_examples=300, deadline=None)
def test_solve_lp_agrees_with_highs(linprog, seed, form):
    A, b, c = _random_lp(seed)
    h = {"ub": len(A), "eq": 0, "both": len(A) // 2}[form]
    A_ub, b_ub, A_eq, b_eq = A[:h], b[:h], A[h:], b[h:]
    res = solve_lp(c, A_ub, b_ub, A_eq, b_eq)
    status, objective = _highs_reference(linprog, c, A_ub, b_ub, A_eq, b_eq)
    assert res.status == status
    if status == "optimal":
        assert abs(res.objective - objective) <= 1e-7 * (1.0 + abs(res.objective))
        assert np.all(res.x >= -1e-9)
        assert np.all(A_ub @ res.x <= b_ub + 1e-9)
        assert np.all(np.abs(A_eq @ res.x - b_eq) <= 1e-9)


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_gordan_branch_agrees_with_highs(linprog, seed):
    # A x > 0 has a solution iff A x >= 1 has one (scale x)
    A = _random_lp(seed)[0]
    ref = linprog(np.zeros(A.shape[1]), A_ub=-A, b_ub=-np.ones(len(A)),
                  bounds=(None, None), method="highs")
    assert ref.status in (0, 2)
    assert gordan_alternative(A).branch == ("primal" if ref.status == 0 else "dual")


class TestCollinearity:
    def test_positive_factor(self):
        assert collinearity_factor([1.0, 2.0], [2.0, 4.0]) == pytest.approx(2.0)

    def test_negative_factor_rejected(self):
        assert collinearity_factor([1.0, 0.0], [-2.0, 0.0]) is None

    def test_not_collinear(self):
        assert collinearity_factor([1.0, 0.0], [1.0, 1.0]) is None

    def test_vectors_of_different_lengths_raise(self):
        # zipped to the shorter vector, these once read as collinear with factor 2
        with pytest.raises(DimensionError, match="one length"):
            collinearity_factor([1.0, 0.0], [2.0, 0.0, 5.0])
        with pytest.raises(DimensionError, match="one length"):
            collinearity_factor([[1.0, 0.0]], [2.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_raise(self, bad):
        # once a NaN factor, with a RuntimeWarning for an infinite entry
        for a, b in (([1.0, bad], [2.0, 1.0]), ([2.0, 1.0], [1.0, bad]), ([bad, 0.0], [0.0, 0.0])):
            with pytest.raises(InputError, match="finite vectors"):
                collinearity_factor(a, b)

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            collinearity_factor([0.0, 0.0], [1.0, 0.0])

    @given(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(0.01, 100.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, a1, a2, p):
        vec = np.array([a1, a2])
        if np.linalg.norm(vec) <= 1e-6:
            return
        got = collinearity_factor(vec, p * vec)
        assert got == pytest.approx(p, rel=1e-9)
