"""Convex set descriptors, grids, and polyhedral cones."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol.core import Problem
from qcsol.errors import DimensionError, NonPolyhedralError
from qcsol.registry import get_example
from qcsol.sets import (
    MAX_GRID_NODES,
    Ball,
    Box,
    ConvexSetDescriptor,
    Halfspace,
    LinearEquality,
    atom_violation,
    contains,
    contains_many,
    grid_nodes,
    normal_cone_generators,
    sample_grid,
)
from test_registry import EXAMPLE_NAMES

RECT = ConvexSetDescriptor(
    2, (Box((1.0, 0.0), (2.0, 2.0)), Halfspace((-1.0, 1.0), 0.0))
)


class TestAtoms:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box((1.0,), (0.0,))
        with pytest.raises(DimensionError):
            Box((0.0,), (1.0, 2.0))

    def test_box_rejects_nan_bounds_but_allows_infinite_ones(self):
        with pytest.raises(ValueError, match="NaN"):
            Box((float("nan"),), (1.0,))
        with pytest.raises(ValueError, match="NaN"):
            Box((0.0, 0.0), (1.0, float("nan")))
        box = Box((-float("inf"), 0.0), (float("inf"), 1.0))
        assert atom_violation(box, np.array([1e300, 0.5])) == -0.5

    def test_violations(self):
        assert atom_violation(Box((0.0,), (1.0,)), np.array([1.5])) == pytest.approx(0.5)
        assert atom_violation(Halfspace((1.0, 0.0), 1.0), np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert atom_violation(Ball((0.0, 0.0), 1.0), np.array([0.5, 0.0])) < 0
        assert atom_violation(LinearEquality((1.0,), 2.0), np.array([3.0])) == pytest.approx(1.0)

    def test_contains(self):
        assert contains(RECT, [1.5, 1.0])
        assert not contains(RECT, [1.5, 1.6])  # violates x2 <= x1
        assert contains(RECT, [2.0, 2.0])      # boundary, within tolerance
        with pytest.raises(DimensionError):
            contains(RECT, [1.0])


class TestGrids:
    def test_grid_nodes_shape_and_order(self):
        nodes = grid_nodes(Box((0.0, 0.0), (1.0, 2.0)), 3)
        assert len(nodes) == 9
        assert nodes[0] == pytest.approx([0.0, 0.0])
        assert nodes[1] == pytest.approx([0.0, 1.0])  # row-major: last axis fastest
        assert nodes[-1] == pytest.approx([1.0, 2.0])

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_nodes(Box((0.0,), (1.0,)), 1)

    def test_grid_size_limit_is_checked_before_allocating(self):
        cube = Box((0.0,) * 3, (1.0,) * 3)
        assert 101 ** 3 > MAX_GRID_NODES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the limit"):
                grid_nodes(cube, 101)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert len(grid_nodes(Box((0.0,), (1.0,)), MAX_GRID_NODES // 100)) == MAX_GRID_NODES // 100

    def test_grids_are_float_arrays_of_rows(self):
        window = Box((1.0, 0.0), (2.0, 2.0))
        X = grid_nodes(window, 3)
        assert isinstance(X, np.ndarray) and X.dtype == float and X.shape == (9, 2)
        assert X.tolist() == [[a, b] for a in (1.0, 1.5, 2.0) for b in (0.0, 1.0, 2.0)]
        pts = sample_grid(RECT, window, 3)
        assert isinstance(pts, np.ndarray) and pts.dtype == float and pts.shape == (7, 2)
        away = ConvexSetDescriptor(2, (Halfspace((1.0, 0.0), -10.0),))
        empty = sample_grid(away, window, 3)
        assert isinstance(empty, np.ndarray) and empty.dtype == float
        assert empty.shape == (0, 2)
        assert grid_nodes(Box((0,), (1,)), 2).dtype == float  # integer bounds too

    def test_sample_grid_rectangle(self):
        # 9 nodes of [1,2]x[0,2] at resolution 3; exactly 7 satisfy x2 <= x1
        pts = {tuple(x) for x in sample_grid(RECT, Box((1.0, 0.0), (2.0, 2.0)), 3)}
        assert pts == {
            (1.0, 0.0), (1.0, 1.0),
            (1.5, 0.0), (1.5, 1.0),
            (2.0, 0.0), (2.0, 1.0), (2.0, 2.0),
        }


def _grid_cases():
    # every builtin example's set (box plus halfspace, halfspaces, a ball,
    # a 1-D box, the atom-free ground set of the constrained example) and a
    # line x1 + x2 = 1 that passes exactly through 5 of its 25 nodes
    for e in map(get_example, EXAMPLE_NAMES):
        p = e.problem
        S = p.feasible_set if isinstance(p, Problem) else p.ground_set
        yield pytest.param(S, p.domain_window, e.resolution, id=e.name)
    line = ConvexSetDescriptor(2, (LinearEquality((1.0, 1.0), 1.0),))
    yield pytest.param(line, Box((0.0, 0.0), (1.0, 1.0)), 5, id="line")


@pytest.mark.parametrize("S,window,resolution", _grid_cases())
@pytest.mark.parametrize("tol", [1e-9, 0.0])
def test_sample_grid_equals_pointwise_contains(S, window, resolution, tol):
    expected = [x for x in grid_nodes(window, resolution) if contains(S, x, tol)]
    got = sample_grid(S, window, resolution, tol)
    assert got.shape == (len(expected), S.dimension) and got.dtype == float
    for x, y in zip(got, expected):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if S.atoms:
        # nodes on the boundary, where the two computations are closest to
        # disagreeing, are among those compared
        assert any(
            abs(atom_violation(a, x)) <= tol for x in expected for a in S.atoms
        )
    else:
        assert len(got) == resolution ** S.dimension


def _boundary_rows(atom):
    """400 points on the boundary of an atom with inexact coefficients."""
    t = np.linspace(-2.0, 2.0, 400)
    if isinstance(atom, Ball):
        return np.asarray(atom.center) + atom.radius * np.column_stack([np.cos(t), np.sin(t)])
    (a1, a2), b = atom.a, atom.b
    return np.column_stack([t, (b - a1 * t) / a2])


@pytest.mark.parametrize(
    "atom",
    [Halfspace((0.1, 0.7), 0.3), LinearEquality((0.1, 0.7), 0.3), Ball((0.1, 0.7), 0.3)],
    ids=["halfspace", "equality", "ball"],
)
@pytest.mark.parametrize("tol", [0.0, 1e-17])
def test_contains_many_decides_boundary_rows_like_contains(atom, tol):
    # numpy's matrix product and row norms round c . x differently from the
    # np.dot in atom_violation on many of these rows
    S = ConvexSetDescriptor(2, (atom,))
    X = _boundary_rows(atom)
    expected = [contains(S, x, tol) for x in X]
    assert True in expected and False in expected
    assert contains_many(S, X, tol).tolist() == expected


class TestCones:
    def test_tangent_polar_at_corner(self):
        gens = [tuple(g.tolist()) for g in normal_cone_generators(RECT, [1.0, 0.0])]
        # active: x1 >= 1 (row -e1), x2 >= 0 (row -e2); the halfspace is inactive
        assert (-1.0, 0.0) in gens and (0.0, -1.0) in gens
        assert len(gens) == 2

    def test_tangent_polar_interior(self):
        assert normal_cone_generators(RECT, [1.5, 0.5]) == []

    def test_equality_gives_both_orientations(self):
        S = ConvexSetDescriptor(2, (LinearEquality((1.0, 1.0), 1.0),))
        rows = {tuple(r) for r in normal_cone_generators(S, [0.5, 0.5])}
        assert rows == {(1.0, 1.0), (-1.0, -1.0)}

    def test_normal_cone_generators(self):
        gens = {tuple(g) for g in normal_cone_generators(RECT, [1.0, 0.0])}
        assert (-1.0, 0.0) in gens and (0.0, -1.0) in gens
        assert normal_cone_generators(RECT, [1.5, 0.5]) == []

    def test_active_halfspace_and_box_upper_bounds(self):
        # at (2, 2): x1 <= 2 (row e1), x2 <= 2 (row e2) and -x1 + x2 <= 0
        gens = normal_cone_generators(RECT, [2.0, 2.0])
        assert [g.tolist() for g in gens] == [[1.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]

    def test_a_halfspace_is_active_where_atom_violation_puts_it_on_the_boundary(self):
        # with fused multiply-add, np.dot(a, x) rounds this a . x one ulp
        # away from the left-to-right sum that atom_violation takes
        a = (-0.5424755574590947, 0.8905413911078446)
        x = [0.8028549152229671, -0.9388200339328929]
        atom = Halfspace(a, -1.2715872667128658)
        assert atom_violation(atom, x) == 0.0
        S = ConvexSetDescriptor(2, (atom,))
        assert [g.tolist() for g in normal_cone_generators(S, x, eps_act=0.0)] == [list(a)]

    def test_ball_is_not_polyhedral(self):
        S = ConvexSetDescriptor(2, (Ball((0.0, 0.0), 1.0),))
        assert not S.polyhedral
        with pytest.raises(NonPolyhedralError):
            normal_cone_generators(S, [1.0, 0.0])


@given(
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_contains_monotone_in_atoms(a, b):
    # dropping atoms can only enlarge the set
    x = [a, b]
    if contains(RECT, x):
        for keep in range(len(RECT.atoms)):
            sub = ConvexSetDescriptor(2, (RECT.atoms[keep],))
            assert contains(sub, x)
