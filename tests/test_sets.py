"""Convex set descriptors, grids, and normal cones."""

import dataclasses
import math
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcsol import sets
from qcsol.core import Problem
from qcsol.errors import DimensionError, InputError
from qcsol.expr import _dot, _norm, parse
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

    def test_ball_refuses_a_nan_or_negative_radius(self):
        for radius in (float("nan"), -1.0, -1e-300):
            with pytest.raises(InputError, match="ball radius must be >= 0"):
                Ball((0.0, 0.0), radius)
        for radius in (0.0, -0.0, float("inf")):  # a point, and all of R^2
            assert Ball((0.0, 0.0), radius).radius == radius

    @pytest.mark.parametrize("build, message", [
        (lambda nan: Halfspace((nan, 1.0), 0.0), "halfspace has a NaN entry"),
        (lambda nan: Halfspace((1.0, 1.0), nan), "halfspace has a NaN entry"),
        (lambda nan: LinearEquality((1.0, nan), 0.0), "linear equality has a NaN entry"),
        (lambda nan: LinearEquality((1.0, 1.0), nan), "linear equality has a NaN entry"),
        (lambda nan: Ball((nan, 0.0), 1.0), "ball center has a NaN entry"),
        (lambda nan: Ball((0.0, nan), 1.0), "ball center has a NaN entry"),
    ], ids=["halfspace-a", "halfspace-b", "equality-a", "equality-b", "ball-center-0",
            "ball-center-1"])
    def test_atoms_refuse_a_nan_entry(self, build, message):
        # such an atom once built, and then read every point as outside
        for nan in (float("nan"), np.nan, np.float64("nan")):
            with pytest.raises(InputError, match=message):
                build(nan)
        assert atom_violation(build(0.5), np.zeros(2)) <= 0.5  # a finite entry builds

    @pytest.mark.parametrize("build, message", [
        (lambda empty: Box(empty, empty), "box dimension must be >= 1"),
        (lambda empty: Halfspace(empty, 0.0), "halfspace dimension must be >= 1"),
        (lambda empty: LinearEquality(empty, 0.0), "linear equality dimension must be >= 1"),
        (lambda empty: Ball(empty, 1.0), "ball center dimension must be >= 1"),
    ], ids=["box", "halfspace", "equality", "ball"])
    def test_atoms_refuse_zero_length_entries(self, build, message):
        # as ConvexSetDescriptor(0) is: such an atom once read 0.0 or -1.0
        # at the empty point, and a box's violation raised a bare IndexError
        for empty in ((), [], np.array([])):
            with pytest.raises(DimensionError, match=message):
                build(empty)

    @pytest.mark.parametrize("build, message", [
        (lambda inf: Halfspace((inf, 1.0), 0.0), "halfspace has an infinite entry"),
        (lambda inf: LinearEquality((1.0, inf), 0.0), "linear equality has an infinite entry"),
        (lambda inf: Ball((inf, 0.0), 1.0), "ball center has an infinite entry"),
    ], ids=["halfspace-a", "equality-a", "ball-center"])
    def test_atoms_refuse_an_infinite_normal_or_center(self, build, message):
        # such an atom once read a NaN violation (inf * 0), or every point as outside
        for inf in (float("inf"), -np.inf, np.float64("-inf")):
            with pytest.raises(InputError, match=message):
                build(inf)

    def test_an_infinite_offset_or_radius_is_the_whole_space_or_nothing(self):
        inf, points = float("inf"), np.array([[0.0, 0.0], [1e100, -1e100], [-3.0, 7.0]])
        whole = [Halfspace((1.0, 1.0), inf), Ball((0.0, 0.0), inf)]
        empty = [Halfspace((1.0, 1.0), -inf), LinearEquality((1.0, 1.0), inf),
                 LinearEquality((1.0, 1.0), -inf)]
        for atom in whole + empty:
            S = ConvexSetDescriptor(2, (atom,))
            want = [atom in whole] * len(points)
            assert contains_many(S, points).tolist() == want, atom
            assert [contains(S, x) for x in points] == want, atom
            assert normal_cone_generators(S, points[0]) == [] or isinstance(atom, LinearEquality)

    def test_violations(self):
        assert atom_violation(Box((0.0,), (1.0,)), np.array([1.5])) == pytest.approx(0.5)
        assert atom_violation(Halfspace((1.0, 0.0), 1.0), np.array([2.0, 0.0])) == pytest.approx(1.0)
        assert atom_violation(Ball((0.0, 0.0), 1.0), np.array([0.5, 0.0])) < 0
        assert atom_violation(LinearEquality((1.0,), 2.0), np.array([3.0])) == pytest.approx(1.0)

    @pytest.mark.parametrize("ball, x", [
        (Ball((0.0, 1e-300, -1e-300), 0.0), [0.0, 0.0, 0.0]),
        (Ball((0.0, 1e-300, -1e-300), 0.0), [-0.0, -0.0, -0.0]),
        (Ball((0.0,), 1e-300), [2e-300]),
    ], ids=["radius-0", "radius-0-negative-zeros", "1-D"])
    def test_a_ball_reads_a_distance_whose_square_underflows_as_nonzero(self, ball, x):
        # the squares of 1e-300 underflow to 0, so the distance is taken of
        # the scaled difference: the point lies outside, even at tol 0
        S = ConvexSetDescriptor(ball.dimension, (ball,))
        want = math.dist(x, ball.center) - ball.radius
        assert want > 0.0 and atom_violation(ball, x) == pytest.approx(want, rel=1e-15)
        assert not any(contains(S, form, 0.0) for form in (x, tuple(x), np.array(x)))
        assert contains_many(S, np.array([x, ball.center]), 0.0).tolist() == [False, True]

    @pytest.mark.parametrize("atom", [
        Box((0.0, 0.0), (1.0, 1.0)), Halfspace((1.0, 1.0), 1.0),
        Ball((0.0, 0.0), 1.0), LinearEquality((1.0, 1.0), 1.0),
    ], ids=["box", "halfspace", "ball", "equality"])
    @pytest.mark.parametrize("x, message", [
        ([1.0], "point has dimension 1, expected 2"),
        ([1.0, 0.0, 0.0], "point has dimension 3, expected 2"),
        ([[1.0], [0.0]], "point has shape (2, 1), expected a flat sequence"),
        ([[1.0, 0.0]], "point has shape (1, 2), expected a flat sequence"),
    ], ids=["short", "long", "column", "row"])
    def test_atoms_refuse_points_of_the_wrong_dimension(self, atom, x, message):
        # a halfspace's dot stopped at the shorter operand and a box broadcast
        # a short point, so both read 0.0; a box's normals raised IndexError;
        # a 2-D array of the right size raised a bare TypeError from float()
        S = ConvexSetDescriptor(2, (atom,))
        with pytest.raises(DimensionError, match=re.escape(message.format("atom"))):
            atom_violation(atom, x)
        with pytest.raises(DimensionError, match=re.escape(message.format("set"))):
            contains(S, x)
        with pytest.raises(DimensionError, match=re.escape(message.format("set"))):
            normal_cone_generators(S, x)

    def test_atoms_store_their_fields_as_floats(self):
        # each field is stored as the reader reads it: a tuple of floats, or
        # one float; infinite box bounds, b and radius stay allowed
        a, lo, hi = (1, 0), (0, -math.inf), [1, 2]
        atoms = [Box(lo, hi), Halfspace(a, math.inf), Ball(lo[:1], math.inf), LinearEquality(a, 3)]
        assert repr(atoms) == ("[Box(lo=(0.0, -inf), hi=(1.0, 2.0)), Halfspace(a=(1.0, 0.0), b=inf), "
                               "Ball(center=(0.0,), radius=inf), LinearEquality(a=(1.0, 0.0), b=3.0)]")
        fields = [getattr(atom, f.name) for atom in atoms for f in dataclasses.fields(atom)]
        assert [type(v) for v in fields] == [tuple, tuple, tuple, float, tuple, float, tuple, float]
        assert all(type(c) is float for v in fields if type(v) is tuple for c in v)

    @pytest.mark.parametrize("real", [int, Decimal, str, np.float32],
                             ids=["int", "Decimal", "str", "float32"])
    def test_an_atom_of_other_reals_is_the_atom_of_their_floats(self, real):
        # ints, Decimals and numeric strings read to the same floats: the
        # atoms are equal, print alike, answer alike and share a window record
        def atoms(r):
            return (Box((r(0), r(-1)), (r(2), r(2))), Halfspace((r(1), r(-1)), r(1)),
                    Ball((r(1), r(0)), r(2)), LinearEquality((r(1), r(1)), r(2)))
        X = grid_nodes(Box((-1.0, -1.0), (3.0, 3.0)), 9)
        for floats, others in zip(atoms(float), atoms(real)):
            assert others == floats and repr(others) == repr(floats)
            S, T = ConvexSetDescriptor(2, (floats,)), ConvexSetDescriptor(2, (others,))
            assert [contains(T, x) for x in X] == [contains(S, x) for x in X]
            assert np.array_equal(contains_many(T, X), contains_many(S, X))
            for x in X[::5]:
                got, want = (normal_cone_generators(A, x, 0.5) for A in (T, S))
                assert [g.tolist() for g in got] == [g.tolist() for g in want]
        f = parse("x1^2 + x2", 2)
        assert sets._window(f, atoms(real)[0], 5) is sets._window(f, atoms(float)[0], 5)

    @pytest.mark.parametrize("atom", [
        Box((0.0,), (1.0,)), Halfspace((1.0,), 1.0), Ball((0.0,), 1.0), LinearEquality((1.0,), 1.0),
    ], ids=["box", "halfspace", "ball", "equality"])
    def test_a_scalar_is_a_point_of_a_1d_set(self, atom):
        S = ConvexSetDescriptor(1, (atom,))
        assert atom_violation(atom, 1.0) == atom_violation(atom, [1.0])
        assert contains(S, 1.0) and contains(S, np.float64(1.0))
        assert not contains(S, 2.5)
        at = [[g.tolist() for g in normal_cone_generators(S, x)] for x in (1.0, [1.0])]
        assert at[0] == at[1] and at[0]

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

    @pytest.mark.parametrize("window, resolution", [
        (Box((-0.0,), (2.0,)), 201),
        (Box((0.0, -1.0), (0.3, 1.0)), 21),
        (Box((-1e300, -0.0, 3.0), (1e300, 0.0, 3.0)), 7),
        (Box((0.1,) * 4, (0.7,) * 4), 5),
    ])
    def test_grid_nodes_are_the_meshgrid_of_the_axes_bit_for_bit(self, window, resolution):
        axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(window.lo, window.hi)]
        want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))
        got = grid_nodes(window, resolution)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_contains_many_refuses_rows_of_the_wrong_width(self):
        for width in (1, 3):
            with pytest.raises(DimensionError, match=f"^X row has dimension {width}, expected 2$"):
                contains_many(RECT, np.zeros((4, width)))

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            grid_nodes(Box((0.0,), (1.0,)), 1)

    def test_a_resolution_must_be_an_integer(self):
        window = Box((0.0,), (1.0,))
        for resolution in (2.5, 5.0, np.float64(5), "5", None):
            with pytest.raises(InputError, match="resolution must be an integer, got"):
                grid_nodes(window, resolution)
        for resolution in (np.int64(5), np.uint8(5)):
            assert grid_nodes(window, resolution).tolist() == grid_nodes(window, 5).tolist()

    @pytest.mark.parametrize("window", [
        Box((-1e308,), (1e308,)),
        Box((0.0, -1.7976931348623157e308), (1.0, 1.7976931348623157e308)),
        Box((-np.inf, 0.0), (np.inf, 1.0)),
        Box((0.0, 0.0), (np.inf, 1.0)),
    ], ids=["overflow", "overflow-axis-2", "infinite", "half-infinite"])
    def test_a_window_of_infinite_width_is_refused(self, window):
        # linspace once made NaN nodes of a window whose width overflows
        with pytest.raises(InputError, match="a grid needs a finite window"):
            grid_nodes(window, 3)
        assert grid_nodes(Box((-1e307,), (1e307,)), 3).tolist() == [[-1e307], [0.0], [1e307]]

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

    def test_a_ball_has_its_outward_normal_on_the_sphere(self):
        S = ConvexSetDescriptor(2, (Ball((0.5, 0.0), 1.0),))
        assert [g.tolist() for g in normal_cone_generators(S, [1.5, 0.0])] == [[1.0, 0.0]]
        assert [g.tolist() for g in normal_cone_generators(S, [0.5, -1.0])] == [[0.0, -1.0]]
        assert normal_cone_generators(S, [0.5, 0.5]) == []
        # active where abs(|x - c| - r) <= eps_act, on either side of the sphere
        ball = Ball((0.0,), 1.0)
        for x, normal in ((1.5, [1.5]), (0.5, [0.5])):
            assert [g.tolist() for g in ball.normals(np.array([x]), 0.5)] == [normal]
            assert ball.normals(np.array([x]), np.nextafter(0.5, 0.0)) == []

    def test_a_degenerate_box_axis_has_both_normals(self):
        # lo_2 = hi_2: the segment's normal cone holds all of the x2 axis
        box = Box((-1.0, 0.0), (1.0, 0.0))
        assert [g.tolist() for g in box.normals(np.array([0.0, 0.0]), 1e-9)] == [
            [0.0, 1.0], [0.0, -1.0]]
        assert [g.tolist() for g in box.normals(np.array([1.0, 0.0]), 1e-9)] == [
            [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        # bounds within eps_act of each other count alike
        narrow = Box((0.0,), (1e-10,))
        assert [g.tolist() for g in narrow.normals(np.array([0.5e-10]), 1e-9)] == [[1.0], [-1.0]]

    def test_a_ball_of_radius_0_has_the_cone_of_its_point(self):
        # {c} has all of R^n as its normal cone, as the degenerate box [c, c] has
        c = (0.5, -1.0)
        point, ball = Box(c, c), Ball(c, 0.0)
        for x in ([0.5, -1.0], [0.5 + 1e-10, -1.0], [2.0, -1.0], [2.0, 3.0]):
            got = [g.tolist() for g in ball.normals(np.array(x), 1e-9)]
            assert got == [g.tolist() for g in point.normals(np.array(x), 1e-9)]
        assert [g.tolist() for g in ball.normals(np.array(c), 0.0)] == [
            [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]


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


# The atom formulas as sets computed them when it told the atom kinds
# apart by isinstance, kept here to pin each atom's own methods bit for bit;
# since then a box axis may give both its normals, a ball gives one, and a
# ball of radius 0, the point {center}, gives what that degenerate box gives.

def _reference_violations(atom, X):
    if isinstance(atom, Box):
        below = np.max(np.asarray(atom.lo) - X, axis=-1)
        above = np.max(X - np.asarray(atom.hi), axis=-1)
        return np.where(above > below, above, below)
    if isinstance(atom, (Halfspace, LinearEquality)):
        gap = _dot(atom.a, X.T) - atom.b
        return abs(gap) if isinstance(atom, LinearEquality) else gap
    return _norm([c - ci for c, ci in zip(X.T, atom.center)]) - atom.radius


def _reference_normals(atom, xv, n, eps_act):
    gens = []
    if isinstance(atom, Halfspace):
        if abs(_dot(atom.a, xv) - atom.b) <= eps_act:
            gens.append(np.asarray(atom.a, dtype=float))
    elif isinstance(atom, LinearEquality):
        a = np.asarray(atom.a, dtype=float)
        gens.append(a)
        gens.append(-a)
    elif isinstance(atom, Box):
        for i in range(n):
            if abs(xv[i] - atom.hi[i]) <= eps_act:
                unit = np.zeros(n)
                unit[i] = 1.0
                gens.append(unit)
            if abs(xv[i] - atom.lo[i]) <= eps_act:
                unit = np.zeros(n)
                unit[i] = -1.0
                gens.append(unit)
    elif atom.radius == 0:
        return _reference_normals(Box(atom.center, atom.center), xv, n, eps_act)
    elif abs(_reference_violations(atom, xv)) <= eps_act:
        gens.append(xv - np.asarray(atom.center, dtype=float))
    return gens


# entries drawn from a few values, so that rows often sit on a bound
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, 3.0, 0.1, -0.7, 1 / 3])


@st.composite
def _atoms_and_rows(draw):
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[_ENTRIES] * n)
    bounds = [sorted(draw(st.tuples(_ENTRIES, _ENTRIES))) for _ in range(n)]
    lo = tuple(-np.inf if draw(st.booleans()) else l for l, _ in bounds)
    hi = tuple(np.inf if draw(st.booleans()) else h for _, h in bounds)
    atom = draw(st.sampled_from([
        Box(lo, hi),
        Halfspace(draw(vec), draw(_ENTRIES)),
        LinearEquality(draw(vec), draw(_ENTRIES)),
        Ball(draw(vec), abs(draw(_ENTRIES))),
    ]))
    rows = draw(st.lists(vec, min_size=1, max_size=6))
    return atom, np.array(rows, dtype=float).reshape(len(rows), n)


def _bits(value) -> tuple:
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


@given(_atoms_and_rows(), st.sampled_from([0.0, 1e-9, 0.5]))
@settings(max_examples=300, deadline=None)
def test_atom_formulas_are_the_isinstance_chains_bit_for_bit(case, eps_act):
    atom, X = case
    n = X.shape[1]
    assert atom.dimension == n
    # an atom reads coordinates: the columns of X, or one point's floats
    assert _bits(atom.violations(X.T)) == _bits(_reference_violations(atom, X))
    for x in X:
        assert _bits(atom.violations(x.tolist())) == _bits(_reference_violations(atom, x))
        got, want = atom.normals(x, eps_act), _reference_normals(atom, x, n, eps_act)
        assert [_bits(g) for g in got] == [_bits(g) for g in want]
        S = ConvexSetDescriptor(n, (atom,))
        assert [_bits(g) for g in normal_cone_generators(S, x, eps_act)] == [_bits(g) for g in want]


_INF = float("inf")
# offsets from a boundary: within eps_feas (1e-9) of it, on it, and just past it
_OFFSETS = st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-300])


@st.composite
def _atoms_and_boundary_rows(draw):
    """An atom of any kind, whose box bounds, offset b or radius may be
    infinite, and rows of entries with signed zeros, each possibly moved
    along one axis to within an offset of the atom's boundary."""
    n = draw(st.integers(1, 3))
    vec = st.tuples(*[_ENTRIES] * n)
    kind = draw(st.sampled_from(["box", "halfspace", "equality", "ball"]))
    if kind == "box":
        bounds = [sorted(draw(st.tuples(_ENTRIES, _ENTRIES))) for _ in range(n)]
        atom = Box(tuple(-_INF if draw(st.booleans()) else lo for lo, _ in bounds),
                   tuple(_INF if draw(st.booleans()) else hi for _, hi in bounds))
    elif kind == "ball":
        atom = Ball(draw(vec), draw(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1 / 3, _INF])))
    else:
        b = draw(st.one_of(_ENTRIES, st.sampled_from([_INF, -_INF])))
        atom = (Halfspace if kind == "halfspace" else LinearEquality)(draw(vec), b)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        x, i, off = list(draw(vec)), draw(st.integers(0, n - 1)), draw(_OFFSETS)
        if not draw(st.booleans()):
            pass  # a row as drawn
        elif kind == "box":
            x[i] = draw(st.sampled_from([atom.lo[i], atom.hi[i]])) + off
        elif kind == "ball":
            x = list(atom.center)
            x[i] += draw(st.sampled_from([1.0, -1.0])) * (atom.radius + off)
        elif atom.a[i] != 0.0:
            x[i] = (atom.b + off - sum(a * c for j, (a, c) in enumerate(zip(atom.a, x)) if j != i)) / atom.a[i]
        rows.append(x if all(map(np.isfinite, x)) else list(draw(vec)))
    return atom, np.array(rows, dtype=float)


@given(_atoms_and_boundary_rows(), st.sampled_from([0.0, 1e-9, 0.5]))
@settings(max_examples=300, deadline=None)
def test_one_point_reads_as_its_batch_row_bit_for_bit(case, tol):
    atom, X = case
    S = ConvexSetDescriptor(X.shape[1], (atom,))
    mask = contains_many(S, X, tol)
    for x, in_S in zip(X, mask.tolist()):
        assert contains(S, x.tolist(), tol) is in_S and contains(S, x, tol) is in_S
        assert _bits(atom.violations(x.tolist())) == _bits(_reference_violations(atom, x))
    # a NaN or infinite coordinate: the same InputError from every entry point,
    # which names the batch's row as such
    for bad in (float("nan"), _INF, -_INF):
        x, Y = X[0].copy(), X.copy()
        x[-1] = bad
        Y[len(Y) // 2] = x  # the first row refused
        errors = []
        for call in (lambda: contains(S, x.tolist(), tol), lambda: contains(S, x, tol),
                     lambda: contains_many(S, Y, tol), lambda: normal_cone_generators(S, x)):
            with pytest.raises(InputError, match="non-finite") as error:
                call()
            errors.append(str(error.value))
        at = tuple(x.tolist())
        assert errors == [f"point {at} has non-finite entries"] * 2 + [
            f"X row {at} has non-finite entries", f"point {at} has non-finite entries"]


def test_box_generators_keep_positive_zeros_off_the_axis():
    box = Box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    gens = box.normals(np.array([0.0, 0.5, 1.0]), 1e-9)
    assert [g.tolist() for g in gens] == [[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert not any(np.signbit(g[g == 0.0]).any() for g in gens)
