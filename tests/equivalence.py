"""Equivalence hashes: one sha256 over the outcomes of each fixed family of calls.

Run from a checkout's root, ``python tests/equivalence.py [LISTING]``; it
imports qcsol from that checkout's ``src``.  Two trees whose printed sha256
agree answered every call of the family alike: the same value (arrays by
dtype, shape and bytes, floats by their hex form) or the same error class
and message.  Given a LISTING path, it also writes there one
``family label<TAB>outcome`` line per outcome, in call order, so that
``diff`` of two trees' listings names the outcomes that moved.  Tier-1
does not collect this file; it needs only the standard library and numpy.

The committed family:

* atoms: seeded atoms of every kind (dimensions 1-3, entries with signed
  zeros and 1e-300, infinite box bounds, infinite b and radius), alone and
  with a box, asked ``contains`` (a point as a list, a tuple and an
  array), ``contains_many``, ``atom_violation`` and
  ``normal_cone_generators`` at points on, near and off their boundary;
* variants: all 24, ``charac.membership`` on the five plain examples and
  ``kkt.membership_constrained`` on ex2_3_constrained at three
  multipliers, at three anchors and every node of the 9-grid, under two
  configs, with the enumerations on the 9-grid, ``is_feasible`` and
  ``member_X1``;
* ``kkt.feasible_grid`` on every example and on problems whose
  constraints fail on the grid, warm and cold;
* the GP route (``gp_solution_check``, ``default_gp_candidates``,
  ``gp_member``) and the ML route (``ml_solution_check_1d``, M1 and M2,
  ``ml_member_1d``), warm and cold (the store cleared before each call);
* the CLI's exit code, stdout and stderr for ``verify-membership``,
  ``subdiff-check``, ``enumerate``, ``oracle`` and ``run-example``.

The extended family, hashed apart so that the committed family's hash
stays comparable with older trees:

* ``kkt-solve`` and ``check-cq`` on ex2_3_constrained (anchors on and off
  its grid, refused ones, three configs), warm and cold, and through
  problem files of constrained problems;
* ``verify-membership`` through ``--problem`` files of the plain examples,
  with and without a config object in the file and flags over it;
* config refusals: bad config flags, and ``QCX_CONFIG`` files and
  problem-file config objects with bad keys in several orders, under
  ``verify-membership`` and ``kkt-solve``.

The call-order family, hashed apart too: every order of five of the
grid questions (``brute_force_solutions``, ``enumerate_solution_set``,
``feasible_grid``, ``gp_solution_check``, ``gp_member`` and, on a 1-D
window, ``ml_solution_check_1d`` and ``ml_member_1d``) at resolution 5,
each order on an empty store and then again, on three objectives over
a window that reaches past x1 >= 0: ``sqrt(x1) + x1``, which fails off
the feasible set, ``sqrt(x1) + x2``, whose GP grid fails, and
``(x1 - 0.5)^2``, which fails nowhere.  Whichever question reads a
window first, each answers as it would alone.

The boundary family, hashed apart too: each public entry that reads a
point, rows or a vector from its caller (the atoms and MultiplierVector
among them), handed inputs that are not reals ("ab", a string entry, a
ragged list, an int beyond the floats, a complex number, an object of a
class of its own, whose repr names no address), a
NaN entry, numeric strings, a bare scalar, a nested point and, where
rows are expected, a 1-D array, each on an empty store.

The evaluator family, hashed apart too: seeded random ASTs in two
variables over every node kind (``Pow`` exponents 0-4, piecewise ASTs
with empty and overlapping guards), each on a batch of 1-8 rows drawn
from signed zeros, subnormals, infinities, NaN, 1e200, 1e-300 and small
reals, asked ``evaluate`` and ``grad`` at each row and ``evaluate_many``
and ``grad_many`` on the batch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from qcsol import alternatives, charac, cli, convexity, expr, kkt, oracle, sets, subdiff  # noqa: E402
from qcsol.config import Config  # noqa: E402
from qcsol.core import CharacVariant, ConstrainedProblem, MultiplierVector, Problem  # noqa: E402
from qcsol.expr import (Abs, Add, Const, Div, LinearIneq, Mul, Neg, Piecewise, Pow, Sqrt,  # noqa: E402
                        Sub, Var, parse)
from qcsol.problemfile import dumps  # noqa: E402
from qcsol.registry import get_example  # noqa: E402
from qcsol.sets import Ball, Box, ConvexSetDescriptor, Halfspace, LinearEquality, grid_nodes  # noqa: E402

PLAIN = ("ex2_1", "ex2_2", "ex2_3", "ex2_4", "ex4_1")
CONFIGS = (Config(), Config(eps_feas=0.2, eps_act=0.05, eps_dir=1e-3, eps_opt=1e-3))
PLAIN_VARIANTS = tuple(v for v in CharacVariant if not v.requires_multiplier)
CONSTRAINED_VARIANTS = tuple(v for v in CharacVariant if v.requires_multiplier)


def canon(value):
    """value as text that tells apart what two trees could answer apart."""
    if isinstance(value, np.ndarray):
        return f"array({value.dtype.str},{value.shape},{value.tobytes().hex()})"
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, (float, np.floating)):
        return f"{type(value).__name__}({float(value).hex()})"
    if isinstance(value, (list, tuple)):
        return f"{type(value).__name__}[{','.join(map(canon, value))}]"
    if isinstance(value, dict):
        return "{" + ",".join(f"{canon(k)}:{canon(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        fields = (canon(getattr(value, f.name)) for f in dataclasses.fields(value))
        return f"{type(value).__name__}({','.join(fields)})"
    return repr(value)


class Record:
    """The running hash, the count of outcomes by kind and the listing (a text file)."""

    def __init__(self, family: str, listing):
        self.sha = hashlib.sha256()
        self.kinds: Counter = Counter()
        self.family, self.listing = family, listing

    def __call__(self, label: str, call):
        """Run call() and hash its outcome under label: True, False, another
        value, or the error class and message."""
        try:
            value = call()
        except Exception as exc:  # every error is an outcome to compare
            kind, text = type(exc).__name__, f"{type(exc).__name__}: {exc}"
        else:
            kind = str(bool(value)) if isinstance(value, (bool, np.bool_)) else "value"
            text = canon(value)
        self.kinds[kind] += 1
        self.sha.update(f"{label}\n{text}\n".encode())
        self.listing.write(f"{self.family} {label}\t{text}\n")


def _entries(rng, count: int):
    """count float entries: mostly uniform, with signed zeros and 1e-300."""
    pool = np.concatenate([rng.uniform(-2.0, 2.0, 6), [0.0, -0.0, 1e-300, -1e-300, 1.0]])
    return tuple(float(v) for v in rng.choice(pool, count))


def _atoms(rng, count: int):
    """count seeded atoms of every kind, in turn."""
    inf = float("inf")
    for i in range(count):
        n = 1 + i % 3
        kind = i % 4
        if kind == 0:
            lo = _entries(rng, n)
            hi = tuple(l + abs(w) for l, w in zip(lo, _entries(rng, n)))
            if i % 7 == 0:
                lo = (-inf,) + lo[1:]
            if i % 11 == 0:
                hi = hi[:-1] + (inf,)
            yield Box(lo, hi)
        elif kind == 1:
            b = (inf, -inf)[i % 2] if i % 13 == 1 else float(rng.uniform(-1.0, 1.0))
            yield Halfspace(_entries(rng, n), b)
        elif kind == 2:
            radius = inf if i % 17 == 2 else (0.0 if i % 19 == 2 else float(rng.uniform(0.1, 2.0)))
            yield Ball(_entries(rng, n), radius)
        else:
            yield LinearEquality(_entries(rng, n), float(rng.uniform(-1.0, 1.0)))


def _near(rng, atom, n: int):
    """Points on, near and off the atom's boundary, and far away."""
    base = rng.uniform(-2.0, 2.0, (4, n))
    anchor = np.asarray(getattr(atom, "center", getattr(atom, "lo", np.zeros(n))), dtype=float)
    anchor = np.where(np.isfinite(anchor), anchor, 0.0)
    on = anchor.copy()
    if isinstance(atom, Ball) and np.isfinite(atom.radius):
        on[0] += atom.radius
    return np.vstack([base, on, on + 2e-9, on - 2e-9, np.full(n, 1e6), np.zeros(n), -np.zeros(n)])


def atoms(record: Record):
    rng = np.random.default_rng(3905)
    for k, atom in enumerate(_atoms(rng, 600)):
        n = atom.dimension
        box = Box((-1.5,) * n, (1.5,) * n)
        X = _near(rng, atom, n)
        for j, S in enumerate((ConvexSetDescriptor(n, (atom,)), ConvexSetDescriptor(n, (atom, box)))):
            label = f"atom {k} {atom!r} set {j}"
            for tol in (0.0, 1e-9, 0.5):
                record(f"{label} contains_many {tol}", lambda: sets.contains_many(S, X, tol))
                for i, x in enumerate(X):
                    for form in (x.tolist(), tuple(x.tolist()), x):
                        record(f"{label} contains {i} {type(form).__name__} {tol}",
                               lambda: sets.contains(S, form, tol))
            for i, x in enumerate(X):
                for eps in (1e-9, 0.5):
                    record(f"{label} normals {i} {eps}",
                           lambda: sets.normal_cone_generators(S, x, eps))
        for i, x in enumerate(X):
            record(f"atom {k} violation {i}", lambda: sets.atom_violation(atom, x))
            record(f"atom {k} violation list {i}", lambda: sets.atom_violation(atom, x.tolist()))
        for bad in ([np.nan] * n, [np.inf] * n, [0.0] * (n + 1), 0.5, [[0.0] * n], "x"):
            record(f"atom {k} refused {bad!r}",
                   lambda: sets.contains(ConvexSetDescriptor(n, (atom,)), bad))


def _anchors(e):
    """The example's anchor and two more points of its feasible grid."""
    X = kkt.feasible_grid(e.problem, 9)
    return [e.anchor, tuple(X[len(X) // 3].tolist()), tuple(X[-1].tolist())]


def variants(record: Record):
    for name in PLAIN:
        e = get_example(name)
        p = e.problem
        points = [tuple(x) for x in grid_nodes(p.domain_window, 9).tolist()]
        points += [e.anchor, tuple([9.0] * p.dimension)]
        for c, cfg in enumerate(CONFIGS):
            for a, xbar in enumerate(_anchors(e)):
                for v in PLAIN_VARIANTS:
                    label = f"{name} cfg {c} anchor {a} {v.value}"
                    record(f"{label} enumerate", lambda: charac.enumerate_solution_set(p, xbar, v, 9, cfg))
                    for x in points:
                        record(f"{label} {x}", lambda: charac.membership(p, xbar, x, v, cfg))
    e = get_example("ex2_3_constrained")
    cp = e.problem
    points = [tuple(x) for x in grid_nodes(cp.domain_window, 9).tolist()] + [e.anchor]
    for c, cfg in enumerate(CONFIGS):
        for a, xbar in enumerate(_anchors(e)):
            record(f"constrained cfg {c} anchor {a} multipliers",
                   lambda: kkt.solve_multipliers(cp, xbar, cfg))
            record(f"constrained cfg {c} anchor {a} gmfcq", lambda: kkt.check_gmfcq(cp, xbar, cfg))
            lams = [MultiplierVector((0.0,)), MultiplierVector((0.5,)), MultiplierVector((2.0,))]
            for m, lam in enumerate(lams):
                for v in CONSTRAINED_VARIANTS:
                    label = f"constrained cfg {c} anchor {a} lam {m} {v.value}"
                    record(f"{label} enumerate",
                           lambda: kkt.enumerate_constrained(cp, xbar, lam, v, 9, cfg))
                    for x in points:
                        record(f"{label} {x}",
                               lambda: kkt.membership_constrained(cp, xbar, lam, x, v, cfg))
                for x in points:
                    record(f"constrained cfg {c} anchor {a} lam {m} X1 {x}",
                           lambda: kkt.member_X1(cp, xbar, lam, x, cfg))
            for x in points:
                record(f"constrained cfg {c} feasible {x}", lambda: kkt.is_feasible(cp, x, cfg))


def _feasible_problems():
    """Every example, and ex2_3_constrained's objective under constraints
    that fail on the grid, on tilted atoms, over an unbounded window and
    with no feasible node."""
    names = PLAIN + ("ex2_3_constrained",)
    yield from ((name, get_example(name).problem) for name in names)
    disk = get_example("ex2_3_constrained").problem
    window = Box((-1.5, -1.5), (1.5, 1.5))
    tilted = ConvexSetDescriptor(2, (Halfspace((0.1, 0.7), 0.3), Ball((0.1, 0.2), 1.1)))
    two = (parse("x1^2 + x2^2 - 2", 2), parse("0.3*x1 - 0.1*x2 - 0.2", 2))
    failing = (parse("1/(x1 - 1)", 2), parse("sqrt(x2 + 1)", 2))
    yield "atoms", ConstrainedProblem(disk.objective, two, tilted, 2, window)
    yield "failing", ConstrainedProblem(disk.objective, failing, ConvexSetDescriptor(2, ()), 2, window)
    yield "inf", ConstrainedProblem(disk.objective, two, tilted, 2, Box((-np.inf, -1.0), (1.0, 1.0)))
    yield "empty", ConstrainedProblem(disk.objective, (parse("x1^2 + x2^2 + 1", 2),), tilted, 2, window)


def feasible(record: Record):
    for name, p in _feasible_problems():
        for resolution in (5, 9, 13, 61, 1, 2.0):
            for c, cfg in enumerate(CONFIGS):
                label = f"feasible_grid {name} {resolution!r} cfg {c}"
                sets._KEPT.clear()
                record(f"{label} cold", lambda: kkt.feasible_grid(p, resolution, cfg))
                record(f"{label} warm", lambda: kkt.feasible_grid(p, resolution, cfg))


def _cold(call):
    """call() on an empty store."""
    def run():
        sets._KEPT.clear()
        return call()
    return run


def gp(record: Record):
    configs = CONFIGS + (Config(eps_grad=0.5), Config(eps_feas=1e-3, eps_grad=1e-3))
    for name in ("ex2_1", "ex2_2", "ex2_3", "ex2_4"):
        e = get_example(name)
        p = e.problem
        nodes = [tuple(x) for x in grid_nodes(p.domain_window, 9).tolist()]
        for c, cfg in enumerate(configs):
            for a, xbar in enumerate(_anchors(e)):
                for resolution in (5, 21):
                    grid = subdiff._grid_values(p.objective, p.domain_window, resolution)
                    for x in nodes:
                        label = f"gp {name} cfg {c} anchor {a} r {resolution} {x}"
                        record(label, lambda: subdiff.gp_solution_check(p, xbar, x, resolution, cfg))
                        record(f"{label} _grid", lambda: subdiff.gp_solution_check(
                            p, xbar, x, resolution, cfg, _grid=grid))
                        record(f"{label} candidates",
                               lambda: subdiff.default_gp_candidates(p.objective, xbar, x, 2, cfg))
                for x in nodes:
                    record(f"gp {name} cfg {c} anchor {a} cold {x}",
                           _cold(lambda: subdiff.gp_solution_check(p, xbar, x, 5, cfg)))
        for v in ((1.0, 0.0), (0.0, -1.0), (1.0, 1.0), (-0.5, 2.0)):
            for x in nodes[::5]:
                record(f"gp_member {name} {v} {x}",
                       lambda: subdiff.gp_member(p.objective, x, v, p.domain_window))
    for dim in (1, 3):
        zero = np.zeros(dim)
        record(f"candidates dim {dim}",
               lambda: subdiff.default_gp_candidates(parse("0", dim), zero, zero, dim))


def ml(record: Record):
    e = get_example("ex4_1")
    p = e.problem
    lo, hi = p.domain_window.lo[0], p.domain_window.hi[0]
    points = list(np.linspace(lo - 0.3, hi + 0.3, 37).tolist()) + [np.float64(0.5), 1, True]
    configs = CONFIGS + (Config(eps_feas=1e-3), Config(eps_feas=0.05))
    for c, cfg in enumerate(configs):
        for xbar in (0.0, 0.5, 1.0, 1.5):
            for resolution in (41, 201):
                for form in ("M1", "M2"):
                    for x in points:
                        label = f"ml cfg {c} anchor {xbar} r {resolution} {form} {x!r}"
                        record(label, lambda: subdiff.ml_solution_check_1d(p, xbar, x, resolution, cfg, form))
                        if resolution == 41:
                            record(f"{label} cold", _cold(lambda: subdiff.ml_solution_check_1d(
                                p, xbar, x, resolution, cfg, form)))
    for pair in subdiff.default_ml_pairs(p.domain_window)[::4]:
        for x in points[::3]:
            record(f"ml_member {pair} {x!r}",
                   lambda: subdiff.ml_member_1d(p.objective, x, pair, p.domain_window))
    for x in (np.nan, np.inf, [0.5], "0.5"):
        record(f"ml refused {x!r}", lambda: subdiff.ml_solution_check_1d(p, 0.5, x))


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def cli_runs(record: Record):
    for name in PLAIN:
        e = get_example(name)
        nodes = grid_nodes(e.problem.domain_window, 5).tolist()
        points = [",".join(map(repr, x)) for x in nodes]
        points += [",".join(["nan"] * e.problem.dimension), ",".join(["1.0"] * (e.problem.dimension + 1))]
        for flags in ([], ["--eps-feas", "0.2"]):
            base = ["--example", name, *flags]
            for v in PLAIN_VARIANTS + (CharacVariant.SP1,):
                for point in points:
                    argv = ["verify-membership", *base, "--variant", v.value, "--point", point]
                    record(" ".join(argv), lambda: _cli(argv))
                argv = ["enumerate", *base, "--variant", v.value, "--resolution", "9"]
                record(" ".join(argv), lambda: _cli(argv))
            routes = ("gp", "ml") if e.problem.dimension == 1 else ("gp",)
            for route in routes:
                for point in points:
                    argv = ["subdiff-check", *base, "--route", route, "--point", point, "--resolution", "5"]
                    record(" ".join(argv), lambda: _cli(argv))
            argv = ["oracle", *base, "--resolution", "9"]
            record(" ".join(argv), lambda: _cli(argv))
    for name in PLAIN + ("ex2_3_constrained",):
        for check in ("summary", "all"):
            argv = ["run-example", name, "--check", check]
            record(" ".join(argv), lambda: _cli(argv))


def _call_order_problems():
    """(name, problem, anchor, point) of each call-order objective, over
    [-1, 1]^n with the feasible set x1 >= 0."""
    for n, text, xbar, x in ((1, "sqrt(x1) + x1", (0.0,), (0.5,)),
                             (2, "sqrt(x1) + x2", (0.0, -1.0), (0.5, -1.0)),
                             (1, "(x1 - 0.5)^2", (0.5,), (0.5,))):
        half = ConvexSetDescriptor(n, (Halfspace((-1.0,) + (0.0,) * (n - 1), 0.0),))
        yield text, Problem(parse(text, n), half, n, Box((-1.0,) * n, (1.0,) * n)), xbar, x


def call_orders(record: Record):
    for name, p, xbar, x in _call_order_problems():
        f, window, v = p.objective, p.domain_window, (1.0,) + (0.0,) * (p.dimension - 1)
        calls = {
            "brute_force_solutions": lambda: oracle.brute_force_solutions(p, 5),
            "enumerate_solution_set": lambda: charac.enumerate_solution_set(
                p, xbar, CharacVariant.T1, 5),
            "feasible_grid": lambda: kkt.feasible_grid(p, 5),
            "gp_solution_check": lambda: subdiff.gp_solution_check(p, xbar, x, 5),
            "gp_member": lambda: subdiff.gp_member(f, x, v, window, 5),
        }
        if p.dimension == 1:
            calls["ml_solution_check_1d"] = lambda: subdiff.ml_solution_check_1d(p, xbar[0], x[0], 5)
            calls["ml_member_1d"] = lambda: subdiff.ml_member_1d(
                f, x[0], subdiff.MLPair(1.0, 0.0), window, 5)
        for order in itertools.permutations(calls, 5):
            sets._KEPT.clear()
            for state in ("cold", "warm"):
                for call in order:
                    record(f"order {name} {' '.join(order)} {state} {call}", calls[call])


def _point_text(x) -> str:
    return ",".join(map(repr, x))


def _file(folder: str, name: str, text: str) -> str:
    """The path of a new file in folder holding text."""
    path = os.path.join(folder, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


@contextlib.contextmanager
def _environ(name: str, value):
    """os.environ[name] set to value (unset if None) for the block."""
    old = os.environ.pop(name, None)
    if value is not None:
        os.environ[name] = value
    try:
        yield
    finally:
        os.environ.pop(name, None)
        if old is not None:
            os.environ[name] = old


_KKT_FLAGS = ([], ["--eps-feas", "0.2"], ["--eps-act", "0.05", "--eps-grad", "1e-3"])


def kkt_cli(record: Record, folder: str):
    e = get_example("ex2_3_constrained")
    anchors = [None, _point_text(e.anchor)]
    anchors += [_point_text(x) for x in kkt.feasible_grid(e.problem, 5).tolist()]
    anchors += ["9,9", "1", "nan,0", "0,-0.0"]
    for command in ("kkt-solve", "check-cq"):
        for flags in _KKT_FLAGS:
            for anchor in anchors:
                argv = [command, "--example", "ex2_3_constrained", *flags]
                argv += [f"--anchor={anchor}"] if anchor is not None else []
                record(" ".join(argv), lambda: _cli(argv))
                record(" ".join(argv) + " again", lambda: _cli(argv))
                record(" ".join(argv) + " cold", _cold(lambda: _cli(argv)))
    for name, p in _feasible_problems():
        if not isinstance(p, ConstrainedProblem):
            continue
        for a, anchor in enumerate(((0.0, 0.0), (1.0, 0.0), (0.5, -0.5))):
            label = f"kkt file {name} anchor {a}"
            try:
                path = _file(folder, f"kkt-{name}-{a}.json", dumps(p, known_solution=anchor))
            except Exception as exc:  # a problem the file format cannot hold
                record(f"{label} dumps", lambda: repr(exc))
                continue
            for command in ("kkt-solve", "check-cq"):
                for flags in _KKT_FLAGS:
                    argv = [command, "--problem", path, *flags]
                    record(f"{label} {command} {flags}", lambda: _cli(argv))


def problem_files(record: Record, folder: str):
    configs = (None, {"eps_feas": 0.2, "eps_dir": 1e-3}, {"seed": 3, "eps_grad": 0.5})
    for name in PLAIN:
        e = get_example(name)
        p = e.problem
        points = [_point_text(x) for x in grid_nodes(p.domain_window, 5).tolist()]
        points += [_point_text(e.anchor), ",".join(["-0.0"] * p.dimension)]
        other = _point_text(_anchors(e)[1])
        for c, config in enumerate(configs):
            path = _file(folder, f"{name}-{c}.json", dumps(p, known_solution=e.anchor, config=config))
            for flags in ([], ["--eps-feas", "1e-6"], [f"--anchor={other}"]):
                for v in PLAIN_VARIANTS + (CharacVariant.SP1,):
                    for point in points:
                        argv = ["verify-membership", "--problem", path, *flags,
                                "--variant", v.value, f"--point={point}"]
                        record(f"{name} file {c} {flags} {v.value} {point}", lambda: _cli(argv))


# config documents, each with its bad keys in several orders
_BAD_CONFIGS = (
    {"seed": -1, "eps_grad": -1.0}, {"eps_grad": -1.0, "seed": -1},
    {"eps_opt": "x", "eps_feas": 0.1, "delta_open": None},
    {"delta_open": None, "eps_feas": 0.1, "eps_opt": "x"},
    {"eps_feas": 0.1, "eps_act": True, "seed": 1.5}, {"seed": 1.5, "eps_act": True},
    {"eps_lp": 10 ** 400, "eps_dir": -0.0}, {"eps_dir": -1e-9, "eps_lp": 10 ** 400},
    {"bogus": 1, "seed": -1}, {"seed": 10 ** 30, "eps_feas": 0.2}, {}, [], "text",
)
_BAD_FLAGS = (["--eps-feas", "-1"], ["--eps-grad", "nan"], ["--eps-dir", "inf"],
              ["--seed", "-3"], ["--eps-act", "-1", "--eps-grad", "-1"],
              ["--eps-grad", "-1", "--eps-act", "-1"], ["--seed", "-1", "--eps-feas", "nan"],
              ["--eps-feas", "nan", "--seed", "-1"], ["--eps-feas=-0.0"])
_QUERIES = (["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point", "1.5,0"],
            ["kkt-solve", "--example", "ex2_3_constrained"])


def config_refusals(record: Record, folder: str):
    for flags in _BAD_FLAGS:
        for query in _QUERIES:
            argv = [*query, *flags]
            record(" ".join(argv), lambda: _cli(argv))
    texts = [json.dumps(c) for c in _BAD_CONFIGS] + ['{"seed": 1, "seed": -1}', "{", '{"eps_feas": 1e400}']
    e = get_example("ex2_1")
    for t, text in enumerate(texts):
        path = _file(folder, f"config-{t}.json", text)
        with _environ("QCX_CONFIG", path):
            for query in _QUERIES:
                for flags in ([], ["--eps-feas", "0.2"], ["--seed", "-1"]):
                    argv = [*query, *flags]
                    record(f"QCX_CONFIG {text} {' '.join(argv)}", lambda: _cli(argv))
        if not isinstance(_json_value(text), dict):
            continue
        doc = json.loads(dumps(e.problem, known_solution=e.anchor))
        doc["config"] = json.loads(text)
        problem = _file(folder, f"problem-config-{t}.json", json.dumps(doc))
        for env in (None, _file(folder, f"env-{t}.json", '{"eps_feas": 0.3}')):
            with _environ("QCX_CONFIG", env):
                argv = ["verify-membership", "--problem", problem, "--variant", "S1", "--point", "1.5,0"]
                record(f"problem config {text} env {env is not None}", lambda: _cli(argv))


def _json_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class _Opaque:
    """An object that is no real, whose repr (unlike object()'s) names no address."""

    def __repr__(self):
        return "<opaque>"


# the bad inputs of the boundary family, and the forms every entry reads as reals
_BOUNDARY_INPUTS = {"string": "ab", "string entry": [1.0, "a"], "ragged": [[1.0], [1.0, 2.0]],
                    "huge int": 10 ** 400, "huge int entry": [10 ** 400, 0.0], "complex": 1 + 2j,
                    "object": _Opaque(), "nan entry": [float("nan"), 0.0],
                    "numeric strings": ["1.5", "0.5"], "bare scalar": 0.5, "nested": [[1.5, 0.5]],
                    "complex scalar entry": [np.complex128(1.5 + 1j), 0.5]}
_FLAT_ROWS = np.array([1.5, 0.5])


def _boundary_entries():
    """(name, reads rows, call of an input) of each public entry that reads
    a point, rows or a vector from its caller."""
    e, e1, ec = get_example("ex2_1"), get_example("ex4_1"), get_example("ex2_3_constrained")
    p, p1, cp = e.problem, e1.problem, ec.problem
    f, S, w, xb, xc = p.objective, p.feasible_set, p.domain_window, e.anchor, ec.anchor
    lam, pair, T1 = MultiplierVector((0.5,)), subdiff.MLPair(1.0, 0.4), CharacVariant.T1
    f1, w1 = p1.objective, p1.domain_window
    return [
        ("membership x", False, lambda b: charac.membership(p, xb, b, T1)),
        ("membership xbar", False, lambda b: charac.membership(p, b, xb, T1)),
        ("contains", False, lambda b: sets.contains(S, b)),
        ("contains_many", True, lambda b: sets.contains_many(S, b)),
        ("atom_violation", False, lambda b: sets.atom_violation(S.atoms[0], b)),
        ("normal_cone_generators", False, lambda b: sets.normal_cone_generators(S, b)),
        ("evaluate", False, lambda b: expr.evaluate(f, b)),
        ("evaluate_many", True, lambda b: expr.evaluate_many(f, b)),
        ("grad", False, lambda b: expr.grad(f, b)),
        ("grad_many", True, lambda b: expr.grad_many(f, b)),
        ("classify_dichotomy", True, lambda b: charac.classify_dichotomy(p, b)),
        ("is_feasible", False, lambda b: kkt.is_feasible(cp, b)),
        ("member_X1 x", False, lambda b: kkt.member_X1(cp, xc, lam, b)),
        ("member_X1 xbar", False, lambda b: kkt.member_X1(cp, b, lam, xc)),
        ("lagrangian", False, lambda b: kkt.lagrangian(cp, lam, b)),
        ("gp_solution_check x", False, lambda b: subdiff.gp_solution_check(p, xb, b, 5)),
        ("gp_solution_check xbar", False, lambda b: subdiff.gp_solution_check(p, b, xb, 5)),
        ("gp_member x0", False, lambda b: subdiff.gp_member(f, b, (1.0, 0.0), w, 5)),
        ("gp_member v", False, lambda b: subdiff.gp_member(f, xb, b, w, 5)),
        ("ml_solution_check_1d x", False, lambda b: subdiff.ml_solution_check_1d(p1, 0.5, b, 41)),
        ("ml_solution_check_1d xbar", False, lambda b: subdiff.ml_solution_check_1d(p1, b, 0.5, 41)),
        ("ml_member_1d", False, lambda b: subdiff.ml_member_1d(f1, b, pair, w1, 41)),
        ("check_pseudoconvex_at", False, lambda b: convexity.check_pseudoconvex_at(f, b, w, 20)),
        ("collinearity_factor a", False, lambda b: alternatives.collinearity_factor(b, [1.0, 2.0])),
        ("collinearity_factor b", False, lambda b: alternatives.collinearity_factor([1.0, 2.0], b)),
        ("solve_lp c", False, lambda b: alternatives.solve_lp(b, [[1.0, 1.0]], [1.0])),
        ("solve_lp A_ub", True, lambda b: alternatives.solve_lp([1.0, 1.0], b, [1.0])),
        ("solve_lp b_ub", False, lambda b: alternatives.solve_lp([1.0, 1.0], [[1.0, 1.0]], b)),
        ("gordan_alternative", True, lambda b: alternatives.gordan_alternative(b)),
        ("dual_certificate", True, lambda b: alternatives.dual_certificate(b)),
        ("Box lo", False, lambda b: Box(b, (2.0, 2.0))),
        ("Box hi", False, lambda b: Box((0.0, 0.0), b)),
        ("Halfspace a", False, lambda b: Halfspace(b, 0.0)),
        ("Halfspace b", False, lambda b: Halfspace((1.0, 0.0), b)),
        ("Ball center", False, lambda b: Ball(b, 1.0)),
        ("Ball radius", False, lambda b: Ball((0.0, 0.0), b)),
        ("LinearEquality a", False, lambda b: LinearEquality(b, 0.0)),
        ("LinearEquality b", False, lambda b: LinearEquality((1.0, 0.0), b)),
        ("MultiplierVector", False, lambda b: MultiplierVector(b)),
    ]


def boundary(record: Record):
    for name, rows, call in _boundary_entries():
        inputs = dict(_BOUNDARY_INPUTS, **({"1-D rows": _FLAT_ROWS} if rows else {}))
        for label, value in inputs.items():
            sets._KEPT.clear()
            record(f"boundary {name} {label}", lambda: call(value))


# the coordinates of the evaluator family's rows, and the constants of its ASTs
_COORDS = (0.0, -0.0, 5e-324, -2.5e-310, float("inf"), float("-inf"), float("nan"),
           1e200, -1e200, 1e-300, 0.5, -1.5, 2.0, 1.0, -1.0)
_CONSTS = (0.0, -0.0, 1.0, -2.0, 0.5, 3.0, 1e-300, 1e200)


def _ast(rng, depth: int):
    """A seeded random AST in x1, x2 of at most depth levels below it."""
    kind = int(rng.integers(2 if depth else 0, 11 if depth else 2))
    if kind == 0:
        return Const(float(rng.choice(_CONSTS)))
    if kind == 1:
        return Var(int(rng.integers(1, 3)))
    if kind <= 5:
        return (Add, Sub, Mul, Div)[kind - 2](_ast(rng, depth - 1), _ast(rng, depth - 1))
    if kind == 6:
        return Pow(_ast(rng, depth - 1), int(rng.integers(0, 5)))
    if kind <= 9:
        return (Neg, Sqrt, Abs)[kind - 7](_ast(rng, depth - 1))
    branches = []
    for _ in range(int(rng.integers(1, 4))):  # guards of 0-2 inequalities, which may overlap
        guard = []
        for _ in range(int(rng.integers(0, 3))):
            coeffs = rng.choice((-1.0, 0.0, 0.5, 1.0), int(rng.integers(1, 3)))
            guard.append(LinearIneq(tuple(coeffs.tolist()), float(rng.choice((-0.5, 0.0, 0.5)))))
        branches.append((tuple(guard), _ast(rng, depth - 1)))
    return Piecewise(tuple(branches))


def evaluator(record: Record):
    rng = np.random.default_rng(4807)
    for k in range(400):
        f = _ast(rng, int(rng.integers(1, 4)))
        X = rng.choice(_COORDS, (int(rng.integers(1, 9)), 2))
        label = f"ast {k} {f!r}"
        for i, x in enumerate(X.tolist()):
            record(f"{label} evaluate {i}", lambda: expr.evaluate(f, x))
            record(f"{label} grad {i}", lambda: expr.grad(f, x))
        record(f"{label} evaluate_many", lambda: expr.evaluate_many(f, X))
        record(f"{label} grad_many", lambda: expr.grad_many(f, X))


def main(listing_path=None):
    out = {}
    with tempfile.TemporaryDirectory() as folder, _environ("QCX_CONFIG", None), \
            open(listing_path or os.devnull, "w") as listing:
        extended = [functools.partial(section, folder=folder)
                    for section in (kkt_cli, problem_files, config_refusals)]
        families = {"committed": (atoms, variants, feasible, gp, ml, cli_runs), "extended": extended,
                    "call_order": (call_orders,), "boundary": (boundary,), "evaluator": (evaluator,)}
        for family, sections in families.items():
            record = Record(family, listing)
            for section in sections:
                sets._KEPT.clear()
                section(record)
            out[family] = {"sha256": record.sha.hexdigest(), "outcomes": sum(record.kinds.values()),
                           "by_kind": dict(sorted(record.kinds.items()))}
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main(*sys.argv[1:2])
