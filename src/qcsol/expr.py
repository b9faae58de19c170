"""Scalar expressions of n variables: parsing, evaluation and gradients.

The grammar (documented in docs/grammar.md) covers infix arithmetic with
integer powers, ``sqrt``, ``abs`` and piecewise expressions whose guards
are conjunctions of linear inequalities.  Each expression is compiled
once into straight-line Python that computes its value and, in forward
mode, its exact gradient; the same code runs on Python floats for one
point (``evaluate``, ``grad``) and on numpy columns for a batch
(``evaluate_many``, ``grad_many``), so both agree bit for bit, in one
order with or without the gradient: each operator that can fail is one
helper for both modes, and a constant stays a float among columns.  Each
operator is defined once, in the operator tables after the AST nodes,
which the parser, the printer and the compiler read; the program states
which coordinates the expression reads.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import BoundaryMismatchError, DimensionError, EvalError, InputError, ParseError

GUARD_TOL = 1e-12  # absolute slack when deciding whether a guard holds


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    index: int  # 1-based


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Sqrt:
    operand: "Expr"


@dataclass(frozen=True)
class Abs:
    operand: "Expr"


@dataclass(frozen=True)
class LinearIneq:
    """coeffs . x <= bound"""

    coeffs: tuple
    bound: float


@dataclass(frozen=True)
class Piecewise:
    branches: tuple  # of (tuple of LinearIneq, Expr)


Expr = Union[Const, Var, Add, Sub, Mul, Div, Pow, Neg, Sqrt, Abs, Piecewise]

# Parsed expression in n variables; "ExprAst" in problem files.
ExprAst = Expr

# The operator tables.  Binary operators by symbol and functions of one
# argument by name; the printer reads both backwards.
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_FUNCTIONS = {"sqrt": Sqrt, "abs": Abs}
_SYMBOLS = {cls: sym for sym, cls in _BINARY.items()}
_NAMES = {cls: name for name, cls in _FUNCTIONS.items()}
# Precedence, for the parser and the printer: binary operators are
# left-associative, and the other nodes (5) bind tightest.
_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2, Neg: 3, Pow: 4}
# The operand fields of each node but Var and Piecewise, in evaluation order.
_OPERANDS = {Const: (), Pow: ("base",),
             **dict.fromkeys(_SYMBOLS, ("left", "right")),
             **dict.fromkeys((Neg, *_NAMES), ("operand",))}
# Forward mode: a node's value from its operands' values u (and w), and each
# partial derivative from theirs, du (and dw), and the node's own value v.
_RULES = {
    Add: ("{u} + {w}", "{du} + {dw}"),
    Sub: ("{u} - {w}", "{du} - {dw}"),
    Mul: ("{u} * {w}", "{u} * {dw} + {du} * {w}"),
    Neg: ("-{u}", "-{du}"),
    Sqrt: ("SQRT({u})", "SQRTD({v}, {du})"),
    Abs: ("abs({u})", "ABSD({u}, {du})"),
    Div: ("DIV({u}, {w})", "({du} - {v} * {dw}) / {w}"),
}


# ---------------------------------------------------------------------------
# One forward evaluator, compiled per expression
# ---------------------------------------------------------------------------

# Piecewise branches meeting at a point must agree: values within
# _EPS_VAL, derivatives within _EPS_DIR * (1 + |first branch's|).
_EPS_VAL = 1e-9
_EPS_DIR = 1e-8


def _sum(values):
    """The values summed left to right from 0.0, 0 + v1 + v2 + ... (so an
    all-zero sum is +0, as in BLAS, and fewer than 8 floats sum as numpy
    sums them); the values may be floats or numpy columns."""
    return functools.reduce(operator.add, values, 0.0)


def _dot(u, v):
    """u . v, the _sum of u1 v1, u2 v2, ...; the entries may be floats or
    numpy columns (then one dot product per row)."""
    return _sum(map(operator.mul, u, v))


def _norm(u):
    """sqrt(u . u) of floats or numpy columns (then one norm per row); a
    1-D array is read as its floats.  Where the sum overflows or
    underflows to 0, it is m |u / m| (_rescaled)."""
    if isinstance(u, np.ndarray) and u.ndim == 1:
        u = u.tolist()  # numpy scalars warn where a square overflows
    if not len(u) or not isinstance(u[0], np.ndarray):
        s = _dot(u, u)
        root = math.sqrt(s)
    else:
        with np.errstate(all="ignore"):  # numpy columns warn there too
            s = _dot(u, u)
            root = np.sqrt(s)
    return _rescaled(root, _lost(s), lambda v, m: m * _norm(v), u)


def _lost(s, dot=0.0):
    """The trigger of _rescaled: where a sum of squares s (or a product of
    norms) overflowed or underflowed to 0, or a dot product overflowed.
    A dot product of 0 does not count: it may be exact."""
    return (s == 0.0) | (s == math.inf) | (abs(dot) == math.inf)


def _rescaled(value, off, redo, *vectors):
    """value, a formula's plain result in the vectors (floats or numpy
    columns), except where off holds and every vector is nonzero and
    finite: there it is redo(*scaled, *m), of each vector u scaled by its
    largest |entry| m, row by row.  off is a bool or a numpy mask; every
    other result keeps its bits."""
    if not _any(off):
        return value
    with np.errstate(all="ignore"):  # rows that keep value may divide 0 by 0
        ms = [_max([abs(c) for c in u] or [0.0]) for u in vectors]
        on = functools.reduce(operator.and_, [(m > 0.0) & (m < math.inf) for m in ms], off)
        if not _any(on):
            return value
        return _where(on, redo(*[[c / m for c in u] for u, m in zip(vectors, ms)], *ms), value)


def _max(u):
    """The largest of u's floats or numpy columns (row by row); the last of equal ones, as np.max."""
    return functools.reduce(np.maximum, u) if isinstance(u[0], np.ndarray) else max(reversed(u))


def _ratio(u, v):
    """u / v on floats or numpy columns; a float v of 0 gives numpy's inf or NaN, not an error."""
    try:
        return u / v
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(np.divide(u, v))


def _where(mask, u, v):
    """u where mask holds, else v: a bool picks one, a numpy mask row by row."""
    return np.where(mask, u, v) if isinstance(mask, np.ndarray) else u if mask else v


def _not(mask):
    """The negation of a bool or of a numpy mask (~ on a bool is an int)."""
    return mask ^ True


def _any(mask) -> bool:
    """Whether a bool holds, or a numpy mask anywhere, without numpy's cost on a bool."""
    return mask if type(mask) is bool else bool(np.count_nonzero(mask))


class _Compiler:
    """Straight-line Python for an expression's value and its n partial
    derivatives, in forward mode: each node's derivatives follow from its
    operands' by the rules of dual-number arithmetic.  n = 0 gives the
    value alone.

    The source defines ``_build(POW, DIV, SQRT, SQRTD, ABSD, PW, k0,
    k1, ...)``, which returns ``f(x)`` -> (value, derivatives) for a
    list x of coordinates, Python floats at a point or numpy columns for
    a batch.  Each helper (_HELPERS) is written once for both modes, and
    a constant k*, passed in by reference, stays a float among columns.
    Each piecewise branch is a function of its own, called by PW with the
    point or rows it applies to.
    """

    def __init__(self, n: int):
        self.n = n
        self.consts: list = []
        self.functions: List[str] = []
        self.temps = 0
        self.lines: List[str] = []
        self.reads = 0  # a point must hold x[0] .. x[reads - 1]

    def source(self, e: Expr) -> str:
        top = self.function(e)
        params = ", ".join([*_HELPERS, *(f"k{i}" for i in range(len(self.consts)))])
        body = "\n".join("    " + line for fn in self.functions for line in fn.splitlines())
        return f"def _build({params}):\n{body}\n    return {top}\n"

    def function(self, e: Expr) -> str:
        name = f"f{self.temps}"
        self.temps += 1
        outer, self.lines = self.lines, []
        value, derivs = self.node(e)
        ret = f"return {value}, ({''.join(d + ', ' for d in derivs)})"
        self.functions.append("\n".join(
            [f"def {name}(x):"] + ["    " + line for line in self.lines + [ret]]
        ))
        self.lines = outer
        return name

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def value(self, expr: str) -> str:
        name = f"v{self.temps}"
        self.temps += 1
        self.lines.append(f"{name} = {expr}")
        return name

    def derivs(self, exprs) -> List[str]:
        names = [f"d{self.temps}_{i}" for i in range(self.n)]
        self.temps += 1
        self.lines.extend(f"{name} = {expr}" for name, expr in zip(names, exprs))
        return names

    def node(self, e: Expr):
        """The names (or literals) holding e's value and derivatives."""
        n, kind = self.n, type(e)
        if kind in _RULES:
            value, slope = _RULES[kind]
            values, derivs = zip(*(self.node(getattr(e, f)) for f in _OPERANDS[kind]))
            names = dict(zip("uw", values))
            v = self.value(value.format(**names))
            return v, self.derivs(slope.format(v=v, **names, **dict(zip(("du", "dw"), d)))
                                  for d in zip(*derivs))
        if isinstance(e, Const):
            return self.const(e.value), ["0.0"] * n
        if isinstance(e, Var):
            i, self.reads = e.index - 1, max(self.reads, e.index)
            return f"x[{i}]", ["1.0" if j == i else "0.0" for j in range(n)]
        if isinstance(e, Pow):
            b, bd = self.node(e.base)
            if e.exponent == 0:
                return "1.0", ["0.0"] * n
            # b^k = b^(k-1) * b, with or without derivatives.  b^(k-1) is by
            # binary powering: the squares of b that the bits of k - 1
            # select, multiplied in from the lowest bit up
            lower, square, m = None, b, e.exponent - 1
            while m:
                if m & 1:
                    lower = square if lower is None else self.value(f"{lower} * {square}")
                m >>= 1
                if m:
                    square = self.value(f"{square} * {square}")
            lower = lower or "1.0"
            v = self.value(f"POW({lower} * {b}, {b})")
            try:
                k = float(e.exponent)
            except OverflowError:  # past the largest float, so is the slope
                k = math.inf
            return v, self.derivs(f"{self.const(k)} * {lower} * {a}" for a in bd)
        if isinstance(e, Piecewise):
            hits, branches = [], []
            for guard, branch in e.branches:
                branches.append(self.function(branch))
                tests = []
                for ineq in guard:
                    self.reads = max(self.reads, len(ineq.coeffs))
                    terms = " + ".join(
                        f"{self.const(c)} * x[{i}]" for i, c in enumerate(ineq.coeffs)
                    )
                    tests.append(f"({terms} <= {self.const(ineq.bound + GUARD_TOL)})")
                hits.append(self.value(" & ".join(tests) or "True"))
            v = f"v{self.temps}"
            derivs = [f"d{self.temps}_{i}" for i in range(n)]
            self.temps += 1
            self.lines.append(
                f"{v}, ({''.join(d + ', ' for d in derivs)}) = "
                f"PW(x, ({''.join(h + ', ' for h in hits)}), ({', '.join(branches)},), {n})"
            )
            return v, derivs
        raise TypeError(f"unknown node {e!r}")


# The readers of caller data: a point, a vector or a batch of rows.

def _at(x) -> tuple:
    """A point (or a gradient) as error messages print it: a tuple of
    Python floats."""
    return tuple(np.array(x, dtype=float).tolist())


def _real_array(x) -> np.ndarray:
    """x as np.asarray(x, dtype=float) reads (or refuses) it, but refusing a
    complex entry, of a numpy array or scalar, whose real part numpy reads."""
    xv = np.asarray(x)
    if xv.dtype.kind in "biuf":
        return xv.astype(float, copy=False)
    if xv.dtype.kind != "c":  # strings, None, huge ints, objects: numpy's own reading
        return np.asarray(x, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
        np.asarray(x, dtype=float)  # a Python complex: numpy's own TypeError
    raise TypeError(f"an entry of dtype {xv.dtype} is not real")


def _floats(x, name: str = "point"):
    """The one conversion of caller data: x read as reals (_real_array; a float
    or a list or tuple of floats taken as it is), as one float, a list of floats
    if flat, else an array.  What it cannot read is an InputError naming x."""
    if type(x) is float or type(x) in (list, tuple) and all(type(c) is float for c in x):
        return list(x) if type(x) is tuple else x
    try:
        xv = _real_array(x)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"{name} is not readable as reals: {exc}") from None
    return xv.tolist() if xv.ndim < 2 else xv


def _as_point(x, dimension: Optional[int] = None, name: str = "point", finite: bool = True) -> list:
    """The point form: x (_floats) as a flat list of floats, a scalar read
    as a point of one coordinate.  Refused unless it has dimension entries
    (when given), all finite (unless finite is False)."""
    xs = _floats(x, name)
    if type(xs) is float:
        xs = [xs]
    elif type(xs) is not list:
        raise DimensionError(f"{name} has shape {xs.shape}, expected a flat sequence")
    if dimension is not None and len(xs) != dimension:
        raise DimensionError(f"{name} has dimension {len(xs)}, expected {dimension}")
    if finite and not all(map(math.isfinite, xs)):
        raise InputError(f"{name} {_at(xs)} has non-finite entries")
    return xs


def _as_rows(X, dimension: Optional[int] = None, name: str = "X", finite: bool = True) -> np.ndarray:
    """The rows form: X read at once by numpy, as _floats reads it, into an
    (N, n) array of finite points (unless finite is False); else each row is
    read by _as_point, so the first bad row raises there, or X is refused."""
    try:
        Xv = _real_array(X)
    except (ValueError, TypeError, OverflowError) as exc:
        Xv, unread = None, exc
    else:
        if Xv.ndim == 2 and dimension in (None, Xv.shape[1]):
            if not finite or np.isfinite(Xv).all():
                return Xv
            X = Xv[~np.isfinite(Xv).all(axis=1)][:1]  # the first non-finite row
    for x in X if hasattr(X, "__iter__") and (Xv is None or Xv.ndim) else ():
        _as_point(x, dimension, f"{name} row", finite)
    if Xv is None:
        raise InputError(f"{name} is not readable as reals: {unread}")
    raise DimensionError(f"{name} has shape {Xv.shape}, expected (N, {dimension or 'n'})")


# The operators that can fail, each written once for both modes: a point's
# coordinates are Python floats, a batch's numpy columns, and a constant
# operand stays a float in either.  A row raises iff its point raises.

def _pow(value, base):
    """value, a power of base, which overflows where it is infinite and
    base is not."""
    if _any((abs(value) == math.inf) & (abs(base) < math.inf)):
        raise EvalError("power overflows")
    return value


def _div(u, v):
    if _any(v == 0.0):
        raise EvalError("division by zero")
    return u / v


def _sqrt(v):
    if _any(v < 0.0):
        raise EvalError("sqrt of negative value")
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _sqrt_slope(r, d):
    flat = d == 0.0
    if _any(_not(flat) & (r == 0.0)):
        raise EvalError("sqrt not differentiable at zero")
    return _where(flat, 0.0, _ratio(d, 2.0 * r))


def _abs_slope(v, d):
    pos, neg = v > 0.0, v < 0.0
    if _any(_not(pos | neg) & (d != 0.0)):  # also where v is NaN
        raise EvalError("abs not differentiable at zero")
    return _where(pos, d, _where(neg, -d, 0.0))


def _piecewise(x, hits, branches, n):
    """_branch at a point, _branch_rows on numpy columns; a point of no
    coordinates is a point."""
    return (_branch_rows if x and isinstance(x[0], np.ndarray) else _branch)(x, hits, branches, n)


def _branch(x, hits, branches, n):
    """The value (and n derivatives) of the first branch whose guard holds
    at x; every other such branch must agree with it."""
    results = [branch(x) for hit, branch in zip(hits, branches) if hit]
    if not results:
        raise EvalError(f"point {_at(x)} outside every piecewise guard")
    value, derivs = results[0]
    for i in range(n or 1):
        for other, slopes in results[1:]:
            if abs(other - value) > _EPS_VAL:
                raise BoundaryMismatchError(f"branch values differ at {_at(x)}: {value} vs {other}")
            if n and abs(slopes[i] - derivs[i]) > _EPS_DIR * (1.0 + abs(derivs[i])):
                raise BoundaryMismatchError(
                    f"branch gradients differ at {_at(x)}: {derivs[i]} vs {slopes[i]}"
                )
    return value, derivs


def _branch_rows(x, hits, branches, n):
    """_branch on every row: each branch runs on the rows its guard holds
    at (all rows for an empty guard), and a row keeps the results of the
    first branch that takes it, which a later one must match there."""
    N = len(x[0])
    value, derivs = np.empty(N), [np.empty(N) for _ in range(n)]
    taken = np.zeros(N, dtype=bool)
    for hit, branch in zip(hits, branches):
        rows = np.arange(N) if hit is True else hit.nonzero()[0]
        if not rows.size:
            continue
        v, ds = branch([c[rows] for c in x])
        shared = taken[rows]
        if np.count_nonzero(shared):  # rows an earlier branch took keep its results
            prev = value[rows]
            if np.count_nonzero(shared & (np.abs(v - prev) > _EPS_VAL)):
                raise BoundaryMismatchError("branch values differ")
            v, kept = np.where(shared, prev, v), []
            for out, d in zip(derivs, ds):
                prev = out[rows]
                if np.count_nonzero(shared & (np.abs(d - prev) > _EPS_DIR * (1.0 + np.abs(prev)))):
                    raise BoundaryMismatchError("branch gradients differ")
                kept.append(np.where(shared, prev, d))
            ds = kept
        value[rows] = v
        for out, d in zip(derivs, ds):
            out[rows] = d
        taken[rows] = True
    if np.count_nonzero(taken) < N:
        raise EvalError("point outside every piecewise guard")
    return value, tuple(derivs)


_HELPERS = {"POW": _pow, "DIV": _div, "SQRT": _sqrt, "SQRTD": _sqrt_slope, "ABSD": _abs_slope,
            "PW": _piecewise}


_MEMO_SIZE = 512


class _AstKey(str):
    """An AST as a cache key: its repr, with the AST as .ast.  == on ASTs
    would equate Const(0.0) with Const(-0.0), whose programs give zeros of
    different signs."""


def _ast_key(f: Expr) -> _AstKey:
    """f's cache key, built once per AST object and kept on it, as Config
    keeps its hash: looking it up neither hashes nor compares the tree."""
    key = getattr(f, "_key", None)
    if key is None:
        key = _AstKey(repr(f))
        key.ast = f
        try:
            object.__setattr__(f, "_key", key)
        except AttributeError:  # not a node (a str, a float): compiling it raises TypeError
            pass
    return key


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _compiled(key: _AstKey, n: int):
    scope: dict = {}
    compiler = _Compiler(n)
    exec(compile(compiler.source(key.ast), "<qcsol expression>", "exec"), scope)
    return scope["_build"](*_HELPERS.values(), *compiler.consts), compiler.reads


def _program(f: Expr, n: int):
    """f compiled for n derivatives: (the function, which runs on a point's
    floats and on a batch's numpy columns alike, how many coordinates it
    reads).  ASTs with equal reprs share their program."""
    return _compiled(_ast_key(f), n)


def _point(program, x: list):
    """The program run at the point x (_as_point), which must hold every
    coordinate it reads: its value and derivatives, which must be finite."""
    run, reads = program
    if len(x) < reads:
        raise DimensionError(f"point has dimension {len(x)}, expected at least {reads}")
    value, derivs = run(x)
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value} at {_at(x)}")
    if not all(map(math.isfinite, derivs)):
        raise EvalError(f"non-finite gradient {_at(derivs)} at {_at(x)}")
    return value, derivs


def _batch(f: Expr, Xv: np.ndarray, n: int):
    """f's program for n derivatives on the rows of Xv at once, as
    (values, derivatives), each broadcast to full columns.  Where some row
    fails, raises what _point raises at the first such row."""
    program = run, reads = _program(f, n)
    if Xv.shape[1] < reads:
        raise DimensionError(f"point has dimension {Xv.shape[1]}, expected at least {reads}")
    try:
        with np.errstate(all="ignore"):
            value, derivs = run(list(np.ascontiguousarray(Xv.T)))
        values = np.empty(len(Xv))
        values[:] = value
        G = np.empty((len(Xv), n))
        for i, d in enumerate(derivs):
            G[:, i] = d
        if np.isfinite(values).all() and np.isfinite(G).all():
            return values, G
    except EvalError:
        pass
    for x in Xv:
        _point(program, x.tolist())
    raise EvalError("batch evaluation failed at a point that evaluates")


def evaluate(f: Expr, x: Sequence[float]) -> float:
    """Value of f at x.

    Raises EvalError on domain violations, on an overflowing power and on
    a non-finite value (an overflowing product, or a non-finite x).
    """
    return _point(_program(f, 0), _as_point(x, finite=False))[0]


def evaluate_many(f: Expr, X) -> np.ndarray:
    """Values of f at the rows of an (N, n) array X.

    Entry i equals evaluate(f, X[i]) bit for bit.  When evaluate raises at
    some row, this raises what it raises at the first such row.
    """
    return _batch(f, _as_rows(X, finite=False), 0)[0]


def grad(f: Expr, x: Sequence[float], dimension: Optional[int] = None) -> np.ndarray:
    """Exact gradient, by forward-mode differentiation.

    Raises EvalError where evaluation fails, and when the value or a
    gradient component is not finite.
    """
    xs = _as_point(x, dimension, finite=False)
    return np.array(_point(_program(f, len(xs)), xs)[1], dtype=float)


def grad_many(f: Expr, X, dimension: Optional[int] = None) -> np.ndarray:
    """Gradients of f at the rows of an (N, n) array X, as an (N, n) array.

    Row i equals grad(f, X[i], dimension) bit for bit.
    When grad raises at some row, this raises what it raises at the first
    such row.
    """
    Xv = _as_rows(X, dimension, finite=False)
    return _batch(f, Xv, Xv.shape[1])[1]


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# a token after whitespace (\s is str.isspace): an operator, a number (with an
# exponent only when digits follow), a name, the end, or any other character
_TOKEN = re.compile(r"""\s*(?:(?P<op><=|>=|[-+*/^()\[\]:;&,])
    |(?P<num>[0-9.]+(?:[eE][+-]?[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)
    |(?P<eof>\Z)|(?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str):
    """(kind, text, offset) triples, the last ("eof", "", len(text))."""
    tokens = []
    for m in _TOKEN.finditer(text):  # each match starts where the last ended
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
        if kind == "eof":
            return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

_MAX_DEPTH = 100  # the deepest nesting parse accepts; see docs/grammar.md


class _Parser:
    """Recursive descent.  Each rule returns its expression with the
    depth of its tree (1 for a number or a variable, one more than the
    deepest operand or branch otherwise) and takes the number of groups,
    functions, piecewise brackets and minus signs the text has already
    opened around it.  Both are refused past _MAX_DEPTH as they grow, so
    neither the descent nor a later walk of the tree runs into Python's
    recursion limit."""

    def __init__(self, text: str, dimension: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.dim = dimension

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, off = self.peek()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end of input'!r}", off)
        return self.advance()

    def bounded(self, depth: int, off: int) -> int:
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {_MAX_DEPTH} levels", off)
        return depth

    def integer(self, digits: str, off: int) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than Python converts
            raise ParseError(f"integer of {len(digits)} digits is too long", off) from None

    def parse(self) -> Expr:
        e, _ = self.expression(0)
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def expression(self, around: int, prec: int = 1):
        """Factors joined by the binary operators of precedence prec or
        more (precedence climbing)."""
        e, depth = self.factor(around)
        while True:
            kind, text, off = self.peek()
            op = _BINARY.get(text)
            if op is None or _PREC[op] < prec:
                return e, depth
            self.advance()
            right, rdepth = self.expression(around, _PREC[op] + 1)
            e = op(e, right)
            depth = self.bounded(max(depth, rdepth) + 1, off)

    def factor(self, around: int):
        while self.peek()[1] == "+":
            self.advance()
        kind, text, off = self.peek()
        if text == "-":
            self.advance()
            e, depth = self.factor(self.bounded(around + 1, off))
            return Neg(e), self.bounded(depth + 1, off)
        return self.power(around)

    def power(self, around: int):
        base, depth = self.atom(around)
        kind, text, off = self.peek()
        if text == "^":
            self.advance()
            kind, text, off = self.peek()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer literal", off)
            self.advance()
            return Pow(base, self.integer(text, off)), self.bounded(depth + 1, off)
        return base, depth

    def atom(self, around: int):
        kind, text, off = self.advance()
        if kind == "num":
            try:
                value = float(text)
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", off)
            if math.isinf(value):  # pretty would print inf, which parse refuses
                raise ParseError(f"number literal {text!r} overflows a float", off)
            return Const(value), 1
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect("(")
                inner, depth = self.expression(self.bounded(around + 1, off))
                self.expect(")")
                return _FUNCTIONS[text](inner), self.bounded(depth + 1, off)
            if text == "pw":
                return self.piecewise(around, off)
            if text.startswith("x") and text[1:].isdigit():
                idx = self.integer(text[1:], off)
                if idx < 1 or idx > self.dim:
                    raise ParseError(
                        f"variable {text} out of range for dimension {self.dim}", off
                    )
                return Var(idx), 1
            raise ParseError(f"unknown identifier {text!r}", off)
        if text == "(":
            inner = self.expression(self.bounded(around + 1, off))
            self.expect(")")
            return inner
        raise ParseError(
            f"expected an operand, found {text or 'end of input'!r}", off
        )

    def piecewise(self, around: int, off: int):
        inside = self.bounded(around + 1, off)
        self.expect("[")
        branches, depth = [], 0
        while True:
            guard = self.guard(inside)
            self.expect(":")
            branch, bdepth = self.expression(inside)
            branches.append((tuple(guard), branch))
            depth = max(depth, bdepth)
            kind, text, _ = self.peek()
            if text == ";":
                self.advance()
                continue
            break
        self.expect("]")
        return Piecewise(tuple(branches)), self.bounded(depth + 1, off)

    def guard(self, around: int):
        ineqs = [self.comparison(around)]
        while self.peek()[1] == "&":
            self.advance()
            ineqs.append(self.comparison(around))
        return ineqs

    def comparison(self, around: int) -> LinearIneq:
        start_off = self.peek()[2]
        lhs, ldepth = self.expression(around)
        kind, text, off = self.peek()
        if text not in ("<=", ">="):
            raise ParseError("expected '<=' or '>=' in guard", off)
        self.advance()
        rhs, rdepth = self.expression(around)
        self.bounded(max(ldepth, rdepth) + 1, off)  # lhs - rhs is compiled below
        coeffs, const = _extract_linear(Sub(lhs, rhs), self.dim, start_off)
        if text == "<=":
            return LinearIneq(tuple(coeffs), -const)
        return LinearIneq(tuple(-c for c in coeffs), const)


def _extract_linear(e: Expr, dim: int, off: int):
    """Coefficients of a guard expression, which must be affine."""
    run = _program(e, 0)[0]
    try:
        unit = [0.0] * dim
        c0 = run(unit)[0]
        coeffs = []
        for i in range(dim):  # one unit vector, its entry i set in place
            unit[i] = 1.0
            coeffs.append(run(unit)[0] - c0)
            unit[i] = 0.0
        # Affinity probe at a generic point.
        probe = [0.734 + 0.211 * i for i in range(dim)]
        expected = c0 + _dot(coeffs, probe)
        actual = run(probe)[0]
    except EvalError:
        raise ParseError("guard expression must be affine", off)
    if abs(actual - expected) > 1e-9 * (1.0 + abs(expected)):
        raise ParseError("guard expression must be affine", off)
    return coeffs, c0


def parse(text: str, dimension: int) -> Expr:
    """Parse an expression in variables x1..x{dimension}."""
    if dimension < 1:
        raise DimensionError("dimension must be >= 1")
    return _Parser(text, dimension).parse()


# ---------------------------------------------------------------------------
# Pretty printer (canonical; parse . pretty == identity on ASTs)
# ---------------------------------------------------------------------------

def _fmt(e: Expr, min_prec: int) -> str:
    """e's text, in parentheses where e binds looser than min_prec; a
    negative number binds as its minus sign does."""
    prec = _PREC[Neg] if isinstance(e, Const) and e.value < 0 else _PREC.get(type(e), 5)
    return f"({_fmt_raw(e)})" if prec < min_prec else _fmt_raw(e)


def _fmt_raw(e: Expr) -> str:
    kind = type(e)
    if kind in _SYMBOLS:  # left-associative: the right operand binds one level tighter
        p = _PREC[kind]
        return f"{_fmt(e.left, p)} {_SYMBOLS[kind]} {_fmt(e.right, p + 1)}"
    if kind in _NAMES:
        return f"{_NAMES[kind]}({_fmt(e.operand, 0)})"
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Neg):  # --x, as parsed, not -(-x), which nests deeper
        inner = e.operand
        return "-" + (_fmt_raw(inner) if isinstance(inner, Neg) else _fmt(inner, _PREC[Neg] + 1))
    if isinstance(e, Pow):
        return f"{_fmt(e.base, _PREC[Pow] + 1)}^{e.exponent}"
    if isinstance(e, Piecewise):
        parts = []
        for guard, br in e.branches:
            gtxt = " & ".join(_fmt_ineq(ineq) for ineq in guard)
            parts.append(f"{gtxt}: {_fmt(br, 0)}")
        return "pw[" + "; ".join(parts) + "]"
    raise TypeError(f"unknown node {e!r}")


def _fmt_ineq(ineq: LinearIneq) -> str:
    terms = " + ".join(
        f"{_fmt_coeff(c)}*x{i + 1}" for i, c in enumerate(ineq.coeffs)
    )
    return f"{terms} <= {_fmt_coeff(ineq.bound)}"


def _fmt_coeff(c: float) -> str:
    return f"({c!r})" if c < 0 else repr(c)


def pretty(e: Expr) -> str:
    """Canonical text form; re-parsing it reproduces the AST."""
    return _fmt(e, 0)
