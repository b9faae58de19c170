"""Scalar expressions of n variables: parsing, evaluation and gradients.

The grammar (documented in docs/grammar.md) covers infix arithmetic with
integer powers, ``sqrt``, ``abs`` and piecewise expressions whose guards
are conjunctions of linear inequalities.  Gradients are exact, computed by
forward-mode dual numbers, one pass per coordinate; ``grad_fd`` provides
the independent central-difference cross-check.  ``evaluate_many`` gives
the values of ``evaluate`` on a whole batch of points in one numpy pass
per AST node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BoundaryMismatchError, DimensionError, EvalError, ParseError

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


# ---------------------------------------------------------------------------
# Dual numbers (forward-mode AD)
# ---------------------------------------------------------------------------

class Dual:
    __slots__ = ("val", "dot")

    def __init__(self, val: float, dot: float = 0.0):
        self.val = val
        self.dot = dot

    def __add__(self, o):
        return Dual(self.val + o.val, self.dot + o.dot)

    def __sub__(self, o):
        return Dual(self.val - o.val, self.dot - o.dot)

    def __mul__(self, o):
        return Dual(self.val * o.val, self.val * o.dot + self.dot * o.val)

    def __truediv__(self, o):
        if o.val == 0.0:
            raise EvalError("division by zero")
        v = self.val / o.val
        return Dual(v, (self.dot - v * o.dot) / o.val)

    def ipow(self, k: int) -> "Dual":
        try:
            v = self.val ** k
            if k == 0:
                return Dual(1.0, 0.0)
            return Dual(v, k * self.val ** (k - 1) * self.dot)
        except OverflowError:
            raise EvalError("power overflows") from None

    def sqrt(self) -> "Dual":
        if self.val < 0.0:
            raise EvalError("sqrt of negative value")
        r = math.sqrt(self.val)
        if self.dot == 0.0:
            return Dual(r, 0.0)
        if r == 0.0:
            raise EvalError("sqrt not differentiable at zero")
        return Dual(r, self.dot / (2.0 * r))

    def abs(self) -> "Dual":
        if self.val > 0.0:
            return Dual(self.val, self.dot)
        if self.val < 0.0:
            return Dual(-self.val, -self.dot)
        if self.dot == 0.0:
            return Dual(0.0, 0.0)
        raise EvalError("abs not differentiable at zero")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _guard_holds(guard, point) -> bool:
    return all(
        float(np.dot(ineq.coeffs, point)) <= ineq.bound + GUARD_TOL for ineq in guard
    )


def _select_branches(pw: Piecewise, point):
    hit = [br for guard, br in pw.branches if _guard_holds(guard, point)]
    if not hit:
        raise EvalError(f"point {tuple(point)} outside every piecewise guard")
    return hit


def _eval_float(e: Expr, x, eps: float) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index - 1])
    if isinstance(e, Add):
        return _eval_float(e.left, x, eps) + _eval_float(e.right, x, eps)
    if isinstance(e, Sub):
        return _eval_float(e.left, x, eps) - _eval_float(e.right, x, eps)
    if isinstance(e, Mul):
        return _eval_float(e.left, x, eps) * _eval_float(e.right, x, eps)
    if isinstance(e, Div):
        den = _eval_float(e.right, x, eps)
        if den == 0.0:
            raise EvalError("division by zero")
        return _eval_float(e.left, x, eps) / den
    if isinstance(e, Pow):
        base = _eval_float(e.base, x, eps)
        try:
            return base ** e.exponent
        except OverflowError:
            raise EvalError("power overflows") from None
    if isinstance(e, Neg):
        return -_eval_float(e.operand, x, eps)
    if isinstance(e, Sqrt):
        v = _eval_float(e.operand, x, eps)
        if v < 0.0:
            raise EvalError("sqrt of negative value")
        return math.sqrt(v)
    if isinstance(e, Abs):
        return abs(_eval_float(e.operand, x, eps))
    if isinstance(e, Piecewise):
        hit = _select_branches(e, x)
        values = [_eval_float(br, x, eps) for br in hit]
        first = values[0]
        for v in values[1:]:
            if abs(v - first) > eps:
                raise BoundaryMismatchError(
                    f"branch values differ at {tuple(x)}: {values}"
                )
        return first
    raise TypeError(f"unknown node {e!r}")


def _eval_dual(e: Expr, x, seed: int, eps_val: float, eps_dir: float) -> Dual:
    """Evaluate with the seed-th coordinate carrying a unit perturbation."""
    if isinstance(e, Const):
        return Dual(e.value, 0.0)
    if isinstance(e, Var):
        return Dual(float(x[e.index - 1]), 1.0 if e.index - 1 == seed else 0.0)
    if isinstance(e, Add):
        return _eval_dual(e.left, x, seed, eps_val, eps_dir) + _eval_dual(
            e.right, x, seed, eps_val, eps_dir
        )
    if isinstance(e, Sub):
        return _eval_dual(e.left, x, seed, eps_val, eps_dir) - _eval_dual(
            e.right, x, seed, eps_val, eps_dir
        )
    if isinstance(e, Mul):
        return _eval_dual(e.left, x, seed, eps_val, eps_dir) * _eval_dual(
            e.right, x, seed, eps_val, eps_dir
        )
    if isinstance(e, Div):
        return _eval_dual(e.left, x, seed, eps_val, eps_dir) / _eval_dual(
            e.right, x, seed, eps_val, eps_dir
        )
    if isinstance(e, Pow):
        return _eval_dual(e.base, x, seed, eps_val, eps_dir).ipow(e.exponent)
    if isinstance(e, Neg):
        inner = _eval_dual(e.operand, x, seed, eps_val, eps_dir)
        return Dual(-inner.val, -inner.dot)
    if isinstance(e, Sqrt):
        return _eval_dual(e.operand, x, seed, eps_val, eps_dir).sqrt()
    if isinstance(e, Abs):
        return _eval_dual(e.operand, x, seed, eps_val, eps_dir).abs()
    if isinstance(e, Piecewise):
        hit = _select_branches(e, x)
        results = [_eval_dual(br, x, seed, eps_val, eps_dir) for br in hit]
        first = results[0]
        for r in results[1:]:
            if abs(r.val - first.val) > eps_val:
                raise BoundaryMismatchError(
                    f"branch values differ at {tuple(x)}"
                )
            scale = 1.0 + abs(first.dot)
            if abs(r.dot - first.dot) > eps_dir * scale:
                raise BoundaryMismatchError(
                    f"branch gradients differ at {tuple(x)}: "
                    f"{first.dot} vs {r.dot}"
                )
        return first
    raise TypeError(f"unknown node {e!r}")


def evaluate(f: Expr, x: Sequence[float], eps: float = 1e-9) -> float:
    """Value of f at x.

    Raises EvalError on domain violations, on an overflowing power and on
    a non-finite value (an overflowing product, or a non-finite x).
    """
    xv = np.asarray(x, dtype=float)
    value = _eval_float(f, xv, eps)
    if not math.isfinite(value):
        raise EvalError(f"non-finite value {value} at {tuple(xv)}")
    return value


# Rounding slack of a vectorized n-term dot product (numpy's row sum)
# against np.dot (a BLAS dot, which may fuse multiply-adds), relative to
# the sum of its terms' magnitudes, per term.  Two summation orders of an
# n-term sum lie within 2 * n * 2**-53 of each other relative to that sum;
# _DOT_SLACK is over 40 times as much.  _DOT_FLOOR covers underflowing
# products and their square roots.  Other vectorized residuals use the
# same two constants for their own rounding.
_DOT_SLACK = 1e-14
_DOT_FLOOR = 1e-150


def _row_dots(A: np.ndarray, v) -> Tuple[np.ndarray, np.ndarray]:
    """The dot product of each row of A with v, and how far each may lie
    from np.dot's."""
    terms = A * np.asarray(v, dtype=float)
    return terms.sum(axis=1), _DOT_SLACK * A.shape[1] * np.abs(terms).sum(axis=1) + _DOT_FLOOR


def _guard_rows(guard, X: np.ndarray) -> np.ndarray:
    """_guard_holds for every row of X.  Rows whose vectorized dot product
    lies too close to the bound for the summation order not to matter are
    decided by _guard_holds' own formula."""
    holds = np.ones(len(X), dtype=bool)
    for ineq in guard:
        dots, slack = _row_dots(X, ineq.coeffs)
        limit = ineq.bound + GUARD_TOL
        ok = dots <= limit
        for r in np.flatnonzero(~(np.abs(dots - limit) > slack)):
            ok[r] = float(np.dot(ineq.coeffs, X[r])) <= limit
        holds &= ok
    return holds


def _powers(base: np.ndarray, k: int) -> np.ndarray:
    """Python's float ** int (libm pow) of every entry, once per distinct
    bit pattern; np.power differs from it in the last bit on some inputs."""
    bits, inverse = np.unique(
        np.ascontiguousarray(base).view(np.int64), return_inverse=True
    )
    try:
        return np.array([b ** k for b in bits.view(np.float64).tolist()])[inverse]
    except OverflowError:
        raise EvalError("power overflows") from None


def _eval_rows(e: Expr, X: np.ndarray, eps: float) -> np.ndarray:
    """_eval_float on every row of X, one numpy pass per node.

    Raises EvalError iff _eval_float raises at some row; every other
    value equals _eval_float's bit for bit.
    """
    if isinstance(e, Const):
        return np.full(len(X), float(e.value))
    if isinstance(e, Var):
        return X[:, e.index - 1].copy()
    if isinstance(e, Add):
        return _eval_rows(e.left, X, eps) + _eval_rows(e.right, X, eps)
    if isinstance(e, Sub):
        return _eval_rows(e.left, X, eps) - _eval_rows(e.right, X, eps)
    if isinstance(e, Mul):
        return _eval_rows(e.left, X, eps) * _eval_rows(e.right, X, eps)
    if isinstance(e, Div):
        den = _eval_rows(e.right, X, eps)
        if np.any(den == 0.0):
            raise EvalError("division by zero")
        return _eval_rows(e.left, X, eps) / den
    if isinstance(e, Pow):
        return _powers(_eval_rows(e.base, X, eps), e.exponent)
    if isinstance(e, Neg):
        return -_eval_rows(e.operand, X, eps)
    if isinstance(e, Sqrt):
        v = _eval_rows(e.operand, X, eps)
        if np.any(v < 0.0):
            raise EvalError("sqrt of negative value")
        return np.sqrt(v)
    if isinstance(e, Abs):
        return np.abs(_eval_rows(e.operand, X, eps))
    if isinstance(e, Piecewise):
        hits = [_guard_rows(guard, X) for guard, _ in e.branches]
        if not np.all(np.any(hits, axis=0)):
            raise EvalError("point outside every piecewise guard")
        # Each branch runs on the rows it covers; a row takes the value of
        # its first covering branch, and every later one must agree.
        out = np.empty(len(X))
        seen = np.zeros(len(X), dtype=bool)
        for hit, (_, br) in zip(hits, e.branches):
            rows = np.flatnonzero(hit)
            if rows.size == 0:
                continue
            values = _eval_rows(br, X[rows], eps)
            first = ~seen[rows]
            if np.any(np.abs(values[~first] - out[rows[~first]]) > eps):
                raise BoundaryMismatchError("branch values differ")
            out[rows[first]] = values[first]
            seen[rows] = True
        return out
    raise TypeError(f"unknown node {e!r}")


def evaluate_many(f: Expr, X, eps: float = 1e-9) -> np.ndarray:
    """Values of f at the rows of an (N, n) array X.

    Entry i equals evaluate(f, X[i], eps) bit for bit.  When evaluate
    raises at some row, this raises what it raises at the first such row.
    """
    Xv = np.ascontiguousarray(X, dtype=float)
    if Xv.ndim != 2:
        raise DimensionError("a batch of points must be an (N, n) array")
    try:
        with np.errstate(all="ignore"):
            values = _eval_rows(f, Xv, eps)
        if np.all(np.isfinite(values)):
            return values
    except EvalError:
        pass
    for x in Xv:
        evaluate(f, x, eps)
    raise EvalError("batch evaluation failed at a point that evaluates")


# grad's agreement tolerances for piecewise branches meeting at a point:
# values within _EPS_VAL, derivatives within _EPS_DIR * (1 + |first|).
_EPS_VAL = 1e-9
_EPS_DIR = 1e-8


def grad(f: Expr, x: Sequence[float], dimension: Optional[int] = None,
         eps_val: float = _EPS_VAL, eps_dir: float = _EPS_DIR) -> np.ndarray:
    """Exact gradient via dual numbers, one forward pass per coordinate.

    Raises EvalError where evaluation fails, and when the value or a
    gradient component is not finite.
    """
    xv = np.asarray(x, dtype=float)
    n = dimension if dimension is not None else xv.size
    if xv.size != n:
        raise DimensionError(f"point has dimension {xv.size}, expected {n}")
    duals = [_eval_dual(f, xv, i, eps_val, eps_dir) for i in range(n)]
    if duals and not math.isfinite(duals[0].val):
        raise EvalError(f"non-finite value {duals[0].val} at {tuple(xv)}")
    g = np.array([d.dot for d in duals])
    if not np.all(np.isfinite(g)):
        raise EvalError(f"non-finite gradient {tuple(g)} at {tuple(xv)}")
    return g


def _dual_rows(e: Expr, X: np.ndarray):
    """_eval_dual on every row of X for every seed at once: the values (N,)
    and the derivatives (N, n), column i being seed i's.

    Raises EvalError iff _eval_dual raises at some row and seed; every
    other entry equals _eval_dual's bit for bit.
    """
    N, n = X.shape
    if isinstance(e, Const):
        return np.full(N, float(e.value)), np.zeros((N, n))
    if isinstance(e, Var):
        dot = np.zeros((N, n))
        dot[:, e.index - 1] = 1.0
        return X[:, e.index - 1].copy(), dot
    if isinstance(e, (Add, Sub, Mul, Div)):
        lv, ld = _dual_rows(e.left, X)
        rv, rd = _dual_rows(e.right, X)
        if isinstance(e, Add):
            return lv + rv, ld + rd
        if isinstance(e, Sub):
            return lv - rv, ld - rd
        if isinstance(e, Mul):
            return lv * rv, lv[:, None] * rd + ld * rv[:, None]
        if np.any(rv == 0.0):
            raise EvalError("division by zero")
        v = lv / rv
        return v, (ld - v[:, None] * rd) / rv[:, None]
    if isinstance(e, Pow):
        base, dot = _dual_rows(e.base, X)
        k = e.exponent
        if k == 0:
            return np.ones(N), np.zeros((N, n))
        # in Dual.ipow's order of operations
        return _powers(base, k), (k * _powers(base, k - 1))[:, None] * dot
    if isinstance(e, Neg):
        v, dot = _dual_rows(e.operand, X)
        return -v, -dot
    if isinstance(e, Sqrt):
        v, dot = _dual_rows(e.operand, X)
        if np.any(v < 0.0):
            raise EvalError("sqrt of negative value")
        r = np.sqrt(v)
        flat = dot == 0.0
        if np.any(~flat & (r == 0.0)[:, None]):
            raise EvalError("sqrt not differentiable at zero")
        return r, np.where(flat, 0.0, dot / (2.0 * r)[:, None])
    if isinstance(e, Abs):
        v, dot = _dual_rows(e.operand, X)
        pos, neg = v > 0.0, v < 0.0
        kink = ~(pos | neg)  # zero, or NaN as in Dual.abs
        if np.any(kink[:, None] & (dot != 0.0)):
            raise EvalError("abs not differentiable at zero")
        out = np.where(pos[:, None], dot, np.where(neg[:, None], -dot, 0.0))
        return np.where(pos, v, np.where(neg, -v, 0.0)), out
    if isinstance(e, Piecewise):
        hits = [_guard_rows(guard, X) for guard, _ in e.branches]
        if not np.all(np.any(hits, axis=0)):
            raise EvalError("point outside every piecewise guard")
        # As in _eval_rows; every later branch must also agree in each
        # derivative within _EPS_DIR * (1 + |first|).
        out_v, out_d = np.empty(N), np.empty((N, n))
        seen = np.zeros(N, dtype=bool)
        for hit, (_, br) in zip(hits, e.branches):
            rows = np.flatnonzero(hit)
            if rows.size == 0:
                continue
            v, dot = _dual_rows(br, X[rows])
            first = ~seen[rows]
            later = rows[~first]
            if np.any(np.abs(v[~first] - out_v[later]) > _EPS_VAL):
                raise BoundaryMismatchError("branch values differ")
            scale = 1.0 + np.abs(out_d[later])
            if np.any(np.abs(dot[~first] - out_d[later]) > _EPS_DIR * scale):
                raise BoundaryMismatchError("branch gradients differ")
            out_v[rows[first]] = v[first]
            out_d[rows[first]] = dot[first]
            seen[rows] = True
        return out_v, out_d
    raise TypeError(f"unknown node {e!r}")


def grad_many(f: Expr, X, dimension: Optional[int] = None) -> np.ndarray:
    """Gradients of f at the rows of an (N, n) array X, as an (N, n) array.

    Row i equals grad(f, X[i], dimension) bit for bit.
    When grad raises at some row, this raises what it raises at the first
    such row.
    """
    Xv = np.ascontiguousarray(X, dtype=float)
    if Xv.ndim != 2:
        raise DimensionError("a batch of points must be an (N, n) array")
    n = dimension if dimension is not None else Xv.shape[1]
    if Xv.shape[1] != n:
        raise DimensionError(f"point has dimension {Xv.shape[1]}, expected {n}")
    try:
        with np.errstate(all="ignore"):
            values, dots = _dual_rows(f, Xv)
        if np.all(np.isfinite(values)) and np.all(np.isfinite(dots)):
            return dots
    except EvalError:
        pass
    return np.array([grad(f, x, n) for x in Xv]).reshape(len(Xv), n)


def grad_fd(f: Expr, x: Sequence[float], h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient, the independent oracle for grad()."""
    xv = np.asarray(x, dtype=float)
    out = np.empty(xv.size)
    for i in range(xv.size):
        xp = xv.copy()
        xm = xv.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (evaluate(f, xp) - evaluate(f, xm)) / (2.0 * h)
    return out


def free_variables(e: Expr) -> set:
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, (Const,)):
        return set()
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_variables(e.left) | free_variables(e.right)
    if isinstance(e, Pow):
        return free_variables(e.base)
    if isinstance(e, (Neg, Sqrt, Abs)):
        return free_variables(e.operand)
    if isinstance(e, Piecewise):
        out = set()
        for guard, br in e.branches:
            for ineq in guard:
                out |= {i + 1 for i, c in enumerate(ineq.coeffs) if c != 0.0}
            out |= free_variables(br)
        return out
    raise TypeError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = ("<=", ">=", "+", "-", "*", "/", "^", "(", ")", "[", "]", ":", ";", "&", ",")


def _tokenize(text: str):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i:i + 2]
        if two in ("<=", ">="):
            tokens.append(("op", two, i))
            i += 2
            continue
        if ch in "+-*/^()[]:;&,":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
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

    def parse(self) -> Expr:
        e = self.expression()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {text!r}", off)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while True:
            kind, text, off = self.peek()
            if text == "+":
                self.advance()
                e = Add(e, self.term())
            elif text == "-":
                self.advance()
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, text, off = self.peek()
            if text == "*":
                self.advance()
                e = Mul(e, self.factor())
            elif text == "/":
                self.advance()
                e = Div(e, self.factor())
            else:
                return e

    def factor(self) -> Expr:
        kind, text, off = self.peek()
        if text == "-":
            self.advance()
            return Neg(self.factor())
        if text == "+":
            self.advance()
            return self.factor()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, text, off = self.peek()
        if text == "^":
            self.advance()
            kind, text, off = self.peek()
            if kind != "num" or not text.isdigit():
                raise ParseError("exponent must be a nonnegative integer literal", off)
            self.advance()
            return Pow(base, int(text))
        return base

    def atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            try:
                return Const(float(text))
            except ValueError:
                raise ParseError(f"bad number literal {text!r}", off)
        if kind == "name":
            if text == "sqrt" or text == "abs":
                self.expect("(")
                inner = self.expression()
                self.expect(")")
                return Sqrt(inner) if text == "sqrt" else Abs(inner)
            if text == "pw":
                return self.piecewise(off)
            if text.startswith("x") and text[1:].isdigit():
                idx = int(text[1:])
                if idx < 1 or idx > self.dim:
                    raise ParseError(
                        f"variable {text} out of range for dimension {self.dim}", off
                    )
                return Var(idx)
            raise ParseError(f"unknown identifier {text!r}", off)
        if text == "(":
            inner = self.expression()
            self.expect(")")
            return inner
        raise ParseError(
            f"expected an operand, found {text or 'end of input'!r}", off
        )

    def piecewise(self, off: int) -> Expr:
        self.expect("[")
        branches = []
        while True:
            guard = self.guard()
            self.expect(":")
            branch = self.expression()
            branches.append((tuple(guard), branch))
            kind, text, _ = self.peek()
            if text == ";":
                self.advance()
                continue
            break
        self.expect("]")
        return Piecewise(tuple(branches))

    def guard(self):
        ineqs = [self.comparison()]
        while self.peek()[1] == "&":
            self.advance()
            ineqs.append(self.comparison())
        return ineqs

    def comparison(self) -> LinearIneq:
        start_off = self.peek()[2]
        lhs = self.expression()
        kind, text, off = self.peek()
        if text not in ("<=", ">="):
            raise ParseError("expected '<=' or '>=' in guard", off)
        self.advance()
        rhs = self.expression()
        diff = Sub(lhs, rhs)
        coeffs, const = _extract_linear(diff, self.dim, start_off)
        if text == "<=":
            return LinearIneq(tuple(coeffs), -const)
        return LinearIneq(tuple(-c for c in coeffs), const)


def _extract_linear(e: Expr, dim: int, off: int):
    """Coefficients of a guard expression, which must be affine."""
    zero = np.zeros(dim)
    try:
        c0 = _eval_float(e, zero, 1e-9)
        coeffs = []
        for i in range(dim):
            unit = zero.copy()
            unit[i] = 1.0
            coeffs.append(_eval_float(e, unit, 1e-9) - c0)
        # Affinity probe at a generic point.
        probe = np.array([0.734 + 0.211 * i for i in range(dim)])
        expected = c0 + float(np.dot(coeffs, probe))
        actual = _eval_float(e, probe, 1e-9)
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

def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return 1
    if isinstance(e, (Mul, Div)):
        return 2
    if isinstance(e, Neg):
        return 3
    if isinstance(e, Pow):
        return 4
    if isinstance(e, Const) and e.value < 0:
        return 3
    return 5


def _fmt(e: Expr, min_prec: int) -> str:
    s = _fmt_raw(e)
    if _prec(e) < min_prec:
        return f"({s})"
    return s


def _fmt_raw(e: Expr) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"{_fmt(e.left, 1)} + {_fmt(e.right, 2)}"
    if isinstance(e, Sub):
        return f"{_fmt(e.left, 1)} - {_fmt(e.right, 2)}"
    if isinstance(e, Mul):
        return f"{_fmt(e.left, 2)} * {_fmt(e.right, 3)}"
    if isinstance(e, Div):
        return f"{_fmt(e.left, 2)} / {_fmt(e.right, 3)}"
    if isinstance(e, Neg):
        return f"-{_fmt(e.operand, 4)}"
    if isinstance(e, Pow):
        return f"{_fmt(e.base, 5)}^{e.exponent}"
    if isinstance(e, Sqrt):
        return f"sqrt({_fmt(e.operand, 0)})"
    if isinstance(e, Abs):
        return f"abs({_fmt(e.operand, 0)})"
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
