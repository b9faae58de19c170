"""Outside-in tracer for the qcsol layers.

The tracer wraps the listed public functions from outside the library:
each wrapper is bound in place of the original in the defining module and
at every module-level alias inside ``qcsol`` (``from .expr import
evaluate`` in ``charac``, the renamed ``kkt.plain_membership`` and so on),
so calls made between the library's own modules are seen too.  Library
functions look their callees up in module globals at call time, which is
what makes the rebinding effective.

Spans (name, parent, start, end) are kept in compact in-memory arrays and
reduced to per-function call counts and self times at the end; self time
is a span's duration minus the durations of its direct child spans.
Recording is on only while ``active`` is true, so the benchmark's own
checks do not count.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

import numpy as np

# module -> traced public functions
TRACED = {
    "cli": ("run",),
    "problemfile": ("loads",),
    "registry": ("get_example",),
    "expr": ("parse", "evaluate", "grad"),
    "sets": ("grid_nodes", "sample_grid", "contains", "atom_violation"),
    "charac": (
        "classify_dichotomy",
        "check_anchor_hypothesis",
        "membership",
        "enumerate_solution_set",
    ),
    "oracle": ("brute_force_solutions", "agreement"),
    "kkt": (
        "feasible_grid",
        "is_feasible",
        "solve_multipliers",
        "check_gmfcq",
        "membership_constrained",
        "enumerate_constrained",
    ),
    "alternatives": (
        "solve_lp",
        "strict_feasibility",
        "gordan_alternative",
        "dual_certificate",
        "collinearity_factor",
    ),
    "subdiff": (
        "gp_solution_check",
        "gp_member",
        "ml_solution_check_1d",
        "ml_member_1d",
    ),
    "convexity": (
        "check_quasiconvex",
        "check_first_order_qcx",
        "check_levelset_convex",
        "check_pseudoconvex_at",
    ),
}

FUNCTIONS = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# function -> kind of its second argument; a call is distinct by the pair
# (first argument, second argument): an expression or set with a point, or
# a problem with a resolution
DISTINCT = {
    "expr.evaluate": "point",
    "expr.grad": "point",
    "sets.contains": "point",
    "oracle.brute_force_solutions": "value",
}

# function -> (metric suffix, predicate on the result marking a useful outcome)
OUTCOMES = {
    "charac.membership": ("accept_frac", lambda r: bool(r.member)),
    "subdiff.ml_member_1d": ("accept_frac", bool),
    "alternatives.solve_lp": ("optimal_frac", lambda r: r.status == "optimal"),
}


def per_layer_names():
    """Every per-layer metric name with its unit and direction, in output order."""
    out = []
    for fn in FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
    for fn in DISTINCT:
        out.append((f"{fn}.distinct_frac", "ratio", "higher"))
    for fn, (suffix, _) in OUTCOMES.items():
        out.append((f"{fn}.{suffix}", "ratio", "higher"))
    out.append(("sets.grid_nodes.points", "count", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.active = False
        self._names = list(FUNCTIONS)
        self._name_ids = {n: i for i, n in enumerate(self._names)}
        self._span_name = array("i")
        self._span_parent = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_op = array("i")
        self._op_id = -1
        self._stack = []
        # function -> op kind id -> distinct inputs seen inside that kind of op
        self._seen = {fn: {} for fn in DISTINCT}
        self._outcomes = {fn: [0, 0] for fn in OUTCOMES}
        self._grid_points = 0
        # id(obj) -> (obj, canonical number); holding obj keeps the id unique
        self._by_id = {}
        self._canonical = {}

    # -- identity of expressions, sets and problems -------------------------

    def _ident(self, obj) -> int:
        entry = self._by_id.get(id(obj))
        if entry is None:
            n = self._canonical.setdefault(obj, len(self._canonical))
            entry = self._by_id[id(obj)] = (obj, n)
        return entry[1]

    @staticmethod
    def _point(x):
        return tuple(np.asarray(x, dtype=float).ravel().tolist())

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qcsol" or name.startswith("qcsol."))
        ]
        for fullname in FUNCTIONS:
            module_name, func_name = fullname.split(".")
            original = getattr(sys.modules[f"qcsol.{module_name}"], func_name)
            wrapper = self._wrap(fullname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, fullname, original):
        name_id = self._name_ids[fullname]
        distinct = DISTINCT.get(fullname)
        seen = self._seen.get(fullname)
        outcome = OUTCOMES.get(fullname)
        counts = self._outcomes.get(fullname)
        is_grid = fullname == "sets.grid_nodes"
        tracer = self
        span_name, span_parent = self._span_name, self._span_parent
        span_start, span_end, stack = self._span_start, self._span_end, self._stack
        span_op = self._span_op
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if distinct is not None:
                second = tracer._point(args[1]) if distinct == "point" else args[1]
                key = (tracer._ident(args[0]), second)
                seen.setdefault(tracer._op_id, set()).add(key)
            sid = len(span_name)
            span_name.append(name_id)
            span_op.append(tracer._op_id)
            span_parent.append(stack[-1] if stack else -1)
            span_end.append(0.0)
            stack.append(sid)
            span_start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                span_end[sid] = clock()
                stack.pop()
                if counts is not None:
                    counts[1] += 1
            if counts is not None and outcome[1](result):
                counts[0] += 1
            if is_grid:
                tracer._grid_points += len(result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = original.__name__
        traced.__doc__ = original.__doc__
        return traced

    @contextlib.contextmanager
    def op_span(self, kind: str):
        """Root span around one benchmark op; layer spans nest under it,
        and recording is on only inside it."""
        if kind not in self._name_ids:
            self._name_ids[kind] = len(self._names)
            self._names.append(kind)
        self._op_id = name_id = self._name_ids[kind]
        sid = len(self._span_name)
        self._span_name.append(name_id)
        self._span_op.append(name_id)
        self._span_parent.append(-1)
        self._span_end.append(0.0)
        self._stack.append(sid)
        self.active = True
        self._span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self._span_end[sid] = time.perf_counter()
            self.active = False
            self._stack.pop()

    # -- results ------------------------------------------------------------

    def spans(self):
        """(names, name id, op kind id, parent, start, end) of every span."""
        return (
            self._names,
            np.array(self._span_name, dtype=np.int64),
            np.array(self._span_op, dtype=np.int64),
            np.array(self._span_parent, dtype=np.int64),
            np.array(self._span_start, dtype=np.float64),
            np.array(self._span_end, dtype=np.float64),
        )

    def _distinct(self, fn, op_id=None) -> int:
        by_op = self._seen[fn]
        if op_id is not None:
            return len(by_op.get(op_id, ()))
        return len(set().union(*by_op.values()))

    def metrics(self):
        """Per-layer metrics: calls and self time of every traced function,
        distinct-input and useful-outcome ratios, and grid points made.
        A ratio whose function was never called reads 0."""
        _, names, _, parent, start, end = self.spans()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self._names)
        calls = np.bincount(names, minlength=n)
        self_s = np.bincount(names, weights=dur - child, minlength=n)

        out = {}
        for fn in FUNCTIONS:
            i = self._name_ids[fn]
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.self_s"] = float(self_s[i])
        for fn in DISTINCT:
            total = out[f"{fn}.calls"]
            out[f"{fn}.distinct_frac"] = self._distinct(fn) / total if total else 0.0
        for fn, (suffix, _) in OUTCOMES.items():
            useful, attempts = self._outcomes[fn]
            out[f"{fn}.{suffix}"] = useful / attempts if attempts else 0.0
        out["sets.grid_nodes.points"] = self._grid_points
        return out

    def breakdown(self):
        """Calls of each traced function per kind of op, with distinct
        inputs for the functions that track them."""
        names, ids, ops, _, _, _ = self.spans()
        out = {}
        for op_id in np.unique(ops):
            kind = names[op_id]
            sel = ids[ops == op_id]
            calls = np.bincount(sel, minlength=len(names))
            row = {}
            for fn in FUNCTIONS:
                c = int(calls[self._name_ids[fn]])
                if c:
                    row[fn] = {"calls": c}
                    if fn in DISTINCT:
                        row[fn]["distinct"] = self._distinct(fn, op_id)
            out[kind] = row
        return out

    def write_spans(self, path: str) -> None:
        names, ids, _, parent, start, end = self.spans()
        t0 = float(start[0]) if len(start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(start)):
                fh.write(
                    f"{i}\t{parent[i]}\t{names[ids[i]]}\t"
                    f"{start[i] - t0:.9f}\t{end[i] - t0:.9f}\n"
                )

