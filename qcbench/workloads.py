"""The four benchmark workloads.

A workload is built once at set-up from the seed (problems come through
``registry`` or ``problemfile``) and then hands out blocks of ops.  Every
block of a workload has the same composition; the seed only chooses the
order and the sampled inputs.  An op is a ``call`` (timed) plus a
``check`` (not timed) that returns ``None`` when the output is right and a
message otherwise.

The library is always reached through module attributes (``oracle.agreement``
rather than a name bound at import), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import numpy as np

from qcsol import (
    alternatives,
    charac,
    cli,
    convexity,
    errors,
    kkt,
    oracle,
    problemfile,
    registry,
    subdiff,
)
from qcsol.config import Config
from qcsol.core import CharacVariant
from qcsol.sets import Box

import expected as X


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _same_points(got, want: set, label: str) -> Optional[str]:
    got = set(tuple(float(c) for c in p) for p in got)
    if got != want:
        return f"{label}: {len(got)} points, expected {len(want)}"
    return None


# ---------------------------------------------------------------------------
# grid_sweep: run-example --check all, in process, on every builtin example
# ---------------------------------------------------------------------------

class GridSweep:
    """One block checks every (example, variant) pair once: an oracle plus
    dichotomy summary per example, oracle.agreement for all fifteen plain
    variants on the unconstrained examples, and enumerate_constrained for
    the nine primed and double-primed variants on ex2_3_constrained."""

    tail_percentile = 80.0
    trace_blocks = 1

    def __init__(self, seed: int, workdir: str):
        self.cfg = Config(seed=seed)
        self.entries = {
            name: registry.get_example(name)
            for name in X.UNCONSTRAINED + (X.CONSTRAINED,)
        }
        self.solutions = {name: X.solution_set(name) for name in self.entries}
        self.grid_sizes = {name: len(X.grid(name)) for name in self.entries}
        ops = []
        for name in X.UNCONSTRAINED:
            ops.append(Op("summary", *self._summary(name)))
            for variant in X.PLAIN_VARIANTS:
                ops.append(Op("agreement", *self._agreement(name, variant)))
        ops.append(Op("summary", *self._kkt_summary()))
        for variant in X.PRIMED_VARIANTS:
            ops.append(Op("enumerate_constrained", *self._primed(variant)))
        self._ops = ops

    def block(self, rng) -> List[Op]:
        return [self._ops[i] for i in rng.permutation(len(self._ops))]

    def _check_oracle(self, name, res) -> Optional[str]:
        if abs(res.min_value - X.MIN_VALUES[name]) > 1e-12:
            return f"{name} oracle min {res.min_value}"
        if res.grid_size != self.grid_sizes[name]:
            return f"{name} oracle grid size {res.grid_size}"
        return _same_points(res.solution_points, self.solutions[name], f"{name} oracle")

    def _summary(self, name):
        e, cfg = self.entries[name], self.cfg

        def call():
            res = oracle.brute_force_solutions(e.problem, e.resolution, cfg.eps_opt, cfg)
            return res, charac.classify_dichotomy(e.problem, res.solution_points, cfg)

        def check(out):
            res, dich = out
            if dich.alternative != X.DICHOTOMY[name]:
                return f"{name} dichotomy {dich.alternative}"
            return self._check_oracle(name, res)

        return call, check

    def _agreement(self, name, variant):
        e, cfg = self.entries[name], self.cfg
        want = X.agreement_verdict(name, variant)

        def call():
            try:
                return oracle.agreement(
                    e.problem, e.anchor, CharacVariant(variant), e.resolution,
                    cfg.eps_opt, cfg,
                )
            except errors.HypothesisViolatedError as exc:
                return exc

        def check(rep):
            if want == X.HYPOTHESIS:
                if isinstance(rep, errors.HypothesisViolatedError):
                    return None
                return f"{name}/{variant} did not raise {X.HYPOTHESIS}"
            if isinstance(rep, Exception):
                return f"{name}/{variant} raised {rep!r}"
            if rep.equal != want:
                return f"{name}/{variant} agreement {rep.equal}, expected {want}"
            return self._check_oracle(name, rep.oracle)

        return call, check

    def _kkt_summary(self):
        name = X.CONSTRAINED
        e, cfg = self.entries[name], self.cfg

        def call():
            lam = kkt.solve_multipliers(e.problem, e.anchor, cfg)
            resid = kkt.stationarity_residual(e.problem, e.anchor, lam, cfg)
            res = oracle.brute_force_solutions(e.problem, e.resolution, cfg.eps_opt, cfg)
            covered = all(
                kkt.member_X1(e.problem, e.anchor, lam, p, cfg)
                for p in res.solution_points
            )
            return lam, resid, res, covered

        def check(out):
            lam, resid, res, covered = out
            if abs(lam.lambdas[0] - X.LAMBDA) > 1e-9 or resid > 1e-9:
                return f"{name} multiplier {lam.lambdas}, residual {resid}"
            if not covered:
                return f"{name} oracle solutions outside X1(lambda)"
            return self._check_oracle(name, res)

        return call, check

    def _primed(self, variant):
        name = X.CONSTRAINED
        e, cfg = self.entries[name], self.cfg

        def call():
            lam = kkt.solve_multipliers(e.problem, e.anchor, cfg)
            return kkt.enumerate_constrained(
                e.problem, e.anchor, lam, CharacVariant(variant), e.resolution, cfg
            )

        def check(points):
            return _same_points(points, self.solutions[name], f"{name}/{variant}")

        return call, check


# ---------------------------------------------------------------------------
# point_queries: single-point CLI queries, in process
# ---------------------------------------------------------------------------

def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue()


def _fmt_point(x) -> str:
    return ",".join(repr(float(c)) for c in x)


class PointQueries:
    """A seeded stream of `qcsol.cli.run` queries.  Each block of 40 holds
    32 verify-membership queries (half on oracle solutions, half off them),
    4 GP subdiff-checks on ex2_4, and 2 each of kkt-solve and check-cq on
    ex2_3_constrained; half of every kind go through --problem files."""

    tail_percentile = 99.0
    trace_blocks = 20

    MEMBERSHIP = 32
    GP = 4
    KKT = 2
    CQ = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = str(seed)
        names = X.UNCONSTRAINED + (X.CONSTRAINED,)
        self.files = {}
        for name in names:
            entry = registry.get_example(name)
            text = problemfile.dumps(entry.problem, entry.anchor)
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                fh.write(text)
            with open(path) as fh:
                problem, known, _ = problemfile.loads(fh.read())
            if problem != entry.problem or tuple(known) != tuple(entry.anchor):
                raise RuntimeError(f"{name} does not round-trip through problemfile")
            self.files[name] = path
        self.pairs = [
            (name, variant)
            for name in X.UNCONSTRAINED
            for variant in X.PLAIN_VARIANTS
            if X.agreement_verdict(name, variant) is True
        ]
        self.inside, self.outside = {}, {}
        for name in X.UNCONSTRAINED:
            nodes = X.grid(name)
            self.inside[name] = [x for x in nodes if X.is_solution(name, x)]
            self.outside[name] = [x for x in nodes if not X.is_solution(name, x)]

    def _source(self, name, from_file):
        if from_file:
            return ["--problem", self.files[name]]
        return ["--example", name]

    def block(self, rng) -> List[Op]:
        ops = []
        for i in range(self.MEMBERSHIP):
            name, variant = self.pairs[rng.integers(len(self.pairs))]
            member = i % 2 == 0
            pool = self.inside[name] if member else self.outside[name]
            x = pool[rng.integers(len(pool))]
            argv = (
                ["verify-membership"]
                + self._source(name, i % 4 < 2)
                + ["--variant", variant, f"--point={_fmt_point(x)}", "--seed", self.seed]
            )
            ops.append(Op("verify-membership", *self._membership(argv, member)))
        for i in range(self.GP):
            member = i % 2 == 0
            pool = self.inside["ex2_4"] if member else self.outside["ex2_4"]
            x = pool[rng.integers(len(pool))]
            argv = (
                ["subdiff-check"]
                + self._source("ex2_4", i < self.GP // 2)
                + ["--route", "gp", f"--point={_fmt_point(x)}", "--seed", self.seed]
            )
            ops.append(Op("subdiff-check", *self._membership(argv, member)))
        for i in range(self.KKT):
            argv = ["kkt-solve"] + self._source(X.CONSTRAINED, i % 2 == 0)
            ops.append(Op("kkt-solve", _cli_call(argv + ["--seed", self.seed]), _check_kkt))
        for i in range(self.CQ):
            argv = ["check-cq"] + self._source(X.CONSTRAINED, i % 2 == 0)
            ops.append(Op("check-cq", _cli_call(argv + ["--seed", self.seed]), _check_cq))
        return [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _membership(argv, member):
        want_code = cli.EXIT_OK if member else cli.EXIT_NEGATIVE

        def check(out):
            code, text = out
            if code != want_code or json.loads(text)["member"] is not member:
                return f"{' '.join(argv)}: exit {code}, expected {want_code}"
            return None

        return _cli_call(argv), check


def _cli_call(argv):
    return lambda: _run_cli(argv)


def _check_kkt(out) -> Optional[str]:
    code, text = out
    if code != cli.EXIT_OK:
        return f"kkt-solve exit {code}"
    rep = json.loads(text)
    if abs(rep["lambdas"][0] - X.LAMBDA) > 1e-9 or rep["stationarity_residual"] > 1e-9:
        return f"kkt-solve multipliers {rep['lambdas']}"
    return None


def _gmfcq_direction_ok(direction) -> bool:
    # the only constraint x1^2 + x2^2 - 2 is active at (1, 1), gradient (2, 2)
    return direction is not None and 2.0 * direction[0] + 2.0 * direction[1] < 0.0


def _check_cq(out) -> Optional[str]:
    code, text = out
    rep = json.loads(text)
    if code != cli.EXIT_OK or rep["holds"] is not True:
        return f"check-cq exit {code}"
    if not _gmfcq_direction_ok(rep["direction"]):
        return f"check-cq direction {rep['direction']} is not strictly descending"
    return None


# ---------------------------------------------------------------------------
# falsifiers: value-only search loops
# ---------------------------------------------------------------------------

class Falsifiers:
    """One block runs the GP route on every ex2_4 feasible node (shared
    21-grid, as in acceptance criterion 4), the ML route on every ex4_1
    node (criterion 5), and the four convexity samplers on every builtin
    objective, on windows where each objective is quasiconvex."""

    tail_percentile = 95.0
    trace_blocks = 1

    PAIRS = 100
    T_STEPS = 10
    LEVEL_RESOLUTION = 11
    PSEUDO_SAMPLES = 200

    def __init__(self, seed: int, workdir: str):
        quad = registry.get_example("ex2_4")
        flat = registry.get_example("ex4_1")
        self.quad, self.flat = quad, flat
        self.gp_grid = subdiff._grid_values(quad.problem.objective, quad.problem.domain_window, 21)
        self.gp_points = X.grid("ex2_4")
        self.ml_points = X.grid("ex4_1")
        self.samplers = {
            name: registry.get_example(name) for name in X.UNCONSTRAINED + (X.CONSTRAINED,)
        }
        self.windows = {
            name: Box(*X.SAMPLER_WINDOWS[name]) for name in self.samplers
        }

    def block(self, rng) -> List[Op]:
        ops = [Op("gp", *self._gp(x)) for x in self.gp_points]
        ops += [Op("ml", *self._ml(x[0])) for x in self.ml_points]
        for name in self.samplers:
            cfg = Config(seed=int(rng.integers(2**31)))
            alpha = X.MIN_VALUES[name] + rng.uniform(0.0, 1.0)  # a nonempty level set
            ops += self._samplers(name, cfg, alpha)
        return [ops[i] for i in rng.permutation(len(ops))]

    def _gp(self, x):
        e, grid = self.quad, self.gp_grid
        want = X.is_solution("ex2_4", x)

        def check(got):
            return None if got is want else f"GP route at {x}: {got}, expected {want}"

        return (lambda: subdiff.gp_solution_check(e.problem, e.anchor, x, _grid=grid)), check

    def _ml(self, x):
        e = self.flat
        want = X.is_solution("ex4_1", (x,))

        def check(got):
            return None if got is want else f"ML route at {x}: {got}, expected {want}"

        return (lambda: subdiff.ml_solution_check_1d(e.problem, e.anchor[0], x)), check

    def _samplers(self, name, cfg, alpha):
        e, window = self.samplers[name], self.windows[name]
        f = e.problem.objective

        def holds(label):
            def check(rep):
                ok = rep if isinstance(rep, bool) else rep.holds
                return None if ok else f"{label} reports a violation on {name}: {rep}"
            return check

        return [
            Op("check_quasiconvex",
               lambda: convexity.check_quasiconvex(f, window, self.PAIRS, self.T_STEPS, cfg),
               holds("check_quasiconvex")),
            Op("check_first_order_qcx",
               lambda: convexity.check_first_order_qcx(f, window, self.PAIRS, cfg),
               holds("check_first_order_qcx")),
            Op("check_levelset_convex",
               lambda: convexity.check_levelset_convex(
                   f, alpha, window, self.LEVEL_RESOLUTION, cfg),
               holds("check_levelset_convex")),
            Op("check_pseudoconvex_at",
               lambda: convexity.check_pseudoconvex_at(
                   f, e.anchor, window, self.PSEUDO_SAMPLES, cfg),
               holds("check_pseudoconvex_at")),
        ]


# ---------------------------------------------------------------------------
# lp_kernel: Gordan's alternative plus KKT and GMFCQ solves
# ---------------------------------------------------------------------------

class LpKernel:
    """Each block of 50 decisions: 40 Gordan alternatives on seeded random
    matrices with m, n in 1..5 and entries in [-1, 1] (acceptance criterion
    7's distribution), interleaved with 5 multiplier solves and 5 GMFCQ
    checks at the ex2_3_constrained anchor.

    The tail is read at p99, not at the p99.9 that ten samples beyond would
    allow: ops take about 0.3 ms, so a few host preemptions of a few ms
    fill the top 0.1% (p99.9 read 1.0 to 3.9 ms across ten seeds)."""

    tail_percentile = 99.0
    trace_blocks = 40

    GORDAN = 40
    KKT = 5
    CQ = 5

    def __init__(self, seed: int, workdir: str):
        self.cfg = Config(seed=seed)
        self.entry = registry.get_example(X.CONSTRAINED)

    def block(self, rng) -> List[Op]:
        ops = []
        for _ in range(self.GORDAN):
            m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            ops.append(Op("gordan", *self._gordan(rng.uniform(-1.0, 1.0, size=(m, n)))))
        e, cfg = self.entry, self.cfg
        ops += [
            Op("solve_multipliers",
               lambda: kkt.solve_multipliers(e.problem, e.anchor, cfg), _check_lambda)
        ] * self.KKT
        ops += [
            Op("check_gmfcq", lambda: kkt.check_gmfcq(e.problem, e.anchor, cfg), _check_gmfcq)
        ] * self.CQ
        return [ops[i] for i in rng.permutation(len(ops))]

    def _gordan(self, A):
        cfg = self.cfg

        def check(res):
            # the certificate checks of acceptance criterion 7
            if res.branch == "primal":
                if not np.min(A @ res.witness) > 0:
                    return f"primal witness fails A x > 0 for {A.tolist()}"
                if alternatives.dual_certificate(A, cfg) is not None:
                    return f"both Gordan branches certified for {A.tolist()}"
                return None
            y = np.asarray(res.witness)
            if not (
                np.all(y >= -1e-9)
                and np.max(np.abs(A.T @ y)) <= 1e-9
                and abs(float(np.sum(y)) - 1.0) <= 1e-9
            ):
                return f"dual certificate fails for {A.tolist()}"
            if alternatives.primal_margin(A, cfg) > cfg.eps_lp:
                return f"dual branch but a primal margin exists for {A.tolist()}"
            return None

        return (lambda: alternatives.gordan_alternative(A, cfg)), check


def _check_lambda(lam) -> Optional[str]:
    if abs(lam.lambdas[0] - X.LAMBDA) > 1e-9:
        return f"multiplier {lam.lambdas}, expected ({X.LAMBDA},)"
    return None


def _check_gmfcq(rep) -> Optional[str]:
    if not rep.holds or not _gmfcq_direction_ok(rep.direction):
        return f"GMFCQ report {rep}"
    return None


WORKLOADS = {
    "grid_sweep": GridSweep,
    "point_queries": PointQueries,
    "falsifiers": Falsifiers,
    "lp_kernel": LpKernel,
}
