"""Command-line front end.

Every subcommand prints one machine-readable JSON report on stdout.
Exit codes: 0 completed with a positive result, 1 completed with a
negative/violation result, 2 usage error, 3 numeric or hypothesis error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from typing import List, Optional

from . import charac, convexity, kkt, oracle, subdiff
from .config import DEFAULT_CONFIG, Config
from .core import CharacVariant, ConstrainedProblem
from .errors import ProblemFormatError, QcsolError
from .problemfile import _json_document, config_from_json, loads
from .registry import get_example
from .sets import Box

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


def _base_config(args, cfg: Config = DEFAULT_CONFIG) -> Config:
    """cfg (a problem file's config), then QCX_CONFIG, then the flags."""
    path = os.environ.get("QCX_CONFIG")
    if path:
        with open(path) as fh:
            cfg = config_from_json(_json_document(fh.read()), cfg)
    return cfg.with_overrides(
        eps_grad=args.eps_grad,
        eps_dir=args.eps_dir,
        eps_feas=args.eps_feas,
        eps_act=args.eps_act,
        seed=args.seed,
    )


def _load(args, require_constrained: Optional[bool] = None):
    """Problem from --problem PATH or --example NAME, plus anchor and config."""
    if getattr(args, "example", None):
        entry = get_example(args.example)
        problem, known, cfg = entry.problem, entry.anchor, _base_config(args)
    elif getattr(args, "problem", None):
        with open(args.problem) as fh:
            problem, known, file_cfg = loads(fh.read())
        cfg = _base_config(args, file_cfg)
    else:
        raise UsageError("either --problem PATH or --example NAME is required")
    if require_constrained is True and not isinstance(problem, ConstrainedProblem):
        raise UsageError("this subcommand needs a constrained problem")
    if require_constrained is False and isinstance(problem, ConstrainedProblem):
        raise UsageError("this subcommand needs an unconstrained problem")
    if getattr(args, "anchor", None):
        known = tuple(float(v) for v in args.anchor.split(","))
    return problem, known, cfg


def _window(args, problem) -> Box:
    if args.window:
        vals = [float(v) for v in args.window.split(",")]
        if len(vals) != 2 * problem.dimension:
            raise UsageError("--window needs lo1,hi1,...,lon,hin")
        if not all(math.isfinite(v) for v in vals):
            raise UsageError("--window bounds must be finite")
        return Box(tuple(vals[0::2]), tuple(vals[1::2]))
    return problem.domain_window


def _variant(name: str) -> CharacVariant:
    try:
        return CharacVariant(name.upper())
    except ValueError:
        raise UsageError(f"unknown variant {name!r}")


def _strict(value):
    """value with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def _emit(report: dict) -> None:
    print(json.dumps(_strict(report), indent=2, allow_nan=False))


def _require_anchor(known):
    if known is None:
        raise UsageError("an anchor solution is required (--anchor or known_solution)")
    return known


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_classify(args) -> int:
    problem, _, cfg = _load(args, require_constrained=False)
    res = oracle.brute_force_solutions(problem, args.resolution, cfg=cfg)
    report = charac.classify_dichotomy(problem, res.solution_points, cfg)
    _emit(
        {
            "alternative": report.alternative,
            "common_unit_gradient": list(report.common_unit_gradient)
            if report.common_unit_gradient
            else None,
            "witnesses": [
                {"point": list(pt), "gradient_norm": nrm}
                for pt, nrm in report.witnesses
            ],
        }
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    problem, known, cfg = _load(args, require_constrained=False)
    anchor = _require_anchor(known)
    variant = _variant(args.variant)
    points = charac.enumerate_solution_set(
        problem, anchor, variant, args.resolution, cfg
    )
    _emit({"variant": variant.value, "points": [list(p) for p in points]})
    return EXIT_OK if points else EXIT_NEGATIVE


def _cmd_verify_membership(args) -> int:
    problem, known, cfg = _load(args, require_constrained=False)
    anchor = _require_anchor(known)
    variant = _variant(args.variant)
    point = tuple(float(v) for v in args.point.split(","))
    verdict = charac.membership(problem, anchor, point, variant, cfg)
    _emit(
        {
            "point": list(verdict.point),
            "variant": verdict.variant.value,
            "member": verdict.member,
            "residuals": verdict.residuals,
        }
    )
    return EXIT_OK if verdict.member else EXIT_NEGATIVE


def _cmd_check_convexity(args) -> int:
    for flag, count in (("--pairs", args.pairs), ("--t-steps", args.t_steps)):
        if count < 0:
            raise UsageError(f"{flag} must be a nonnegative integer")
    problem, _, cfg = _load(args)
    window = _window(args, problem)
    quasi = convexity.check_quasiconvex(
        problem.objective, window, args.pairs, args.t_steps, cfg
    )
    first_order = convexity.check_first_order_qcx(
        problem.objective, window, args.pairs, cfg
    )
    _emit(
        {
            "quasiconvex": {
                "holds": quasi.holds,
                "checked_pairs": quasi.checked,
                "counterexample": list(map(list, quasi.counterexample[:2]))
                + [quasi.counterexample[2]]
                if quasi.counterexample
                else None,
            },
            "first_order": {
                "holds": first_order.holds,
                "counterexample": list(map(list, first_order.counterexample))
                if first_order.counterexample
                else None,
            },
            "note": "sampled falsification; 'holds' means no violation found",
        }
    )
    return EXIT_OK if quasi.holds and first_order.holds else EXIT_NEGATIVE


def _cmd_oracle(args) -> int:
    problem, _, cfg = _load(args)
    res = oracle.brute_force_solutions(problem, args.resolution, cfg=cfg)
    _emit(
        {
            "min_value": res.min_value,
            "grid_size": res.grid_size,
            "solution_points": [list(p) for p in res.solution_points],
        }
    )
    return EXIT_OK


def _cmd_agreement(args) -> int:
    problem, known, cfg = _load(args, require_constrained=False)
    anchor = _require_anchor(known)
    variant = _variant(args.variant)
    rep = oracle.agreement(
        problem, anchor, variant, args.resolution, cfg=cfg
    )
    _emit(
        {
            "variant": variant.value,
            "equal": rep.equal,
            "missing": [list(p) for p in rep.missing],
            "extra": [list(p) for p in rep.extra],
            "oracle_min": rep.oracle.min_value,
            "oracle_count": len(rep.oracle.solution_points),
        }
    )
    return EXIT_OK if rep.equal else EXIT_NEGATIVE


def _cmd_kkt_solve(args) -> int:
    problem, known, cfg = _load(args, require_constrained=True)
    anchor = _require_anchor(known)
    kkt._feasible_anchor(problem, anchor, cfg)
    lam = kkt.solve_multipliers(problem, anchor, cfg)
    resid = kkt.stationarity_residual(problem, anchor, lam, cfg)
    _emit(
        {
            "lambdas": list(lam.lambdas),
            "rank_deficient": lam.rank_deficient,
            "stationarity_residual": resid,
        }
    )
    return EXIT_OK


def _cmd_kkt_enumerate(args) -> int:
    problem, known, cfg = _load(args, require_constrained=True)
    anchor = _require_anchor(known)
    variant = _variant(args.variant)
    kkt._feasible_anchor(problem, anchor, cfg)
    lam = kkt.solve_multipliers(problem, anchor, cfg)
    points = kkt.enumerate_constrained(
        problem, anchor, lam, variant, args.resolution, cfg
    )
    _emit(
        {
            "variant": variant.value,
            "lambdas": list(lam.lambdas),
            "points": [list(p) for p in points],
        }
    )
    return EXIT_OK if points else EXIT_NEGATIVE


def _cmd_check_cq(args) -> int:
    problem, known, cfg = _load(args, require_constrained=True)
    anchor = _require_anchor(known)
    kkt._feasible_anchor(problem, anchor, cfg)
    rep = kkt.check_gmfcq(problem, anchor, cfg)
    _emit(
        {
            "holds": rep.holds,
            "direction": list(rep.direction) if rep.direction else None,
        }
    )
    return EXIT_OK if rep.holds else EXIT_NEGATIVE


def _cmd_subdiff_check(args) -> int:
    problem, known, cfg = _load(args, require_constrained=False)
    anchor = _require_anchor(known)
    point = tuple(float(v) for v in args.point.split(","))
    if args.route == "gp":
        ok = subdiff.gp_solution_check(
            problem, anchor, point, resolution=args.resolution, cfg=cfg
        )
    else:
        if problem.dimension != 1:
            raise UsageError("--route ml needs a one-dimensional problem")
        ok = subdiff.ml_solution_check_1d(
            problem, anchor[0], point[0], resolution=args.resolution, cfg=cfg
        )
    _emit({"route": args.route, "point": list(point), "member": ok})
    return EXIT_OK if ok else EXIT_NEGATIVE


# The plain variants of alternative I: those that need a nonzero gradient.
_ALL_UNCONSTRAINED = tuple(
    v for v, names in charac._CONDITIONS.items()
    if "nonzero_gradient" in names and not v.requires_multiplier
)


def _cmd_run_example(args) -> int:
    entry = get_example(args.name)
    cfg = _base_config(args)
    problem, anchor, resolution = entry.problem, entry.anchor, entry.resolution
    report = {"example": entry.name, "description": entry.description}
    if isinstance(problem, ConstrainedProblem):
        lam = kkt.solve_multipliers(problem, anchor, cfg)
        resid = kkt.stationarity_residual(problem, anchor, lam, cfg)
        res = oracle.brute_force_solutions(problem, resolution, cfg=cfg)
        covered = all(
            kkt.member_X1(problem, anchor, lam, p, cfg)
            for p in res.solution_points
        )
        report.update(
            {
                "lambdas": list(lam.lambdas),
                "stationarity_residual": resid,
                "oracle_min": res.min_value,
                "solutions_in_X1": covered,
                "lagrangian_constant": kkt.lagrangian_constancy(
                    problem, anchor, lam, res.solution_points, cfg
                ),
            }
        )
        _emit(report)
        return EXIT_OK if covered else EXIT_NEGATIVE

    res = oracle.brute_force_solutions(problem, resolution, cfg=cfg)
    dich = charac.classify_dichotomy(problem, res.solution_points, cfg)
    report["alternative"] = dich.alternative
    report["oracle_min"] = res.min_value
    report["oracle_count"] = len(res.solution_points)
    if args.check == "all":
        variants = (
            _ALL_UNCONSTRAINED if dich.alternative == "I" else (CharacVariant.STILDE,)
        )
        agreements = {}
        for variant in variants:
            rep = oracle.agreement(
                problem, anchor, variant, resolution, cfg=cfg
            )
            agreements[variant.value] = rep.equal
        report["agreement"] = agreements
        _emit(report)
        return EXIT_OK if all(agreements.values()) else EXIT_NEGATIVE
    _emit(report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Parsing keeps
    no state in it: each parse returns a fresh Namespace, and usage,
    errors and --help look up sys.stdout, sys.stderr and the terminal
    width when they print."""
    parser = argparse.ArgumentParser(
        prog="qcsol",
        description="Solution-set characterizations for quasiconvex programs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, anchor=True, resolution=True):
        p.add_argument("--problem", help="path to a JSON problem file")
        p.add_argument("--example", help="name of a builtin example")
        if anchor:
            p.add_argument("--anchor", help="known solution, comma separated")
        if resolution:
            p.add_argument("--resolution", type=int, default=21)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--eps-grad", dest="eps_grad", type=float, default=None)
        p.add_argument("--eps-dir", dest="eps_dir", type=float, default=None)
        p.add_argument("--eps-feas", dest="eps_feas", type=float, default=None)
        p.add_argument("--eps-act", dest="eps_act", type=float, default=None)

    p = sub.add_parser("classify", help="gradient dichotomy of the solution set")
    common(p, anchor=False)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("enumerate", help="enumerate one characterization on the grid")
    common(p)
    p.add_argument("--variant", required=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify-membership", help="membership verdict for one point")
    common(p, resolution=False)
    p.add_argument("--variant", required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_verify_membership)

    p = sub.add_parser("check-convexity", help="sampled convexity hypothesis checks")
    common(p, anchor=False, resolution=False)
    p.add_argument("--window", help="lo1,hi1,...,lon,hin override")
    p.add_argument("--pairs", type=int, default=500)
    p.add_argument("--t-steps", dest="t_steps", type=int, default=10)
    p.set_defaults(func=_cmd_check_convexity)

    p = sub.add_parser("oracle", help="brute-force solution set on the grid")
    common(p, anchor=False)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("agreement", help="diff one variant against the oracle")
    common(p)
    p.add_argument("--variant", required=True)
    p.set_defaults(func=_cmd_agreement)

    p = sub.add_parser("kkt-solve", help="Lagrange multipliers at the anchor")
    common(p, resolution=False)
    p.set_defaults(func=_cmd_kkt_solve)

    p = sub.add_parser("kkt-enumerate", help="enumerate a multiplier characterization")
    common(p)
    p.add_argument("--variant", required=True)
    p.set_defaults(func=_cmd_kkt_enumerate)

    p = sub.add_parser("check-cq", help="generalized MFCQ at the anchor")
    common(p, resolution=False)
    p.set_defaults(func=_cmd_check_cq)

    p = sub.add_parser("subdiff-check", help="subdifferential membership routes")
    common(p)
    p.add_argument("--route", choices=("gp", "ml"), required=True)
    p.add_argument("--point", required=True)
    p.set_defaults(func=_cmd_subdiff_check)

    p = sub.add_parser("run-example", help="reproduce a builtin example")
    p.add_argument("name")
    p.add_argument("--check", choices=("summary", "all"), default="summary")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eps-grad", dest="eps_grad", type=float, default=None)
    p.add_argument("--eps-dir", dest="eps_dir", type=float, default=None)
    p.add_argument("--eps-feas", dest="eps_feas", type=float, default=None)
    p.add_argument("--eps-act", dest="eps_act", type=float, default=None)
    p.set_defaults(func=_cmd_run_example)

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (ProblemFormatError, OSError, KeyError, ValueError) as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except QcsolError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run())
