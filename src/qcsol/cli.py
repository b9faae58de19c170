"""Command-line front end.

Every subcommand prints one machine-readable JSON report on stdout.
Exit codes: 0 positive result, 1 negative/violation result, 2 usage error,
3 numeric or hypothesis error, 141 stdout closed early (nothing printed).
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
from .errors import InputError, QcsolError
from .expr import _MEMO_SIZE
from .problemfile import _json_document, config_from_json, loads
from .registry import get_example
from .sets import Box

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_CLOSED_STDOUT = 141  # the shell's code for a process that SIGPIPE ended


# the Config fields that a flag sets (--seed, --eps-grad, ...)
_CONFIG_FLAGS = ("seed", "eps_grad", "eps_dir", "eps_feas", "eps_act")


class UsageError(Exception):
    pass


def _base_config(args, cfg: Config = DEFAULT_CONFIG) -> Config:
    """cfg (a problem file's config), then QCX_CONFIG, then the flags.  The
    file is read on every call; one Config is kept per set of sources (_config)."""
    path = os.environ.get("QCX_CONFIG")
    flags = tuple((k, v) for k in _CONFIG_FLAGS if (v := getattr(args, k)) is not None)
    return _config(cfg, _text(path) if path else None, flags)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _config(cfg: Config, text: Optional[str], flags: tuple) -> Config:
    """cfg with the QCX_CONFIG text's fields, then the flags' (name, value)
    pairs, replaced; the same object for equal sources, as store keys match
    by identity first.  A refused config raises again."""
    if text is not None:
        cfg = config_from_json(_json_document(text), cfg)
    return config_from_json(dict(flags), cfg)


def _text(path: str) -> str:
    """The text of the file at path; one that cannot be read is an input error."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None


def _load(args):
    """Problem, anchor and config of a subcommand, checked in this order:
    the problem from --problem PATH or --example NAME, of the kind its
    _COMMANDS defaults name (constrained True, False, or None for
    either); the anchor (--anchor, else the file's known solution), which
    exactly the subcommands that take --anchor require; then --variant
    and --point, each replaced in args by its parsed value."""
    if args.example is not None:
        entry = _example(args.example)
        problem, anchor, cfg = entry.problem, entry.anchor, _base_config(args)
    elif args.problem is not None:
        problem, anchor, file_cfg = loads(_text(args.problem))
        cfg = _base_config(args, file_cfg)
    else:
        raise UsageError("either --problem PATH or --example NAME is required")
    needs = args.constrained
    if needs is not None and needs != isinstance(problem, ConstrainedProblem):
        kind = "a constrained" if needs else "an unconstrained"
        raise UsageError(f"this subcommand needs {kind} problem")
    if "anchor" in args:
        if args.anchor is not None:
            anchor = _reals(args.anchor, "--anchor", problem.dimension)
        if anchor is None:
            raise UsageError("an anchor solution is required (--anchor or known_solution)")
    if "variant" in args:
        args.variant = _variant(args.variant)
    if "point" in args:
        args.point = _reals(args.point, "--point", problem.dimension)
    return problem, anchor, cfg


def _reals(text: str, flag: str, count: int) -> tuple:
    """The value of flag: count finite reals, comma separated."""
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        vals = ()
    if len(vals) != count or not all(map(math.isfinite, vals)):
        raise UsageError(f"{flag} needs {count} comma-separated finite reals, got {text!r}")
    return vals


def _example(name: str):
    try:
        return get_example(name)
    except KeyError as exc:
        raise UsageError(exc.args[0]) from None


def _variant(name: str) -> CharacVariant:
    try:
        return CharacVariant(name.upper())
    except ValueError:
        raise UsageError(f"unknown variant {name!r}")


# ---------------------------------------------------------------------------
# Subcommands: each returns its report and whether its result is positive
# ---------------------------------------------------------------------------

def _cmd_classify(args):
    problem, _, cfg = _load(args)
    res = oracle.brute_force_solutions(problem, args.resolution, cfg=cfg)
    report = charac.classify_dichotomy(problem, res.solution_points, cfg)
    return {
        "alternative": report.alternative,
        "common_unit_gradient": report.common_unit_gradient,
        "witnesses": [{"point": pt, "gradient_norm": nrm} for pt, nrm in report.witnesses],
    }, True


def _cmd_enumerate(args):
    """enumerate, and kkt-enumerate with the anchor's multiplier."""
    problem, anchor, cfg = _load(args)
    report = {"variant": args.variant.value}
    if isinstance(problem, ConstrainedProblem):
        lam = kkt.solve_multipliers(problem, anchor, cfg)
        report["lambdas"] = lam.lambdas
        points = kkt.enumerate_constrained(
            problem, anchor, lam, args.variant, args.resolution, cfg
        )
    else:
        points = charac.enumerate_solution_set(
            problem, anchor, args.variant, args.resolution, cfg
        )
    report["points"] = points
    return report, bool(points)


def _cmd_verify_membership(args):
    problem, anchor, cfg = _load(args)
    verdict = charac.membership(problem, anchor, args.point, args.variant, cfg)
    return {
        "point": verdict.point,
        "variant": verdict.variant.value,
        "member": verdict.member,
        "residuals": verdict.residuals,
    }, verdict.member


def _cmd_check_convexity(args):
    for flag, count in (("--pairs", args.pairs), ("--t-steps", args.t_steps)):
        if count < 0:
            raise UsageError(f"{flag} must be a nonnegative integer")
    problem, _, cfg = _load(args)
    window = problem.domain_window
    if args.window is not None:
        vals = _reals(args.window, "--window", 2 * problem.dimension)
        window = Box(vals[0::2], vals[1::2])
    quasi = convexity.check_quasiconvex(
        problem.objective, window, args.pairs, args.t_steps, cfg
    )
    first_order = convexity.check_first_order_qcx(
        problem.objective, window, args.pairs, cfg
    )
    return {
        "quasiconvex": {
            "holds": quasi.holds,
            "checked_pairs": quasi.checked,
            "counterexample": quasi.counterexample,
        },
        "first_order": {
            "holds": first_order.holds,
            "counterexample": first_order.counterexample,
        },
        "note": "sampled falsification; 'holds' means no violation found",
    }, quasi.holds and first_order.holds


def _cmd_oracle(args):
    problem, _, cfg = _load(args)
    res = oracle.brute_force_solutions(problem, args.resolution, cfg=cfg)
    return {
        "min_value": res.min_value,
        "grid_size": res.grid_size,
        "solution_points": res.solution_points,
    }, True


def _cmd_agreement(args):
    problem, anchor, cfg = _load(args)
    rep = oracle.agreement(problem, anchor, args.variant, args.resolution, cfg=cfg)
    return {
        "variant": args.variant.value,
        "equal": rep.equal,
        "missing": rep.missing,
        "extra": rep.extra,
        "oracle_min": rep.oracle.min_value,
        "oracle_count": len(rep.oracle.solution_points),
    }, rep.equal


def _cmd_kkt_solve(args):
    problem, anchor, cfg = _load(args)
    lam = kkt.solve_multipliers(problem, anchor, cfg)
    resid = kkt.stationarity_residual(problem, anchor, lam, cfg)
    return {
        "lambdas": lam.lambdas,
        "rank_deficient": lam.rank_deficient,
        "stationarity_residual": resid,
    }, True


def _cmd_check_cq(args):
    problem, anchor, cfg = _load(args)
    rep = kkt.check_gmfcq(problem, anchor, cfg)
    return {
        "holds": rep.holds,
        "direction": rep.direction,
    }, rep.holds


def _cmd_subdiff_check(args):
    problem, anchor, cfg = _load(args)
    if args.route == "gp":
        ok = subdiff.gp_solution_check(
            problem, anchor, args.point, resolution=args.resolution, cfg=cfg
        )
    else:
        if problem.dimension != 1:
            raise UsageError("--route ml needs a one-dimensional problem")
        ok = subdiff.ml_solution_check_1d(
            problem, anchor[0], args.point[0], resolution=args.resolution, cfg=cfg
        )
    return {"route": args.route, "point": args.point, "member": ok}, ok


# The plain variants of alternative I: those that need a nonzero gradient.
_ALL_UNCONSTRAINED = tuple(
    v for v, names in charac._CONDITIONS.items()
    if "nonzero_gradient" in names and not v.requires_multiplier
)
# the variants whose agreement run-example --check all reports, by alternative
_AGREEMENT_VARIANTS = {"I": _ALL_UNCONSTRAINED, "II": (CharacVariant.STILDE,)}


def _cmd_run_example(args):
    entry = _example(args.name)
    cfg = _base_config(args)
    problem, anchor, resolution = entry.problem, entry.anchor, entry.resolution
    report = {"example": entry.name, "description": entry.description}
    res = oracle.brute_force_solutions(problem, resolution, cfg=cfg)
    if isinstance(problem, ConstrainedProblem):
        lam = kkt.solve_multipliers(problem, anchor, cfg)
        resid = kkt.stationarity_residual(problem, anchor, lam, cfg)
        covered = all(kkt.member_X1(problem, anchor, lam, x, cfg) for x in res.solution_points)
        report.update(
            {
                "lambdas": lam.lambdas,
                "stationarity_residual": resid,
                "oracle_min": res.min_value,
                "solutions_in_X1": covered,
                "lagrangian_constant": kkt.lagrangian_constancy(
                    problem, anchor, lam, res.solution_points, cfg
                ),
            }
        )
        return report, covered

    alternative = charac.classify_dichotomy(problem, res.solution_points, cfg).alternative
    report["alternative"] = alternative
    report["oracle_min"] = res.min_value
    report["oracle_count"] = len(res.solution_points)
    if args.check != "all":
        return report, True
    report["agreement"] = {
        v.value: oracle.agreement(problem, anchor, v, resolution, cfg=cfg).equal
        for v in _AGREEMENT_VARIANTS[alternative]
    }
    return report, all(report["agreement"].values())


# ---------------------------------------------------------------------------
# Argument parsing: one table, read by argparse and by a short reader
# ---------------------------------------------------------------------------

# A subcommand's flags map each name (without "--": a positional) to
# add_argument's keywords: type, default, choices, whether required, help.
_CONFIG = {"--" + n.replace("_", "-"): {"type": int if n == "seed" else float}
           for n in _CONFIG_FLAGS}
_REQUIRED = {"required": True}
_ANCHOR = {"--anchor": {"help": "known solution, comma separated"}}
_RESOLUTION = {"--resolution": {"type": int, "default": 21}}


def _command(func, summary, extra=None, constrained=None, anchor=True, resolution=True):
    """A subcommand on --problem/--example; constrained is the problem kind it
    needs (None: either)."""
    flags = {"--problem": {"help": "path to a JSON problem file"},
             "--example": {"help": "name of a builtin example"},
             **(_ANCHOR if anchor else {}), **(_RESOLUTION if resolution else {}),
             **_CONFIG, **(extra or {})}
    return summary, flags, {"func": func, "constrained": constrained}


# every subcommand, in --help's order: (summary, flags, namespace defaults)
_COMMANDS = {
    "classify": _command(_cmd_classify, "gradient dichotomy of the solution set",
                         constrained=False, anchor=False),
    "enumerate": _command(_cmd_enumerate, "enumerate one characterization on the grid",
                          {"--variant": _REQUIRED}, constrained=False),
    "verify-membership": _command(_cmd_verify_membership, "membership verdict for one point",
                                  {"--variant": _REQUIRED, "--point": _REQUIRED},
                                  constrained=False, resolution=False),
    "check-convexity": _command(_cmd_check_convexity, "sampled convexity hypothesis checks", {
        "--window": {"help": "lo1,hi1,...,lon,hin override"},
        "--pairs": {"type": int, "default": 500}, "--t-steps": {"type": int, "default": 10},
    }, anchor=False, resolution=False),
    "oracle": _command(_cmd_oracle, "brute-force solution set on the grid", anchor=False),
    "agreement": _command(_cmd_agreement, "diff one variant against the oracle",
                          {"--variant": _REQUIRED}, constrained=False),
    "kkt-solve": _command(_cmd_kkt_solve, "Lagrange multipliers at the anchor",
                          constrained=True, resolution=False),
    "kkt-enumerate": _command(_cmd_enumerate, "enumerate a multiplier characterization",
                              {"--variant": _REQUIRED}, constrained=True),
    "check-cq": _command(_cmd_check_cq, "generalized MFCQ at the anchor",
                         constrained=True, resolution=False),
    "subdiff-check": _command(_cmd_subdiff_check, "subdifferential membership routes",
                              {"--route": {"choices": ("gp", "ml"), "required": True},
                               "--point": _REQUIRED}, constrained=False),
    "run-example": ("reproduce a builtin example", {
        "name": {}, "--check": {"choices": ("summary", "all"), "default": "summary"}, **_CONFIG,
    }, {"func": _cmd_run_example}),
}


def _reader_table(flags: dict, defaults: dict) -> tuple:
    """_read's table of a subcommand without a positional: each long flag's
    (dest, type, choices), the Namespace's fields before any flag is given,
    and the dests of the required flags."""
    dest = {name: name[2:].replace("-", "_") for name in flags}
    return ({name: (dest[name], kw.get("type", str), kw.get("choices")) for name, kw in flags.items()},
            {**defaults, **{dest[name]: kw.get("default") for name, kw in flags.items()}},
            {dest[name] for name, kw in flags.items() if kw.get("required")})


# subcommand -> _read's table; one with a positional is left to argparse
_READER = {command: _reader_table(flags, {"command": command, **defaults})
           for command, (_, flags, defaults) in _COMMANDS.items()
           if all(name.startswith("--") for name in flags)}


def _read(argv) -> Optional[argparse.Namespace]:
    """argparse's Namespace for an argv of the common form: a subcommand with no
    positional, then exact long flags, each once, as --flag=value or --flag value
    (a value not starting with "-"), all required ones given, each value passing
    its type and choices.  None for any other argv: argparse reads that one."""
    table = _READER.get(argv[0]) if argv else None
    if table is None:
        return None
    flags, fields, required = table
    given, tokens = {}, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")  # a missing value defers too
        dest, kind, choices = flags.get(name, (None, None, None))
        if dest is None or dest in given or not eq and value.startswith("-"):
            return None
        try:
            given[dest] = value = kind(value)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
    args = argparse.Namespace()
    vars(args).update(fields, **given)  # Namespace(**fields) would setattr each field
    return args if required <= given.keys() else None


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections raise UsageError, so that run reports
    them as JSON like every other error; --help still prints and exits."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built from _COMMANDS when _read first
    defers.  Parsing keeps no state in it: each parse returns a fresh Namespace,
    and usage, errors and --help look up the streams and terminal width to print."""
    parser = _Parser(prog="qcsol", description=(
        "Solution-set characterizations for quasiconvex programs"))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.set_defaults(**defaults)
    return parser


_encode = json.JSONEncoder(allow_nan=False).encode


def _dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, allow_nan=False) for string keys, each key and
    leaf as json's C encoder prints it (an indent makes json.dumps use Python's),
    except that a non-finite float prints as null."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{_encode(k)}: {_dumps(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + indent + "]"
    if isinstance(value, float):  # a finite one as both of json's encoders print it
        return float.__repr__(value) if math.isfinite(value) else "null"
    return _encode(value)


def run(argv: Optional[List[str]] = None) -> int:
    """Read argv (sys.argv[1:] if None), run its subcommand and print its report
    on stdout, or one JSON error object on stderr; returns the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read(argv) or _build_parser().parse_args(argv)
        report, positive = args.func(args)
        print(_dumps(report), flush=True)
        return EXIT_OK if positive else EXIT_NEGATIVE
    except SystemExit:  # --help, printed by argparse
        return EXIT_OK
    except BrokenPipeError:  # stdout is closed: later writes to it go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except UsageError as exc:
        error, message, code = "usage", str(exc), EXIT_USAGE
    except InputError as exc:
        error, message, code = "input", str(exc), EXIT_USAGE
    except QcsolError as exc:
        error, message, code = type(exc).__name__, str(exc), EXIT_NUMERIC
    print(json.dumps({"error": error, "message": message}), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())
