"""Command line interface: exit codes and JSON reports."""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import qcsol
from qcsol import cli, sets
from qcsol.core import CharacVariant
from qcsol.cli import run
from qcsol.errors import InputError
from qcsol.oracle import brute_force_solutions
from qcsol.problemfile import dumps
from qcsol.registry import get_example
from test_kkt import _count_constraint_evaluations
from test_registry import EXAMPLE_NAMES


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_classify(capsys):
    assert run(["classify", "--example", "ex2_4", "--resolution", "17"]) == 0
    assert _json_out(capsys)["alternative"] == "II"


def test_enumerate(capsys):
    code = run([
        "enumerate", "--example", "ex2_2", "--variant", "SHAT1",
        "--resolution", "13",
    ])
    assert code == 0
    out = _json_out(capsys)
    assert len(out["points"]) == 13


def test_verify_membership_positive_and_negative(capsys):
    assert run([
        "verify-membership", "--example", "ex2_1", "--variant", "SHAT1",
        "--point", "1.5,0",
    ]) == 0
    assert _json_out(capsys)["member"] is True
    assert run([
        "verify-membership", "--example", "ex2_1", "--variant", "SHAT1",
        "--point", "1.5,1",
    ]) == 1
    assert _json_out(capsys)["member"] is False


def test_oracle_and_agreement(capsys):
    assert run(["oracle", "--example", "ex2_1", "--resolution", "9"]) == 0
    out = _json_out(capsys)
    assert out["min_value"] == pytest.approx(0.0, abs=1e-12)
    assert run([
        "agreement", "--example", "ex2_1", "--variant", "S1",
        "--resolution", "9",
    ]) == 0
    assert _json_out(capsys)["equal"] is True


def test_kkt_solve(capsys):
    assert run(["kkt-solve", "--example", "ex2_3_constrained"]) == 0
    out = _json_out(capsys)
    assert out["lambdas"] == pytest.approx([0.5])
    assert out["stationarity_residual"] <= 1e-9


def test_check_cq(capsys):
    assert run(["check-cq", "--example", "ex2_3_constrained"]) == 0
    assert _json_out(capsys)["holds"] is True


def test_subdiff_routes(capsys):
    assert run([
        "subdiff-check", "--example", "ex4_1", "--route", "ml",
        "--point", "0.5", "--resolution", "201",
    ]) == 0
    assert _json_out(capsys)["member"] is True
    assert run([
        "subdiff-check", "--example", "ex4_1", "--route", "ml",
        "--point", "1.5", "--resolution", "201",
    ]) == 1


@pytest.mark.parametrize("example, point", [("ex2_1", "3,0"), ("ex2_4", "-1,0")])
def test_subdiff_routes_refuse_a_point_outside_the_feasible_set(capsys, example, point):
    assert run(["subdiff-check", "--example", example, "--route", "gp", f"--point={point}"]) == 1
    assert _json_out(capsys)["member"] is False
    assert run(["verify-membership", "--example", example, "--variant", "T1",
                f"--point={point}"]) == 1
    assert _json_out(capsys)["residuals"]["in_feasible_set"] > 0.0


def test_run_example_all_checks(capsys):
    assert run(["run-example", "ex2_2", "--check", "all"]) == 0
    out = _json_out(capsys)
    assert out["example"] == "ex2_2"
    assert all(out["agreement"].values())


@pytest.mark.parametrize("variant", ["SP1", "SHATP1", "SHATPP1"])
def test_kkt_enumerate(capsys, variant):
    assert run([
        "kkt-enumerate", "--example", "ex2_3_constrained", "--variant", variant,
        "--resolution", "61",
    ]) == 0
    out = _json_out(capsys)
    assert out["points"] == [[1.0, 1.0]]
    assert out["lambdas"] == [0.5]


def test_infeasible_anchor_prints_plain_floats(capsys):
    # each multiplier command checks the anchor before it solves for a
    # multiplier there
    for argv in (
        ["kkt-solve"], ["check-cq"], ["kkt-enumerate", "--variant", "SP1"],
    ):
        assert run([
            *argv, "--example", "ex2_3_constrained", "--anchor", "1.1,1.1",
        ]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "HypothesisViolatedError", "message": "anchor (1.1, 1.1) is not feasible",
        }


def test_anchor_outside_the_oracle_set_is_a_hypothesis_error(capsys):
    assert run([
        "agreement", "--example", "ex2_1", "--variant", "S1", "--anchor", "2,2",
        "--resolution", "5",
    ]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "HypothesisViolatedError",
        "message": "anchor (2.0, 2.0) is not in the oracle solution set",
    }


def test_run_example_constrained(capsys):
    assert run(["run-example", "ex2_3_constrained"]) == 0
    out = _json_out(capsys)
    assert out["solutions_in_X1"] is True
    assert out["lagrangian_constant"] is True


def test_run_example_summary(capsys):
    assert run(["run-example", "ex2_1"]) == 0
    out = _json_out(capsys)
    assert out["alternative"] == "I"
    assert "agreement" not in out


def test_problem_file_input(tmp_path, capsys):
    e = get_example("ex2_1")
    path = tmp_path / "problem.json"
    path.write_text(dumps(e.problem, known_solution=e.anchor))
    assert run(["classify", "--problem", str(path), "--resolution", "9"]) == 0
    assert _json_out(capsys)["alternative"] == "I"


def test_usage_errors(capsys):
    assert run(["classify"]) == 2                      # no problem source
    capsys.readouterr()
    assert run(["no-such-command"]) == 2               # unknown subcommand
    capsys.readouterr()
    assert run(["enumerate", "--example", "ex2_1", "--variant", "NOPE"]) == 2
    capsys.readouterr()
    assert run(["classify", "--example", "nope"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["oracle", "--example", "ex2_1", "--resolution", "x"],
         "argument --resolution: invalid int value: 'x'"),
        (["oracle", "--example", "ex2_1", "--nope"], "unrecognized arguments: --nope"),
        (["enumerate", "--example", "ex2_1"], "the following arguments are required: --variant"),
        ([], "the following arguments are required: command"),
    ],
    ids=["non-integer", "unknown-flag", "missing-required", "no-subcommand"],
)
def test_argparse_rejection_is_one_json_usage_error(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "usage", "message": message}


def test_help_still_prints_usage_and_exits_0(capsys):
    assert run(["oracle", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: qcsol oracle ") and captured.err == ""


def test_numeric_error_exit_code(capsys):
    # SHAT1 needs a nonzero anchor gradient; ex2_4's vanishes
    code = run([
        "enumerate", "--example", "ex2_4", "--variant", "SHAT1",
        "--resolution", "5",
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert "HypothesisViolatedError" in err


def test_config_file_env(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 11}))
    monkeypatch.setenv("QCX_CONFIG", str(cfg_path))
    assert run(["classify", "--example", "ex2_1", "--resolution", "9"]) == 0


# a piecewise objective's guards were extracted at the claimed dimension
_HUGE_DIMENSION = {
    "dimension": 10**400,
    "objective": "pw[x1 <= 0: -x1; x1 >= 0: x1]",
    "feasible_set": [],
    "domain_window": {"lo": [-1.0], "hi": [1.0]},
}


def _write_problem(tmp_path, window, config=None, name="problem.json"):
    doc = {
        "dimension": 1,
        "objective": "x1^2",
        "feasible_set": [],
        "domain_window": {"lo": [-window], "hi": [window]},
        "known_solution": [0.0],
    }
    if config is not None:
        doc["config"] = config
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_problem_file_config_precedence(tmp_path, capsys, monkeypatch):
    def stilde(*extra):
        code = run(["enumerate", "--problem", path, "--variant", "STILDE",
                    "--resolution", "5", *extra])
        return code, _json_out(capsys)["points"]

    path = _write_problem(tmp_path, 1.0)
    assert stilde() == (0, [[0.0]])
    path = _write_problem(tmp_path, 1.0, {"eps_grad": 100})
    assert stilde() == (0, [[-1.0], [-0.5], [0.0], [0.5], [1.0]])
    env = tmp_path / "env.json"
    env.write_text(json.dumps({"eps_grad": 1e-8}))
    monkeypatch.setenv("QCX_CONFIG", str(env))
    assert stilde() == (0, [[0.0]])                      # environment over file
    assert stilde("--eps-grad", "100")[1] == [[-1.0], [-0.5], [0.0], [0.5], [1.0]]


def test_bad_config_value_is_a_usage_error(tmp_path, capsys):
    path = _write_problem(tmp_path, 1.0, {"eps_grad": "big"})
    assert run(["enumerate", "--problem", path, "--variant", "STILDE"]) == 2
    assert "eps_grad" in capsys.readouterr().err


def test_overflow_is_a_numeric_error(tmp_path, capsys):
    path = _write_problem(tmp_path, 1e200)
    assert run(["oracle", "--problem", path, "--resolution", "5"]) == 3
    err = capsys.readouterr().err
    assert "EvalError" in err and "Traceback" not in err


def test_a_negative_ball_radius_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "ball.json"
    path.write_text(json.dumps({
        "dimension": 2, "objective": "x1", "known_solution": [0.0, 0.0],
        "feasible_set": [{"type": "ball", "center": [0.0, 0.0], "radius": -1.0}],
        "domain_window": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    }))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "input", "message": "ball radius must be >= 0, got -1.0"}


def test_overflowing_gradient_point_is_a_numeric_error(tmp_path, capsys):
    # x1 * x1 overflows at 1e200 while its derivative 2e200 does not
    path = tmp_path / "product.json"
    path.write_text(json.dumps({
        "dimension": 1, "objective": "x1 * x1", "feasible_set": [],
        "domain_window": {"lo": [-1.0], "hi": [1.0]}, "known_solution": [0.0],
    }))
    code = run(["verify-membership", "--problem", str(path), "--variant", "T1",
                "--point", "1e200"])
    assert code == 3
    captured = capsys.readouterr()
    assert "EvalError" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_window_is_a_check_convexity_option_only(capsys):
    assert run(["oracle", "--example", "ex2_1", "--window", "0,1,0,1"]) == 2
    capsys.readouterr()
    code = run(["check-convexity", "--example", "ex2_2", "--window=-1,1,-1,1",
                "--pairs", "20", "--t-steps", "3"])
    assert code == 0
    assert _json_out(capsys)["quasiconvex"]["checked_pairs"] == 20


def test_infinite_window_is_a_usage_error(capsys):
    code = run(["check-convexity", "--example", "ex2_2", "--window=-inf,inf,-1,1",
                "--pairs", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "usage"
    assert "Traceback" not in captured.err


def test_a_window_whose_width_overflows_is_an_input_error(capsys):
    # the sampler once left with a traceback and exit code 1
    code = run(["check-convexity", "--example", "ex2_2", "--window=-1e308,1e308,-1,1",
                "--pairs", "5"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "message": (
        "window Box(lo=(-1e+308, -1.0), hi=(1e+308, 1.0)) needs a finite width on every axis")}


@pytest.mark.parametrize("argv", [
    ["oracle", "--resolution", "5"],
    ["enumerate", "--variant", "STILDE", "--resolution", "5"],
    ["subdiff-check", "--route", "ml", "--point=0.5"],
], ids=["oracle", "enumerate", "subdiff-check"])
def test_a_problem_window_whose_width_overflows_is_an_input_error(tmp_path, capsys, argv):
    # the grid's nodes were once NaN, and the run ended with exit code 3
    path = _write_problem(tmp_path, 1e308)
    assert run([argv[0], "--problem", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "message": (
        "a grid needs a finite window, got Box(lo=(-1e+308,), hi=(1e+308,))")}


@pytest.mark.parametrize("flag,value", [("--pairs", "-3"), ("--t-steps", "-2")])
def test_negative_sampler_size_is_a_usage_error(capsys, flag, value):
    code = run(["check-convexity", "--example", "ex2_3", "--pairs", "5", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "usage", "message": f"{flag} must be a nonnegative integer"
    }


@pytest.mark.parametrize("fault", [ValueError("internal"), KeyError("internal"),
                                   OSError("internal")])
def test_a_fault_inside_qcsol_is_not_an_input_error(monkeypatch, fault):
    # only InputError (and an unreadable --problem or QCX_CONFIG file) is
    # bad input; any other ValueError, KeyError or OSError is a bug and
    # leaves as a traceback
    def fail(*args, **kwargs):
        raise fault

    monkeypatch.setattr(cli.oracle, "brute_force_solutions", fail)
    with pytest.raises(type(fault)):
        run(["oracle", "--example", "ex2_1", "--resolution", "5"])


def test_an_input_error_from_inside_qcsol_is_reported_as_input(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise InputError("refused")

    monkeypatch.setattr(cli.oracle, "brute_force_solutions", refuse)
    assert run(["oracle", "--example", "ex2_1", "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "message": "refused"}


def test_oversized_grid_is_an_input_error(capsys):
    # 100000^2 nodes would need a 74.5 GiB array
    assert run(["oracle", "--example", "ex2_1", "--resolution", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"
    assert "exceeds the limit" in captured.err


def test_huge_dimension_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_HUGE_DIMENSION))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "input", "message": f"window.lo must have length {10**400}",
    }


def test_boolean_dimension_is_an_input_error(tmp_path, capsys):
    doc = json.loads(Path(_write_problem(tmp_path, 1.0)).read_text())
    doc["dimension"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"
    assert "dimension" in captured.err


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_residual_is_printed_as_null(capsys):
    # the collinearity gap of a point with a non-collinear gradient is inf
    code = run(["verify-membership", "--example", "ex2_1", "--variant", "THAT1",
                "--point", "1.5,1.0"])
    assert code == 1
    out = _strict_json(capsys.readouterr().out)
    assert out["member"] is False
    assert out["residuals"]["collinearity_gap"] is None


def test_classify_needs_no_anchor(tmp_path, capsys):
    doc = json.loads(dumps(get_example("ex2_1").problem))
    assert "known_solution" not in doc
    path = tmp_path / "no_anchor.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--problem", str(path), "--resolution", "9"]) == 0
    assert _json_out(capsys)["alternative"] == "I"
    assert run(["classify", "--example", "ex2_1", "--anchor", "1,0"]) == 2
    assert "unrecognized arguments: --anchor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["feasible_set"][1].update(b=[1]),
        lambda doc: doc["domain_window"]["lo"].__setitem__(0, float("nan")),
    ],
    ids=["list-halfspace-b", "nan-window"],
)
def test_bad_number_in_problem_file_is_an_input_error(tmp_path, capsys, edit):
    e = get_example("ex2_1")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(ground_set=5),
        lambda doc: doc.update(constraints=[5]),
    ],
    ids=["number-ground-set", "number-constraint"],
)
def test_malformed_constrained_document_is_an_input_error(tmp_path, capsys, edit):
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    edit(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


@pytest.mark.parametrize("field,text", [("objective", "x1 +"), ("constraints", ["x1 <="]),
                                        ("objective", "x\u00b2 + x1"),
                                        ("constraints", ["x1 + \u0663"])])
def test_unparsable_expression_in_problem_file_is_an_input_error(tmp_path, capsys, field, text):
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    doc[field] = text
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and err["message"].startswith(field)
    assert "(offset " in err["message"]


@pytest.mark.parametrize("field,text", [("objective", "x1^" + "9" * 5000),
                                        ("constraints", ["x" + "1" * 5000])],
                         ids=["long-exponent", "long-variable-index"])
def test_an_overlong_integer_in_a_problem_file_is_an_input_error(tmp_path, capsys, field, text):
    # more digits than Python converts to an int, once a bare ValueError
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    doc[field] = text
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input"
    assert err["message"].startswith(field) and "integer of 5000 digits is too long" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point", "1,2,3"],
        ["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point", "1.5,0",
         "--anchor", "1,0,0"],
        ["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point", "1.5,x"],
        ["subdiff-check", "--example", "ex2_4", "--route", "gp", "--point", "0"],
        ["subdiff-check", "--example", "ex2_4", "--route", "gp", "--point", "nan,0"],
        ["agreement", "--example", "ex2_1", "--variant", "S1", "--anchor", "1"],
        ["check-cq", "--example", "ex2_3_constrained", "--anchor", "1,1,1"],
        ["check-convexity", "--example", "ex2_2", "--window=-1,1,-1"],
        ["agreement", "--example", "ex2_1", "--variant", "S1", "--anchor="],
        ["check-convexity", "--example", "ex2_2", "--window="],
    ],
    ids=["point-count", "anchor-count", "point-text", "subdiff-point-count",
         "subdiff-point-nan", "agreement-anchor", "cq-anchor", "window-count",
         "empty-anchor", "empty-window"],
)
def test_wrong_coordinates_are_a_usage_error(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "usage" and "comma-separated finite reals" in err["message"]


@pytest.mark.parametrize("argv", [["run-example", "nope"], ["classify", "--example", "nope"]])
def test_unknown_example_message_is_plain_text(capsys, argv):
    assert run(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "usage"
    assert err["message"].startswith("unknown example 'nope'; available: ex2_1, ")


@pytest.mark.parametrize("flags,error,message", [
    (["--example=", "--problem", "p.json"], "usage", "unknown example ''; available: ex2_1, "),
    (["--example=", "--resolution=5"], "usage", "unknown example ''; available: ex2_1, "),
    (["--problem=", "--resolution=5"], "input", "[Errno 2] No such file or directory: ''"),
], ids=["example-with-problem", "example", "problem"])
def test_an_empty_example_or_problem_is_refused_as_given(capsys, flags, error, message):
    assert run(["oracle", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == error and err["message"].startswith(message)


def test_a_non_ascii_digit_is_an_input_error_in_a_fresh_process(tmp_path):
    path = Path(_write_problem(tmp_path, 1.0))
    path.write_text(json.dumps(dict(json.loads(path.read_text()), objective="x\u00b2 + x1")))
    src = str(Path(qcsol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "qcsol", "oracle", "--problem", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    err = json.loads(done.stderr)
    assert err["error"] == "input"
    assert err["message"] == "objective: unexpected character '\u00b2' (offset 1)"


def test_a_closed_stdout_prints_no_error():
    """A reader that closed the pipe before the report was written is no
    input error: the run prints nothing and exits with the SIGPIPE code."""
    env = {**os.environ, "PYTHONPATH": str(Path(qcsol.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "qcsol", "enumerate", "--example", "ex2_1", "--variant", "S1"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (cli.EXIT_CLOSED_STDOUT, b"")


def test_an_overflowing_literal_in_a_problem_file_is_an_input_error(tmp_path, capsys):
    path = Path(_write_problem(tmp_path, 1.0))
    path.write_text(json.dumps(dict(json.loads(path.read_text()), objective="x1^2 + 1e999*0")))
    assert run(["oracle", "--problem", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input"
    assert err["message"] == "objective: number literal '1e999' overflows a float (offset 7)"


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_run_example_builds_one_grid(grid_work, capsys, name):
    e = get_example(name)
    assert run(["run-example", name, "--check", "all"]) == 0
    assert grid_work["grids"] == [e.resolution]
    # a plain example takes the dichotomy's batch at the oracle's k
    # solutions, then one batch at all N rows for the agreements; the
    # constrained one takes none
    res = brute_force_solutions(e.problem, e.resolution)
    k, N = len(res.solution_points), res.grid_size
    plain = name != "ex2_3_constrained"
    assert grid_work["gradients"] == ([k, N] if plain else [])
    # warm: the same run, and an enumeration at the same resolution, build
    # no grid; the run reads the kept dichotomy and takes no batch, and the
    # enumeration reads the kept all-rows batch, or takes it
    assert run(["run-example", name, "--check", "all"]) == 0
    enumerate_argv = (
        ["enumerate", "--example", name, "--variant", "STILDE"]
        if plain
        else ["kkt-enumerate", "--example", name, "--variant", "SP1"]
    )
    run(enumerate_argv + ["--resolution", str(e.resolution)])
    assert grid_work["grids"] == [e.resolution]
    assert grid_work["gradients"] == ([k, N] if plain else [N])


def test_deeply_nested_problem_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_deeply_nested_config_file_is_an_input_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    monkeypatch.setenv("QCX_CONFIG", str(path))
    assert run(["classify", "--example", "ex2_1", "--resolution", "5"]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "input"


def test_unreadable_problem_path_is_an_input_error(tmp_path, capsys):
    assert run(["oracle", "--problem", str(tmp_path), "--resolution", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


def test_unreadable_config_path_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QCX_CONFIG", str(tmp_path / "missing.json"))
    assert run(["run-example", "ex2_4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"


def _parser_argvs(tmp_path):
    """Every README command at low resolution, both problem sources, a
    usage error, --help and a numeric error, alternating kinds."""
    files = {}
    for name in ("ex2_1", "ex2_3_constrained"):
        e = get_example(name)
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(dumps(e.problem, known_solution=e.anchor))
    return [
        ["run-example", "ex2_2", "--check", "all"],
        ["enumerate", "--example", "ex2_1"],                 # argparse error
        ["classify", "--example", "ex2_4", "--resolution", "5"],
        ["--help"],
        ["enumerate", "--example", "ex2_2", "--variant", "SHAT1", "--resolution", "5"],
        ["classify"],                                        # no problem source
        ["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point", "1.5,0"],
        ["verify-membership", "--problem", str(files["ex2_1"]), "--variant", "THAT1",
         "--point", "1.5,1.0"],
        ["verify-membership", "--help"],
        ["oracle", "--example", "ex4_1", "--resolution", "11"],
        ["enumerate", "--example", "ex2_4", "--variant", "SHAT1", "--resolution", "5"],
        ["agreement", "--example", "ex2_1", "--variant", "SHAT2", "--resolution", "5"],
        ["kkt-solve", "--example", "ex2_3_constrained"],
        ["no-such-command"],
        ["kkt-solve", "--problem", str(files["ex2_3_constrained"])],
        ["check-cq", "--example", "ex2_3_constrained"],
        ["subdiff-check", "--example", "ex4_1", "--route", "ml", "--point", "0.5",
         "--resolution", "21"],
        ["oracle", "--example", "ex2_1", "--resolution", "x"],
        ["check-convexity", "--example", "ex2_3", "--pairs", "20", "--t-steps", "3"],
    ]


def _outputs(argvs, capsys):
    results = []
    for argv in argvs:
        code = run(list(argv))
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_shared_parser_output_equals_a_fresh_parser(tmp_path, capsys, monkeypatch):
    # if no earlier test built the shared parser, build it under other
    # streams and another terminal width than the runs below use
    monkeypatch.setenv("COLUMNS", "200")
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli._build_parser()
    monkeypatch.setenv("COLUMNS", "60")
    argvs = _parser_argvs(tmp_path)
    shared = _outputs(argvs + argvs, capsys)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = _outputs(argvs, capsys)
    assert shared == fresh + fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2, 3}
    assert all(out or err for _, out, err in fresh)


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_import_builds_neither_the_parser_nor_the_examples():
    src = str(Path(qcsol.__file__).resolve().parents[1])
    code = (
        "import qcsol.cli, qcsol.registry as r; "
        "print(qcsol.cli._build_parser.cache_info().currsize, "
        "r._table.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["0", "0"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["run-example", "ex2_4", "--eps-grad", "nan"],
         "config eps_grad must be a nonnegative finite real, got nan"),
        (["verify-membership", "--example", "ex2_1", "--variant", "S1", "--point=1.5,0.5",
          "--eps-feas", "inf"], "config eps_feas must be a nonnegative finite real, got inf"),
        (["run-example", "ex2_4", "--eps-grad=-1"],
         "config eps_grad must be a nonnegative finite real, got -1.0"),
        (["check-convexity", "--example", "ex2_2", "--pairs", "5", "--seed", "-1"],
         "config seed must be a nonnegative integer, got -1"),
    ],
    ids=["nan-eps-grad", "inf-eps-feas", "negative-eps-grad", "negative-seed"],
)
def test_config_flags_are_validated_like_file_values(capsys, argv, message):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "input", "message": message}


def test_kkt_solve_checks_the_anchor_once(monkeypatch, capsys):
    points = _count_constraint_evaluations(monkeypatch)
    assert run(["kkt-solve", "--example", "ex2_3_constrained"]) == 0
    assert points == [tuple(get_example("ex2_3_constrained").anchor)]


def test_oversized_ml_grid_is_an_input_error(capsys):
    assert run(["subdiff-check", "--example", "ex4_1", "--route", "ml", "--point=0.5",
                "--resolution", str(sets.MAX_GRID_NODES + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "input" and "exceeds the limit" in err["message"]


def test_degenerate_window_is_an_input_error(capsys):
    assert run(["check-convexity", "--example", "ex4_1", "--window=2,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "input",
        "message": "window Box(lo=(2.0,), hi=(2.0,)) is narrower than 2 * delta_open = 2e-09",
    }


# ---------------------------------------------------------------------------
# Fuzzing: argv lists built from the parser's own subcommands and flags,
# and problem and config documents built from the builtin examples
# ---------------------------------------------------------------------------

_COORDINATES = ["0.5", "1.5,0", "0,-1", "-1,1", "1,1", "2,2", "1.1,1.1", "0,1,0,1",
                "2,2,2,2", "nan,0", "inf", "1,2,3", "", "x"]


def _values(action):
    """A small adversarial pool of values that argparse accepts for action."""
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.sampled_from([str(k) for k in range(-2, 10)])
    if action.type is float:
        return st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-12", "0.5", "100"])
    if action.dest in ("example", "name"):
        return st.sampled_from([*EXAMPLE_NAMES, "nope"])
    if action.dest == "variant":
        return st.sampled_from([*(v.value for v in CharacVariant), "nope", ""])
    return st.sampled_from(_COORDINATES)


def _subcommands():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    # --problem needs a file; every draw reads a builtin example instead
    return [(name, [a for a in p._actions
                    if not isinstance(a, argparse._HelpAction) and a.dest != "problem"])
            for name, p in sorted(sub.choices.items())]


# the argv faults that argparse itself rejects
_FAULTS = ("non-integer", "unknown-flag", "missing-required", "no-subcommand")


@st.composite
def _argvs(draw):
    """An argv list and whether argparse must reject it: one fault of
    _FAULTS, or none, in which case every value is one argparse accepts."""
    name, actions = draw(st.sampled_from(_subcommands()))
    fault = draw(st.sampled_from([None, None, None, *_FAULTS]))
    if fault == "missing-required" and not any(a.required and a.option_strings for a in actions):
        fault = None
    argv = [] if fault == "no-subcommand" else [name]
    for action in actions:
        if not action.option_strings:
            argv.append(draw(_values(action)))
        elif action.required and fault == "missing-required":
            continue
        elif action.required or action.dest == "example" or draw(st.integers(0, 3)) == 0:
            # --flag=value, so that a value such as -inf is not read as a flag
            argv.append(f"{action.option_strings[0]}={draw(_values(action))}")
    if fault == "non-integer":
        flag = draw(st.sampled_from([a.option_strings[0] for a in actions if a.type is int]))
        argv.append(f"{flag}={draw(st.sampled_from(['x', '1.5', '']))}")
    if fault == "unknown-flag":
        argv.insert(draw(st.integers(1, len(argv))), "--nope")
    return argv, fault is not None


def _run_captured(argv):
    """run(argv) with its streams captured; asserts that it ends in an
    exit code of 0-3 and either one strict-JSON report on stdout or one
    {"error", "message"} object on stderr, and returns (code, error)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2, 3)
    assert bool(out.getvalue()) != bool(err.getvalue())
    if out.getvalue():
        _strict_json(out.getvalue())
        return code, None
    report = json.loads(err.getvalue())
    assert set(report) == {"error", "message"}
    return code, report["error"]


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_fuzzed_argv_ends_in_a_report_or_a_json_error(case):
    argv, rejected = case
    code, error = _run_captured(argv)
    if rejected:
        assert (code, error) == (2, "usage")


# tokens that take an argv out of the reader's common form: an unknown or
# abbreviated flag, -h, --, a repeated flag, a separate value that starts
# with "-", a value that fails its type, an empty token, run-example's
# positional's name
_ODD_TOKENS = [["--var"], ["-h"], ["--"], ["--seed=1", "--seed", "2"], ["--point", "-1,2"],
               ["--seed="], ["--point=-1,2"], [""], ["name"]]


@st.composite
def _reader_argvs(draw):
    """An argv of _argvs, each --flag=value token kept, split in two or
    given the value "x", with up to two groups of _ODD_TOKENS inserted."""
    argv = []
    for token in draw(_argvs())[0]:
        flag, eq, value = token.partition("=")
        form = draw(st.sampled_from(["keep", "keep", "split", "x"])) if eq else "keep"
        argv += {"keep": [token], "split": [flag, value], "x": [flag + "=x"]}[form]
    for tokens in draw(st.lists(st.sampled_from(_ODD_TOKENS), max_size=2)):
        i = draw(st.integers(0, len(argv)))
        argv[i:i] = tokens
    return argv


def _read_as_argparse(argv):
    """Whether cli._read reads argv; when it does, its Namespace is the one
    argparse gives (compared by repr, as a nan flag is unequal to itself)."""
    args = cli._read(argv)
    if args is not None:
        fields = sorted(map(repr, vars(args).items()))
        assert fields == sorted(map(repr, vars(cli._build_parser().parse_args(argv)).items()))
    return args is not None


@settings(max_examples=500, deadline=None)
@given(_reader_argvs())
@example(["run-example", "name", "ex2_1"])
def test_the_reader_defers_or_gives_argparses_namespace(argv):
    event("read" if _read_as_argparse(argv) else "deferred")


def test_a_common_form_run_builds_no_parser(monkeypatch, capsys):
    # run() reads sys.argv[1:], the qcsol entry point's argv
    monkeypatch.setattr(sys, "argv", ["qcsol", "verify-membership", "--example", "ex2_1",
                                      "--variant", "S1", "--point", "1.5,0", "--seed=3"])
    monkeypatch.setattr(cli, "_build_parser", None)
    assert run() == 0
    assert _json_out(capsys)["member"] is True


_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -(2**64)])
    | st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e308])
    | st.text()
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_the_printer_prints_the_bytes_of_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, allow_nan=False)


@pytest.mark.parametrize("value,printed", [
    (float("nan"), None), (float("inf"), None), ((0.5, -float("inf")), [0.5, None]),
    ({"a": {"b": float("nan")}, "c": ()}, {"a": {"b": None}, "c": []}),
], ids=["nan", "inf", "tuple", "nested"])
def test_the_printer_prints_a_non_finite_float_as_null(value, printed):
    assert cli._dumps(value) == json.dumps(printed, indent=2, allow_nan=False)


_POOL = [None, True, 0, -1, 2, 10**400, 1.5, 1e308, float("inf"), float("nan"), "", "x1",
         "x1 +", "x\u00b2 + x1", "x1 + \u0663", "x1^2 + x2^2",
         "pw[x1 <= 0: -x1; x1 >= 0: x1]", [], [0.5], [0.0, 0.0],
         ["x1^2 + x2^2 - 2"], {}, {"lo": [0], "hi": [1]}, {"eps_grad": 100},
         [{"type": "box", "lo": [0], "hi": [1]}],
         [{"type": "halfspace", "a": [1.0, 1.0], "b": 1.0}]]
_FIELDS = ["dimension", "objective", "feasible_set", "domain_window", "known_solution",
           "constraints", "ground_set", "config", "solver"]
_CONFIG_KEYS = ["seed", "eps_grad", "eps_opt", "eps_feas", "eps_lp", "delta_open", "typo"]


@st.composite
def _documents(draw):
    """A builtin example's problem document with one or two top-level
    fields replaced from _POOL or dropped, and a QCX_CONFIG document (or
    None)."""
    e = get_example(draw(st.sampled_from(EXAMPLE_NAMES)))
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from(_FIELDS))
        if draw(st.booleans()):
            doc.pop(field, None)
        else:
            doc[field] = draw(st.sampled_from(_POOL))
    config = None
    if draw(st.integers(0, 3)) == 0:
        config = draw(st.sampled_from(_POOL) | st.dictionaries(
            st.sampled_from(_CONFIG_KEYS), st.sampled_from(_POOL), max_size=2))
    return doc, config


def _document_argvs(path, doc):
    """Every subcommand that reads --problem, at resolution 5 or less."""
    dim = doc.get("dimension")
    point = "--point=" + ",".join(["0.5"] * (dim if dim in (1, 2) else 1))
    low = "--resolution=5"
    return [[*argv, "--problem", path] for argv in (
        ["classify", low], ["oracle", low], ["enumerate", "--variant=S1", low],
        ["kkt-enumerate", "--variant=SP1", low], ["agreement", "--variant=STILDE", low],
        ["verify-membership", "--variant=S1", point], ["kkt-solve"], ["check-cq"],
        ["subdiff-check", "--route=gp", point, low],
        ["check-convexity", "--pairs=5", "--t-steps=2"],
    )]


def test_document_fuzz_runs_every_problem_subcommand():
    argvs = _document_argvs("p.json", {"dimension": 2})
    assert {a[0] for a in argvs} == {name for name, _ in _subcommands()} - {"run-example"}


@settings(max_examples=120, deadline=None)
@given(_documents())
@example((_HUGE_DIMENSION, None))
def test_fuzzed_problem_document_ends_in_a_report_or_a_json_error(tmp_path_factory, case):
    doc, config = case
    folder = tmp_path_factory.mktemp("doc")
    path, config_path = folder / "problem.json", folder / "config.json"
    path.write_text(json.dumps(doc))
    config_path.write_text(json.dumps(config))
    env = {"QCX_CONFIG": str(config_path)} if config is not None else {}
    with mock.patch.dict(os.environ, env):
        for argv in _document_argvs(str(path), doc):
            _run_captured(argv)


def test_a_rewritten_problem_file_gives_the_new_answer(tmp_path, capsys):
    path = Path(_write_problem(tmp_path, 1.0))
    doc = json.loads(path.read_text())
    answers = []
    for objective in ("x1^2", "(x1 - 1)^2", "x1^2"):
        path.write_text(json.dumps(dict(doc, objective=objective)))
        assert run(["oracle", "--problem", str(path), "--resolution", "5"]) == 0
        answers.append(_json_out(capsys)["solution_points"])
    assert answers == [[[0.0]], [[1.0]], [[0.0]]]


def test_a_warm_gp_subdiff_check_builds_no_grid(grid_work, tmp_path, capsys):
    e = get_example("ex2_4")
    path = tmp_path / "quadrant.json"
    path.write_text(dumps(e.problem, known_solution=e.anchor))
    nodes = sets.grid_nodes(e.problem.domain_window, e.resolution).tolist()
    grid_work["grids"].clear()

    def check(x):
        argv = ["subdiff-check", "--problem", str(path), "--route", "gp",
                "--point=" + ",".join(map(repr, x))]
        return run(argv), capsys.readouterr()

    cold = []
    for x in nodes:
        sets._KEPT.clear()
        cold.append(check(x))
    # a node outside the feasible set is refused before any grid is built
    feasible = [sets.contains(e.problem.feasible_set, x) for x in nodes]
    assert grid_work["grids"] == [21] * sum(feasible) and not all(feasible)
    assert [check(x) for x in nodes] == cold
    assert grid_work["grids"] == [21] * sum(feasible)
    assert {code for code, _ in cold} == {0, 1}
