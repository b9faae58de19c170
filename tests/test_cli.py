"""Command line interface: exit codes and JSON reports."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcsol
from qcsol import cli
from qcsol.cli import run
from qcsol.problemfile import dumps
from qcsol.registry import get_example


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


@pytest.mark.parametrize("flag,value", [("--pairs", "-3"), ("--t-steps", "-2")])
def test_negative_sampler_size_is_a_usage_error(capsys, flag, value):
    code = run(["check-convexity", "--example", "ex2_3", "--pairs", "5", flag, value])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "usage", "message": f"{flag} must be a nonnegative integer"
    }


def test_oversized_grid_is_an_input_error(capsys):
    # 100000^2 nodes would need a 74.5 GiB array
    assert run(["oracle", "--example", "ex2_1", "--resolution", "100000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "input"
    assert "exceeds the limit" in captured.err


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
