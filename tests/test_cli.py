"""Command line interface: exit codes and JSON reports."""

import json

import pytest

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
