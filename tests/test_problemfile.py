"""JSON problem file serialization."""

import json

import pytest

from qcsol.core import ConstrainedProblem, Problem
from qcsol.errors import ProblemFormatError
from qcsol.problemfile import dumps, load_problem, loads
from qcsol.registry import builtin_examples, get_example


@pytest.mark.parametrize("name", sorted(builtin_examples()))
def test_round_trip_all_builtins(name):
    e = get_example(name)
    text = dumps(e.problem, known_solution=e.anchor)
    problem, known, _ = loads(text)
    assert problem == e.problem
    assert known == tuple(float(v) for v in e.anchor)


def test_canonical_text_is_stable():
    e = get_example("ex2_1")
    text = dumps(e.problem, known_solution=e.anchor)
    problem, known, _ = loads(text)
    assert dumps(problem, known_solution=known) == text


def test_unknown_top_level_key():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["solver"] = "foo"
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_unknown_config_key():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["config"] = {"eps_typo": 1e-8}
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_config_override_applies():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["config"] = {"eps_grad": 1e-6, "seed": 7}
    _, _, cfg = load_problem(doc)
    assert cfg.eps_grad == 1e-6 and cfg.seed == 7


@pytest.mark.parametrize(
    "config",
    [{"eps_grad": "big"}, {"eps_feas": True}, {"eps_dir": float("nan")},
     {"eps_act": None}, {"seed": 1.5}, {"seed": False}],
)
def test_bad_config_values_rejected(config):
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["config"] = config
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_constrained_shape():
    e = get_example("ex2_3_constrained")
    text = dumps(e.problem, known_solution=e.anchor)
    doc = json.loads(text)
    assert doc["feasible_set"] == []
    problem, _, _ = loads(text)
    assert isinstance(problem, ConstrainedProblem)


def test_constraints_with_feasible_set_rejected():
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    doc["feasible_set"] = [{"type": "halfspace", "a": [1.0, 0.0], "b": 5.0}]
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_known_solution_must_be_feasible():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["known_solution"] = [0.0, 0.0]
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_probe_rejects_apparently_empty_set():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc.pop("known_solution", None)
    doc["feasible_set"] = [{"type": "halfspace", "a": [1.0, 0.0], "b": -10.0}]
    with pytest.raises(ProblemFormatError):
        load_problem(doc)


def test_objective_text_is_parsed():
    e = get_example("ex2_1")
    problem, _, _ = loads(dumps(e.problem))
    assert isinstance(problem, Problem)
    assert problem.objective == e.problem.objective
