"""JSON problem file serialization."""

import json

import pytest

from qcsol import problemfile, sets
from qcsol.core import ConstrainedProblem, Problem
from qcsol.errors import ProblemFormatError
from qcsol.problemfile import dumps, load_problem, loads
from qcsol.registry import get_example
from test_registry import EXAMPLE_NAMES


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_round_trip_all_builtins(name):
    e = get_example(name)
    text = dumps(e.problem, known_solution=e.anchor)
    problem, known, _ = loads(text)
    assert problem == e.problem
    assert known == tuple(float(v) for v in e.anchor)


def test_the_largest_float_literal_round_trips_and_a_larger_one_is_refused():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["objective"] = "x2 / x1 + 1.7976931348623157e308*0"
    problem, _, _ = loads(json.dumps(doc))
    assert loads(dumps(problem))[0] == problem
    doc["objective"] = "x2 / x1 + 1e999*0"
    with pytest.raises(ProblemFormatError,
                       match=r"objective: number literal '1e999' overflows a float \(offset 10\)"):
        loads(json.dumps(doc))


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


@pytest.mark.parametrize("doc", [[], "ex2_1", None, 2])
def test_a_document_that_is_not_an_object_is_refused(doc):
    with pytest.raises(ProblemFormatError, match="problem document must be a JSON object"):
        load_problem(doc)


def test_dumped_config_overrides_load_back():
    e = get_example("ex2_1")
    text = dumps(e.problem, known_solution=e.anchor, config={"eps_grad": 1e-6, "seed": 7})
    assert json.loads(text)["config"] == {"eps_grad": 1e-6, "seed": 7}
    _, _, cfg = loads(text)
    assert cfg.eps_grad == 1e-6 and cfg.seed == 7


def test_config_override_applies():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["config"] = {"eps_grad": 1e-6, "seed": 7}
    _, _, cfg = load_problem(doc)
    assert cfg.eps_grad == 1e-6 and cfg.seed == 7


@pytest.mark.parametrize(
    "config",
    [{"eps_grad": "big"}, {"eps_feas": True}, {"eps_dir": float("nan")},
     {"eps_act": None}, {"seed": 1.5}, {"seed": False}, {"seed": -1},
     {"eps_act": -1e-9}],
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
    with pytest.raises(ProblemFormatError, match="appears empty"):
        load_problem(doc)
    # one feasible node of the probe grid is enough: (1, 0)
    doc["feasible_set"] = [
        {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0},
        {"type": "halfspace", "a": [0.0, 1.0], "b": 0.0},
    ]
    assert isinstance(load_problem(doc)[0], Problem)


def test_known_solution_is_probed_at_the_files_eps_feas():
    doc = {
        "dimension": 1,
        "objective": "x1",
        "feasible_set": [{"type": "box", "lo": [0.0], "hi": [1.0]}],
        "domain_window": {"lo": [-1.0], "hi": [2.0]},
        "known_solution": [-1e-7],
        "config": {"eps_feas": 1e-6},
    }
    problem, known, cfg = load_problem(doc)
    assert known == (-1e-7,) and cfg.eps_feas == 1e-6
    del doc["config"]
    with pytest.raises(ProblemFormatError, match="not in the feasible set"):
        load_problem(doc)


def test_objective_text_is_parsed():
    e = get_example("ex2_1")
    problem, _, _ = loads(dumps(e.problem))
    assert isinstance(problem, Problem)
    assert problem.objective == e.problem.objective


_BAD_NUMBERS = [float("nan"), float("inf"), float("-inf"), [1], "1", True, None,
                10 ** 400]


def _short(value):
    return repr(value)[:12]


def _bad_atoms():
    good = {
        "box": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]},
        "halfspace": {"a": [1.0, 0.0], "b": 5.0},
        "ball": {"center": [1.0, 1.0], "radius": 2.0},
        "linear_equality": {"a": [0.0, 1.0], "b": 0.0},
    }
    for kind, fields in good.items():
        for key, value in fields.items():
            for bad in _BAD_NUMBERS:
                entry = [bad, value[1]] if isinstance(value, list) else bad
                atom = {"type": kind, **fields, key: entry}
                yield pytest.param(atom, id=f"{kind}.{key}={_short(bad)}")


@pytest.mark.parametrize("atom", _bad_atoms())
def test_atom_numbers_must_be_finite_reals(atom):
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["feasible_set"] = [atom]
    with pytest.raises(ProblemFormatError, match="finite real"):
        load_problem(doc)


@pytest.mark.parametrize(
    "atom",
    [{"type": "box", "lo": [0.0, float("nan")], "hi": [2.0, 2.0]},
     {"type": "ball", "center": [0.0, 0.0], "radius": float("inf")}],
    ids=["box", "ball"],
)
def test_ground_set_numbers_must_be_finite_reals(atom):
    doc = json.loads(dumps(get_example("ex2_3_constrained").problem))
    doc["ground_set"] = [atom]
    with pytest.raises(ProblemFormatError, match="finite real"):
        load_problem(doc)


@pytest.mark.parametrize("bad", _BAD_NUMBERS, ids=_short)
@pytest.mark.parametrize("bound", ["lo", "hi"])
def test_window_numbers_must_be_finite_reals(bound, bad):
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["domain_window"][bound][1] = bad
    with pytest.raises(ProblemFormatError, match="finite real"):
        load_problem(doc)


@pytest.mark.parametrize("bad", _BAD_NUMBERS, ids=_short)
def test_known_solution_numbers_must_be_finite_reals(bad):
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["known_solution"] = [1.0, bad]
    with pytest.raises(ProblemFormatError, match="finite real"):
        load_problem(doc)


def test_integer_numbers_are_accepted():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["feasible_set"] = [{"type": "halfspace", "a": [-1, 1], "b": 0}]
    doc["domain_window"] = {"lo": [1, 0], "hi": [2, 2]}
    doc["known_solution"] = [1, 0]
    problem, known, _ = load_problem(doc)
    assert problem.feasible_set.atoms[0].b == 0.0
    assert isinstance(problem.feasible_set.atoms[0].b, float)
    assert known == (1.0, 0.0)


@pytest.mark.parametrize(
    "key,value,message",
    [("ground_set", 5, "ground_set must be a list"),
     ("constraints", [5], "constraints must be a nonempty list of strings")],
    ids=["ground-set-number", "constraint-number"],
)
def test_constrained_document_shapes_are_checked(key, value, message):
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    doc[key] = value
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(doc)


@pytest.mark.parametrize("dim", [10**400, 4000], ids=["huge", "large"])
def test_window_length_is_checked_before_the_objective_is_parsed(monkeypatch, dim):
    # a piecewise objective's guards are extracted at the claimed
    # dimension: at 10**400 that overflowed, at 4000 it took seconds
    parsed = []
    monkeypatch.setattr(problemfile, "parse", lambda *a: parsed.append(a))
    doc = {
        "dimension": dim,
        "objective": "pw[x1 <= 0: -x1; x1 >= 0: x1]",
        "feasible_set": [],
        "domain_window": {"lo": [-1.0], "hi": [1.0]},
    }
    with pytest.raises(ProblemFormatError, match=f"window.lo must have length {dim}"):
        load_problem(doc)
    assert parsed == []


def test_h_fd_is_an_unknown_config_key():
    doc = json.loads(dumps(get_example("ex2_1").problem))
    doc["config"] = {"h_fd": 1e-6}
    with pytest.raises(ProblemFormatError, match="unknown config keys: \\['h_fd'\\]"):
        load_problem(doc)



@pytest.mark.parametrize(
    "edit,field,message",
    [
        (lambda doc: doc.update(objective="x1 +"), "objective",
         "expected an operand, found 'end of input' (offset 4)"),
        (lambda doc: doc.update(constraints=["x1^2 + x2^2 - 2", "x1 <="]), "constraints[1]",
         "unexpected trailing input '<=' (offset 3)"),
        (lambda doc: doc.update(objective="(" * 150 + "x1" + ")" * 150), "objective",
         "expression nests deeper than 100 levels (offset 100)"),
    ],
    ids=["objective", "constraint", "depth"],
)
def test_parse_error_names_the_field(edit, field, message):
    e = get_example("ex2_3_constrained")
    doc = json.loads(dumps(e.problem, known_solution=e.anchor))
    edit(doc)
    with pytest.raises(ProblemFormatError) as info:
        load_problem(doc)
    assert str(info.value) == f"{field}: {message}"


def test_the_same_text_loads_to_the_same_objects(monkeypatch):
    e = get_example("ex2_3_constrained")
    text = dumps(e.problem, known_solution=e.anchor)
    first = loads(text)
    parsed = []
    monkeypatch.setattr(problemfile, "parse", lambda *a: parsed.append(a))
    assert loads(text) is first
    assert parsed == []
    # the record is keyed by the exact text: the same JSON, spaced
    # otherwise, is loaded again
    monkeypatch.undo()
    again = loads(text + "\n")
    assert again == first and again[0] is not first[0]


@pytest.mark.parametrize("text", [
    "{",
    json.dumps({"dimension": 1, "objective": "x1 +", "feasible_set": [],
                "domain_window": {"lo": [0.0], "hi": [1.0]}}),
], ids=["json", "objective"])
def test_a_bad_document_raises_the_same_error_twice(text):
    errors = []
    for _ in range(2):
        with pytest.raises(ProblemFormatError) as exc:
            loads(text)
        errors.append(str(exc.value))
    assert errors[0] == errors[1]
    assert not sets._KEPT
