"""Golden file for the builtin examples and the problem file's atom messages.

tests/data/golden.json holds, for each builtin example, the repr of its
ExampleEntry and the ``problemfile.dumps`` text of its problem and
anchor; and, for each malformed atom of MALFORMED_ATOMS, the message of
the ProblemFormatError that loading it raises.  The tests compare both
with the file.

Regenerate the file after an intended change with

    PYTHONPATH=src python tests/test_golden.py

and name the entries that changed in the change's notes.
"""

import json
from pathlib import Path

import pytest

from qcsol.errors import ProblemFormatError
from qcsol.problemfile import dumps, load_problem
from qcsol.registry import get_example
from test_registry import EXAMPLE_NAMES

GOLDEN = Path(__file__).parent / "data" / "golden.json"

_GOOD_ATOMS = {
    "box": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]},
    "halfspace": {"a": [1.0, 0.0], "b": 5.0},
    "ball": {"center": [1.0, 1.0], "radius": 2.0},
    "linear_equality": {"a": [0.0, 1.0], "b": 0.0},
}


def _malformed_atoms():
    """(id, atom): per kind, each key missing, an extra key and each field
    of the wrong shape; then the atoms with no usable type."""
    for kind, fields in _GOOD_ATOMS.items():
        for key in fields:
            rest = {k: v for k, v in fields.items() if k != key}
            yield f"{kind}-without-{key}", {"type": kind, **rest}
            yield f"{kind}-{key}-as-text", {"type": kind, **fields, key: "1"}
        yield f"{kind}-with-extra-key", {"type": kind, **fields, "c": 1.0}
        vector = next(k for k, v in fields.items() if isinstance(v, list))
        yield f"{kind}-{vector}-too-short", {"type": kind, **fields, vector: [1.0]}
    box = _GOOD_ATOMS["box"]
    yield "unknown-type", {"type": "cone", **box}
    yield "type-as-list", {"type": ["box"], **box}
    yield "type-as-number", {"type": 1, **box}
    yield "type-as-null", {"type": None, **box}
    yield "no-type", dict(box)
    yield "atom-as-string", "box"
    yield "atom-as-list", ["box", [0.0, 0.0], [2.0, 2.0]]


MALFORMED_ATOMS = dict(_malformed_atoms())


def _atom_message(atom) -> str:
    doc = {
        "dimension": 2,
        "objective": "x1",
        "feasible_set": [atom],
        "domain_window": {"lo": [0.0, 0.0], "hi": [2.0, 2.0]},
    }
    with pytest.raises(ProblemFormatError) as info:
        load_problem(doc)
    return str(info.value)


def _golden() -> dict:
    examples = {}
    for name in EXAMPLE_NAMES:
        e = get_example(name)
        examples[name] = {"repr": repr(e), "dumps": dumps(e.problem, e.anchor)}
    messages = {key: _atom_message(atom) for key, atom in MALFORMED_ATOMS.items()}
    return {"examples": examples, "atom_messages": messages}


def _stored() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_builtin_example_repr_and_text_are_unchanged(name):
    e = get_example(name)
    want = _stored()["examples"][name]
    assert repr(e) == want["repr"]
    assert dumps(e.problem, e.anchor) == want["dumps"]


def test_the_golden_file_lists_every_example():
    assert sorted(_stored()["examples"]) == list(EXAMPLE_NAMES)


@pytest.mark.parametrize("key", sorted(MALFORMED_ATOMS))
def test_malformed_atom_message_is_unchanged(key):
    assert _atom_message(MALFORMED_ATOMS[key]) == _stored()["atom_messages"][key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_golden(), indent=1, ensure_ascii=False) + "\n")
