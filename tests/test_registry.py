"""Builtin example table: built once, shared read-only."""

import dataclasses

import pytest

from qcsol.registry import builtin_examples, get_example


def test_entries_are_shared():
    assert get_example("ex2_1") is get_example("ex2_1")
    assert builtin_examples()["ex2_1"] is get_example("ex2_1")


def test_mutating_the_returned_dict_leaves_the_table_alone():
    examples = builtin_examples()
    original = examples["ex2_1"]
    examples["ex2_1"] = examples["ex2_2"]
    del examples["ex4_1"]
    examples.clear()
    assert get_example("ex2_1") is original
    assert get_example("ex4_1").name == "ex4_1"
    assert sorted(builtin_examples()) == [
        "ex2_1", "ex2_2", "ex2_3", "ex2_3_constrained", "ex2_4", "ex4_1",
    ]
    assert builtin_examples() is not builtin_examples()


def test_entries_are_frozen():
    entry = get_example("ex2_1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.anchor = (0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.problem.domain_window = None

