"""Builtin example table: built once, shared read-only."""

import dataclasses

import pytest

from qcsol.registry import get_example

# every builtin example, sorted; the tests that run each example use it
EXAMPLE_NAMES = ("ex2_1", "ex2_2", "ex2_3", "ex2_3_constrained", "ex2_4", "ex4_1")


def test_example_names_lists_every_example():
    with pytest.raises(KeyError) as info:
        get_example("nope")
    assert info.value.args[0] == (
        f"unknown example 'nope'; available: {', '.join(EXAMPLE_NAMES)}"
    )
    assert [get_example(name).name for name in EXAMPLE_NAMES] == list(EXAMPLE_NAMES)


def test_entries_are_shared():
    assert get_example("ex2_1") is get_example("ex2_1")


def test_entries_are_frozen():
    entry = get_example("ex2_1")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.anchor = (0.0, 0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.problem.domain_window = None
