"""The benchmark's tracer wraps library functions by name."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "qcbench" / "tracer.py"


def _traced():
    """The TRACED table of qcbench/tracer.py, read from its source."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("qcbench/tracer.py defines no TRACED table")


@pytest.mark.parametrize(
    "name", [f"{m}.{f}" for m, fs in _traced().items() for f in fs]
)
def test_every_traced_name_resolves(name):
    module, function = name.split(".")
    assert callable(getattr(importlib.import_module(f"qcsol.{module}"), function))
