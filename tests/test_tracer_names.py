"""The benchmark's tracer wraps library functions by name, and its
workloads call library functions with fixed arguments."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).parent.parent / "qcbench" / "tracer.py"
WORKLOADS = TRACER.parent / "workloads.py"


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


def _library_calls():
    """Each call in qcbench/workloads.py of a qcsol name, as a param of the
    callee's dotted name, its positional argument count and its keyword
    names.  The names are those its `from qcsol... import` lines bind."""
    tree = ast.parse(WORKLOADS.read_text())
    bound = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "qcsol"
        for alias in node.names
    }
    calls = []
    for node in sorted(ast.walk(tree), key=lambda node: getattr(node, "lineno", 0)):
        f = getattr(node, "func", None)
        if isinstance(f, ast.Name) and f.id in bound:
            name = bound[f.id]
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in bound:
            name = f"{bound[f.value.id]}.{f.attr}"
        else:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        args = [a for a in node.args if not isinstance(a, ast.Starred)]
        calls.append(pytest.param(name, len(args), [k.arg for k in node.keywords], starred,
                                  id=f"{name}:{node.lineno}"))
    return calls


def _resolve(name: str):
    """The object a dotted name under qcsol names."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise AssertionError(f"{name} does not resolve")


def test_the_workloads_call_the_library():
    assert len(_library_calls()) >= 30


@pytest.mark.parametrize("name, positional, keywords, starred", _library_calls())
def test_every_benchmark_call_binds_to_its_callee(name, positional, keywords, starred):
    # a starred argument's length is data, so such a call binds the
    # arguments it writes out, and the rest may follow
    signature = inspect.signature(_resolve(name))
    bind = signature.bind_partial if starred else signature.bind
    assert None not in keywords, f"{name} is called with **kwargs"
    bind(*[None] * positional, **dict.fromkeys(keywords))
