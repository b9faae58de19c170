"""Every refusal the library raises is a QcsolError, found by walking the
source of src/qcsol; README's rule is that input is refused with
errors.InputError and that any other ValueError is a fault."""

import ast
import inspect
from pathlib import Path

from qcsol import errors

SRC = Path(__file__).parent.parent / "src" / "qcsol"

# (module, exception) raised for what is not an input refusal: expr's
# dispatch on its own node classes, registry's unknown example name (a
# KeyError, as a mapping lookup), the CLI's usage errors and the LP
# kernel's signal of an unbounded phase, which it catches itself.
ALLOWED = {("expr", "TypeError"), ("registry", "KeyError"), ("cli", "UsageError"),
           ("alternatives", "_Unbounded")}
TYPED = {name for name, obj in vars(errors).items()
         if inspect.isclass(obj) and issubclass(obj, errors.QcsolError)}


def _raises():
    """(module, raised name, line) of each raise with an exception in src/qcsol."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:  # not a re-raise
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                yield path.stem, ast.unparse(exc), node.lineno


def test_every_raise_names_a_qcsol_error_or_an_allowed_exception():
    found = list(_raises())
    untyped = [f"{module}.py:{line}: raise {name}" for module, name, line in found
               if name not in TYPED and (module, name) not in ALLOWED]
    assert untyped == []
    # the walk sees the library's refusals, and every allowed exception is still raised
    assert sum(name == "InputError" for _, name, _ in found) >= 10
    assert {(module, name) for module, name, _ in found} >= ALLOWED
