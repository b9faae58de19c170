"""Every kind of record kept in sets' store is named in README's store
section, found by walking the source of src/qcsol for sets._kept calls,
as test_raises walks it for raises."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "qcsol"


def _kinds():
    """(module, kind, line) of each _kept call in src/qcsol; kind is None
    where the key is not a tuple literal that starts with a string."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in ("_kept", "sets._kept"):
                key = node.args[0] if node.args else None
                first = key.elts[0] if isinstance(key, ast.Tuple) and key.elts else None
                kind = first.value if isinstance(first, ast.Constant) else None
                yield path.stem, kind if isinstance(kind, str) else None, node.lineno


def _store_section():
    """README's text from the list of kept kinds to how the store behaves."""
    text = (ROOT / "README.md").read_text()
    start = text.index("kinds of result are kept per process")
    return text[start:text.index("How the store behaves", start)]


def test_every_kept_kind_is_named_in_the_readme():
    found = list(_kinds())
    unnamed = [f"{module}.py:{line}" for module, kind, line in found if kind is None]
    assert unnamed == []
    section = _store_section()
    undocumented = sorted({kind for _, kind, _ in found if f"kind `{kind}`" not in section})
    assert undocumented == []
    # the walk sees every caller of the store
    assert {module for module, _, _ in found} >= {"kkt", "charac", "subdiff", "problemfile"}
