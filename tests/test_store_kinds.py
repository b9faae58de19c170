"""Every kind of record kept in sets' store is named in README's store
section, found by walking the source of src/qcsol for sets._kept calls,
as test_raises walks it for raises; and every functools cache beside the
store is on a short list, each with its reason."""

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


# (module, function) -> why it is a functools cache and not kept in the
# store, whose records and derived results (sets._Derived) keep the rest
CACHES = {
    ("expr", "_compiled"): "each expression's compiled program, which every "
                           "record's evaluation runs",
    ("subdiff", "_gp_rays"): "a constant array per dimension, read by every GP grid",
    ("registry", "_table"): "the builtin examples, loaded once per process",
    ("cli", "_build_parser"): "the one argument parser of the process",
}


def _caches():
    """(module, name) of each use of functools.lru_cache or functools.cache
    in src/qcsol: the function it decorates, else the line it is on."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        decorates = {id(getattr(d, "func", d)): node.name for node in ast.walk(tree)
                     if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                     for d in node.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                used = {alias.name for alias in node.names} & {"lru_cache", "cache"}
            else:
                used = isinstance(node, ast.Attribute) and ast.unparse(node) in (
                    "functools.lru_cache", "functools.cache")
            if used:
                yield path.stem, decorates.get(id(node), f"line {node.lineno}")


def test_every_functools_cache_is_on_the_list():
    assert sorted(_caches()) == sorted(CACHES)
    assert all(CACHES.values())
