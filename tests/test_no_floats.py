"""The engine decides every verdict exactly: no module of the package holds
a float literal, calls float() or reads an .evalf attribute, so no float
tolerance can decide a check, a type or a frame's choices."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paracosym"


def _float_uses(tree: ast.AST):
    """(line, what) of every float literal, float() call and .evalf."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node.lineno, "float(...)"
        elif isinstance(node, ast.Attribute) and node.attr == "evalf":
            yield node.lineno, ".evalf"


def test_the_engine_holds_no_floating_point():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}: {what}"
        for path in sources
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
