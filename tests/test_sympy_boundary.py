"""Static check of where the engine imports sympy.

Field elements are the engine's one scalar representation.  sympy enters
only in classify (its sqrt-bearing frames and the report's classification
section, which prints them) and in field's sympy view of an element
(Frac.as_expr, through _sympy_symbols and _expr_of).  report.py imports no
sympy: it loads classify lazily, for a 3D analyze only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "paracosym"

# module -> the functions that may import sympy (None: anywhere)
ALLOWED = {
    "classify.py": None,
    "field.py": {"_sympy_symbols", "_expr_of"},
}


def _sympy_imports(tree: ast.AST):
    """(enclosing function or None, line) of every import of sympy."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""] if not child.level else []
            else:
                names = []
            if any(n == "sympy" or n.startswith("sympy.") for n in names):
                found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_sympy_is_imported_only_at_the_allowed_places():
    stray = []
    for path in sorted(SRC.glob("*.py")):
        allowed = ALLOWED.get(path.name, set())
        for function, line in _sympy_imports(ast.parse(path.read_text(), str(path))):
            if allowed is not None and function not in allowed:
                stray.append(f"{path.name}:{line} in {function or 'module scope'}")
    assert not stray, stray


def test_the_check_sees_the_allowed_imports():
    # the allowed places do import sympy, so the walk above finds imports
    seen = {
        name: {f for f, _ in _sympy_imports(ast.parse((SRC / name).read_text()))}
        for name in ALLOWED
    }
    assert seen == {
        "classify.py": {None},
        "field.py": {"_sympy_symbols", "_expr_of"},
    }
