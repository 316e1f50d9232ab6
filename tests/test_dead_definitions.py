"""Static check that every definition in src/ is referenced somewhere.

A function, class or method defined in src/ that no file of src/, tests/
or bench/ names is dead code: a helper left behind when its last caller
was rewritten.  A name counts as referenced when it appears as a name, an
attribute, an imported name or a string constant (the package's lazy
table names its public functions as strings) anywhere but in its own
definition.  Dunder methods are exempt: the interpreter calls them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.AST) -> list:
    """(line, name) of every top-level function and class of a module and
    every method of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [(line, name) for line, name in found if not (name.startswith("__") and name.endswith("__"))]


def _references(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def dead_definitions(sources: dict, defining: list) -> list:
    """(path, line, name) of every definition in the defining paths that
    no source in sources (path -> text) references."""
    trees = {path: ast.parse(text, str(path)) for path, text in sources.items()}
    referenced = set().union(*map(_references, trees.values()))
    return [
        (path, line, name)
        for path in defining
        for line, name in _definitions(trees[path])
        if name not in referenced
    ]


def test_every_definition_in_src_is_referenced():
    paths = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    src = [p for p in paths if (ROOT / "src") in p.parents]
    assert src
    sources = {p: p.read_text(encoding="utf-8") for p in paths}
    dead = [f"{path.relative_to(ROOT)}:{line} {name}" for path, line, name in dead_definitions(sources, src)]
    assert not dead, dead


def test_the_check_sees_a_dead_definition():
    source = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.helper()\n"
        "    def helper(self):\n"
        "        return 1\n"
        "    def stale(self):\n"
        "        return 2\n"
        "def compose(a, b):\n"
        "    return a\n"
        "def served():\n"
        "    return Used()\n"
        "LAZY = {'served': 'module'}\n"
    )
    assert dead_definitions({"m": source}, ["m"]) == [("m", 6, "stale"), ("m", 8, "compose")]
