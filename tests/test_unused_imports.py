"""Static check that every imported name is used in its module.

No linter runs in CI, so a change that retires a name from many modules
could leave stale imports behind.  A name counts as used when it appears
as a name anywhere in the module, quoted annotations included.  `from
__future__ import ...` and any import on a line marked `# noqa` are
exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _used_names(tree: ast.AST) -> set:
    used, annotations = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def unused_imports(source: str, name: str) -> list:
    """(line, bound name) of every import in source whose name the module
    never uses."""
    tree = ast.parse(source, name)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                found.append((node.lineno, bound))
    return found


def test_every_imported_name_is_used():
    sources = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert sources
    stale = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sources
        for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))
    ]
    assert not stale, stale


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from typing import List, Optional\n"
        "import json  # noqa: F401\n"
        "import xml.dom\n"
        "def f(a: 'Optional[int]') -> List[int]:\n"
        "    return [sys.maxsize]\n"
    )
    assert unused_imports(source, "<example>") == [(2, "os"), (5, "xml")]
