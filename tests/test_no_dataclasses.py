"""The engine's records are typing.NamedTuples: no module of the package
imports dataclasses, which loads inspect with it, so a CLI process that
compiles its modules afresh does not pay for either."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "paracosym"


def _dataclasses_imports(tree: ast.AST):
    """The line of every import of dataclasses, plain or from."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "dataclasses" for alias in node.names):
                yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
            yield node.lineno


def test_the_engine_imports_no_dataclasses():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{line}"
        for path in sources
        for line in _dataclasses_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_the_check_sees_both_import_forms():
    tree = ast.parse("import dataclasses\nfrom dataclasses import dataclass\nimport os\n")
    assert list(_dataclasses_imports(tree)) == [1, 2]
