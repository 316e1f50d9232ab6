"""Every Python file of the project parses at the oldest Python that
pyproject.toml's requires-python admits, so syntax that needs a newer
interpreter fails on any interpreter the tests run on, not only in an
older one's CI job."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_oldest_supported_python():
    bound = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    floor = (int(bound[1]), int(bound[2]))
    sources = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
