"""A fixed pool of nonlinear _lie_family draws: quadratic and cubic terms
with fractional coefficients, with and without a constant alpha.

Every draw parses (three of them sum over two constant denominators in the
metric, which needs the parser's per-operand degree bound), analyzes
within MAX_SECONDS, and fails no item, except the draws of KNOWN_FAILURES,
whose failures all lie in the 3D classification.  No output is pinned.
"""

import time

import pytest

from paracosym.catalog import _lie_family
from paracosym.parser import load_definition
from paracosym.report import run_analyze

MAX_SECONDS = 30  # each draw takes 0.3-6 s in process on a shared 2-vCPU host

POOL = [
    ("x^2/2 - 2*y", "3*x - 2*y + x^2/2"),
    ("x/2 - y/2 - 2*x*y", "-3*x/2 + y/2 - y^2/2"),
    ("-x - 3*y^2", "x + y - 3*x^3"),
    ("x/2 - y + x*y", "-x + y/3 + x^2/2"),
    ("y + y^3", "-3*x + x^3"),
    ("-x - 2*y^2", "-3*x - 2*x^3"),
    ("x + 3/2*y^3", "y - 3/2*x^3"),
    ("x/2 + y^3", "2*y + x^2"),
    ("x + 3/2*y^3", "y - x^3"),
    ("x - y^2/3", "y + x^3"),
    ("-2*x/3 - 2*y + x*y/3", "-3*y/2 - x^3/2"),
    ("-x/2 + 3*y/2 - 3*x^3", "-3*x + 3*y/2 + y^3/3"),
]

# draw -> cause; the frame-table and case lines run whatever alpha is, while
# their sibling checks skip on a non-constant alpha, and the two H2 draws
# are H2 at the base point [1, 1, 0] alone: det(h|ker eta) vanishes there
# but not identically, so the type is not constant near the point
KNOWN_FAILURES = {
    ("x^2/2 - 2*y", "3*x - 2*y + x^2/2"): "H1 table lines on the non-constant alpha = x/2 - 1",
    ("x/2 - y/2 - 2*x*y", "-3*x/2 + y/2 - y^2/2"): "H2 at the point alone, det = -x**2 + x + y**2/4 - 1/4",
    ("-x - 3*y^2", "x + y - 3*x^3"): (
        "H2 at the point alone, det = -81*x**4/4 + 27*x**2*y + 9*x**2/2 - 9*y**2 - 3*y + 3/4"
    ),
    ("x/2 - y + x*y", "-x + y/3 + x^2/2"): "H3 table and case lines on the non-constant alpha = y/2 + 5/12",
}


def _failed(node, path=()):
    """(section path, name) of every failed item of a report tree."""
    if isinstance(node, dict):
        if {"name", "status"} <= set(node):
            return [(path, node["name"])] if node["status"] == "fail" else []
        return [f for key, value in node.items() for f in _failed(value, path + (key,))]
    if isinstance(node, list):
        return [f for value in node for f in _failed(value, path)]
    return []


@pytest.mark.slow
@pytest.mark.parametrize("p, q", POOL, ids=[f"{p} | {q}" for p, q in POOL])
def test_nonlinear_draw(p, q):
    start = time.perf_counter()
    report = run_analyze(load_definition(_lie_family(p, q)))
    assert time.perf_counter() - start < MAX_SECONDS
    failed = _failed(report.tree)
    if (p, q) not in KNOWN_FAILURES:
        assert report.exit_code == 0 and not failed, failed
        return
    assert report.exit_code == 3 and failed
    assert all(path[0] == "classification" for path, _ in failed), failed
