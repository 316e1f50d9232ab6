"""One check protocol: every CheckItem of the engine is built by the two
builders of structures (_item and _skip), and every check states its
hypotheses to the one gate, structures.unmet, which decides whether the
structure is almost alpha-paracosymplectic and which hypothesis fails.
The AST guards keep it so; the other tests pin the gate's behaviour on a
non-apc structure and on a non-constant alpha."""

import ast
from pathlib import Path

import pytest

from paracosym import classify, curvature, deform, nullity, structures
from paracosym.catalog import _lie_family
from paracosym.errors import StructureError
from paracosym.nullity import NullityFit
from paracosym.parser import load_definition
from paracosym.structures import AlmostParacontactStructure, StructureAnalysis

SRC = Path(__file__).resolve().parent.parent / "src" / "paracosym"

BUILDERS = {("structures.py", "_item"), ("structures.py", "_skip")}
GATE_READERS = {
    ("structures.py", "StructureAnalysis"),
    ("structures.py", "CONSTANT_ALPHA"),
    ("structures.py", "unmet"),
    ("report.py", "_gate"),
    ("report.py", "_alpha_section"),
}
REASONS = [
    "alpha is not constant",
    "stated only for dim >= 5",
    "3-dimensional statement",
    "leaves are not para-Kaehler",
    "not of constant sectional curvature",
]
RETIRED = ["needs constant alpha", "not apc", "not an apc structure"]


def _top_level_name(stmt: ast.stmt) -> str:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    if isinstance(stmt, ast.Assign):
        return ",".join(t.id for t in stmt.targets if isinstance(t, ast.Name))
    return "<module>"


def _nodes():
    """(file, top-level definition, node) of every AST node of the package."""
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                yield path.name, _top_level_name(stmt), node


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_check_items_are_built_only_by_the_builders():
    found = [
        (path, where, node.lineno)
        for path, where, node in _nodes()
        if isinstance(node, ast.Call) and _called_name(node) == "CheckItem"
    ]
    assert {(path, where) for path, where, _ in found} == BUILDERS, found


def test_only_the_gate_reads_the_apc_and_constant_alpha_verdicts():
    found = [
        (path, where, node.lineno)
        for path, where, node in _nodes()
        if isinstance(node, ast.Attribute) and node.attr in ("is_apc", "alpha_is_constant")
    ]
    assert found
    assert [f for f in found if f[:2] not in GATE_READERS] == []


def test_each_skip_reason_is_spelled_once():
    strings = [
        node.value
        for _, _, node in _nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert {r: strings.count(r) for r in REASONS} == {r: 1 for r in REASONS}
    assert [s for s in strings if s in RETIRED] == []


def _analysis(text: str) -> StructureAnalysis:
    return StructureAnalysis(AlmostParacontactStructure.from_definition(load_definition(text)))


def _gated_checks():
    """Every check that states a hypothesis to the gate, as a call on an
    analysis."""
    not_fitted = NullityFit("not_nullity")
    return {
        "identity_suite": structures.identity_suite,
        "para_kenmotsu_biconditional": structures.para_kenmotsu_biconditional,
        "check_rxyxi_general": curvature.check_rxyxi_general,
        "check_r2_suite": curvature.check_r2_suite,
        "check_r3_identity": curvature.check_r3_identity,
        "check_q_commutator": curvature.check_q_commutator,
        "check_space_form_constraints": curvature.check_space_form_constraints,
        "check_rough_laplacian_formula": curvature.check_rough_laplacian_formula,
        "check_irem_suite": lambda an: nullity.check_irem_suite(an, not_fitted),
        "check_parakaehler_consequence": lambda an: nullity.check_parakaehler_consequence(
            an, not_fitted
        ),
        "check_q_commutator_nullity": lambda an: nullity.check_q_commutator_nullity(
            an, not_fitted
        ),
        "verify_ricci_formula": classify.verify_ricci_formula,
        "conformal_deform": lambda an: deform.conformal_deform(an, an.chart.context.element(0)),
    }


@pytest.mark.parametrize("check", sorted(_gated_checks()))
def test_a_gated_check_refuses_a_non_apc_structure(analyses, check):
    an = analyses("non_apc")
    assert an.axioms_ok and not an.is_apc
    with pytest.raises(StructureError, match="not almost alpha-paracosymplectic"):
        _gated_checks()[check](an)


def test_every_constant_alpha_check_skips_with_one_reason():
    # a nonlinear draw with alpha = x/2 - 1
    an = _analysis(_lie_family("x^2/2 - 2*y", "3*x - 2*y + x^2/2"))
    assert an.is_apc and str(an.alpha) == "x/2 - 1"
    exact = NullityFit("exact")
    items = [
        classify.verify_ricci_formula(an),
        *curvature.check_r2_suite(an),
        curvature.check_r3_identity(an),
        curvature.check_q_commutator(an),
        curvature.check_rough_laplacian_formula(an),
        *nullity.check_irem_suite(an, exact),
        nullity.check_q_commutator_nullity(an, exact),
    ]
    assert len(items) == 21
    assert {(it.status, it.reason) for it in items} == {("skip", "alpha is not constant")}


def test_hypotheses_are_tried_in_the_order_given(analyses):
    an = analyses("five_dim_alpha_z")  # alpha = 1/(1 + z), dimension 5
    assert structures.unmet(an) is None
    assert structures.unmet(an, structures.DIM_5) is None
    assert structures.unmet(an, structures.DIM_3, structures.CONSTANT_ALPHA) == (
        "3-dimensional statement"
    )
    assert structures.unmet(an, structures.CONSTANT_ALPHA, structures.DIM_3) == (
        "alpha is not constant"
    )
    fit = NullityFit("degenerate_h_zero")
    assert structures.unmet(an, structures.exact_fit(fit), structures.CONSTANT_ALPHA) == (
        "fit status is degenerate_h_zero"
    )


def test_builders():
    assert structures._item("x") == structures.CheckItem("x", "pass")
    assert structures._item("x", "w") == structures.CheckItem("x", "fail", witness="w")
    assert structures._skip("x", "r") == structures.CheckItem("x", "skip", reason="r")
