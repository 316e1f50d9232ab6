import random
from fractions import Fraction

import pytest
import sympy as sp

from paracosym.classify import (
    build_adapted_frame,
    classify_h,
    h4_impossibility_test,
    harmonic_nullity_equivalence,
    verify_frame_tables,
    verify_ricci_formula,
)
from paracosym.catalog import _lie_family, catalog_entry
from paracosym.errors import EngineError
from paracosym.parser import load_definition
from paracosym.report import run_analyze
from paracosym.structures import AlmostParacontactStructure, StructureAnalysis


def classify_h_grid(an, points):
    """Classify at several points, skipping the ones where classification
    raises; a tag change across the grid is reported as a warning."""
    results = []
    for pt in points:
        try:
            results.append(classify_h(an, pt))
        except EngineError:
            continue
    tags = {r.tag for r in results}
    warning = None
    if len(tags) > 1:
        warning = f"h-type changes across the sample grid: {sorted(tags)}"
    return results, warning


def template_consistency_control(kind: str) -> bool:
    """h1/h2 canonical templates do admit a unit xi in their kernel."""
    g_orth = sp.Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
    g_pseudo = sp.Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    if kind == "h1":
        h = sp.Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        g = g_orth
    elif kind == "h2":
        h = sp.Matrix([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
        g = g_pseudo
    else:
        raise ValueError(kind)
    for v in h.nullspace():
        if (v.T * g * v)[0, 0] != 0:
            return True  # a non-null kernel vector exists; normalize to xi
    return False

EXPECTED_TAGS = {
    "example_e": ("H1", sp.Integer(1)),
    "h1_rational": ("H1", sp.Rational(9, 4)),
    "h2_nilpotent": ("H2", None),
    "h3_rotation": ("H3", sp.Integer(1)),
    "flat_product": ("Zero", None),
    "warped_kenmotsu": ("Zero", None),
    "sigma_nonzero": ("H1", None),  # lambda2 checked separately below
}


@pytest.mark.parametrize("name", sorted(EXPECTED_TAGS))
def test_classification_tags(analyses, name):
    tag, lam2 = EXPECTED_TAGS[name]
    ht = classify_h(analyses(name))
    assert ht.tag == tag
    if lam2 is not None:
        assert sp.cancel(ht.lambda2 - lam2) == 0


def test_grid_classification_stable(analyses):
    an = analyses("example_e")
    pts = [
        (Fraction(0), Fraction(0), Fraction(0)),
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(-2), Fraction(1, 2), Fraction(1)),
        (Fraction(1, 3), Fraction(-1, 3), Fraction(-1)),
        (Fraction(5), Fraction(7), Fraction(2)),
    ]
    results, warning = classify_h_grid(an, pts)
    assert len(results) == len(pts)
    assert warning is None
    assert all(r.tag == "H1" for r in results)


def test_impossible_jordan_shape():
    assert h4_impossibility_test()
    # the realizable templates must pass the same kernel test
    assert template_consistency_control("h1")
    assert template_consistency_control("h2")


@pytest.mark.parametrize(
    "name", ["example_e", "h1_rational", "h2_nilpotent", "h3_rotation", "flat_product"]
)
def test_frame_tables(analyses, name):
    an = analyses(name)
    ht = classify_h(an)
    frame = build_adapted_frame(an, ht)
    table = verify_frame_tables(an, frame, ht)
    bad = [it for it in table.items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_frame_tables_generator_entry(analyses):
    # the classification path must also work with exponential generators
    an = analyses("warped_kenmotsu")
    ht = classify_h(an)
    assert ht.tag == "Zero"
    frame = build_adapted_frame(an, ht)
    table = verify_frame_tables(an, frame, ht)
    bad = [it for it in table.items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


@pytest.mark.parametrize(
    "name",
    [
        "example_e",
        "h1_rational",
        "h2_nilpotent",
        "h3_rotation",
        "flat_product",
        "warped_kenmotsu",
        "sigma_nonzero",
    ],
)
def test_ricci_closed_form(analyses, name):
    item = verify_ricci_formula(analyses(name))
    assert item.ok, (item.status, item.witness)


@pytest.mark.parametrize(
    "name,expect",
    [
        ("example_e", True),
        ("h1_rational", True),
        ("h2_nilpotent", True),
        ("h3_rotation", True),
        ("flat_product", True),
        ("warped_kenmotsu", True),
    ],
)
def test_harmonic_nullity_equivalence(analyses, name, expect):
    rep = harmonic_nullity_equivalence(analyses(name))
    assert rep.equivalent is expect
    assert rep.harmonic == rep.nullity
    bad = [it for it in rep.case_items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_harmonic_nullity_both_false(analyses):
    rep = harmonic_nullity_equivalence(analyses("sigma_nonzero"))
    assert not rep.harmonic and not rep.nullity
    assert rep.equivalent


def _family_definition(a, b, c, d):
    text = catalog_entry("example_e").definition_text
    p_new = f"{a}*x + {b}*y" if b else f"{a}*x"
    q_new = f"{c}*x + {d}*y" if c else f"{d}*y"
    # rebuild the family entry from scratch instead of string surgery
    return _FAMILY_TEMPLATE.format(p=p_new, q=q_new, alpha=sp.Rational(a + d, 2))


_FAMILY_TEMPLATE = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [1, 1, 0]

[structure]
xi = [{p}, {q}, 1]
eta = [0, 0, 1]
phi = [[0, 1, -({q})], [1, 0, -({p})], [0, 0, 0]]
metric = [[1, 0, -({p})], [0, -1, {q}], [-({p}), {q}, 1 + ({p})^2 - ({q})^2]]
alpha = {alpha}
"""


def test_randomized_family_always_classifies():
    rng = random.Random(97)
    tags = set()
    for _ in range(25):
        a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
        an = StructureAnalysis(
            AlmostParacontactStructure.from_definition(
                load_definition(_family_definition(a, b, c, d))
            )
        )
        assert an.axioms_ok and an.is_apc
        ht = classify_h(an)
        assert ht.tag in {"H1", "H2", "H3", "Zero"}
        tags.add(ht.tag)
        det = sp.Rational(b - c, 2) * sp.Rational(c - b, 2) - sp.Rational(
            a - d, 2
        ) * sp.Rational(d - a, 2)
        if a == d and b == c:
            assert ht.tag == "Zero"
        elif det < 0:
            assert ht.tag == "H1" and sp.cancel(ht.lambda2 + det) == 0
        elif det > 0:
            assert ht.tag == "H3" and sp.cancel(ht.lambda2 - det) == 0
        else:
            assert ht.tag == "H2"
    assert {"H1", "H2", "H3", "Zero"} <= tags


@pytest.mark.xfail(
    strict=True,
    reason="build_adapted_frame rotates H3 frames the wrong way: s2 = -a0 * sb / lamf "
    "should be a0 * sb / lamf, so that A cosh 2t + B sinh 2t = 0",
)
def test_h3_draw_builds_its_adapted_frame():
    # p = -3y, q = -2x + 3y, alpha = 3/2: an H3 draw of the benchmark's lie3d pool
    text = _lie_family("(0)*x + (-3)*y", "(-2)*x + (3)*y") + "alpha = 3/2\n"
    section = run_analyze(load_definition(text)).tree["classification"]
    assert section["h_type"] == "H3"
    assert "frame_error" not in section, section["frame_error"]
