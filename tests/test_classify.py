import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from paracosym import classify as cls
from paracosym.classify import (
    build_adapted_frame,
    classify_h,
    harmonic_nullity_equivalence,
    verify_frame_tables,
    verify_ricci_formula,
)
from paracosym.catalog import _lie_family, catalog_entry
from paracosym.errors import EngineError, ZeroDivisorError
from paracosym.nullity import nullity_fit
from paracosym.parser import load_definition
from paracosym.report import run_analyze
from paracosym.scalars import GeneratorDecl, ScalarContext, pdiff
from paracosym.structures import AlmostParacontactStructure, StructureAnalysis
from paracosym.tower import QuadraticTower
from support import h4_impossibility_test


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


# --------------------------------------------------------------------
# the quadratic tower the frame checks are decided in

_TX, _TY = sp.symbols("x y")
_TE = sp.Symbol("E")
_A1 = _TX**2 + _TY + 3  # not a square in QQ(x, y, E)
_T1, _T2 = sp.symbols("T1 T2")
# two points for the inverse: its coefficients are too large for the
# symbolic test to stay fast
_POINTS = ({_TX: sp.Rational(2, 3), _TY: 5, _TE: sp.Rational(7, 2)}, {_TX: -3, _TY: sp.Rational(1, 2), _TE: 2})


def _tower_context():
    return ScalarContext(("x", "y"), (GeneratorDecl("E", 0, 2),))


def _tower_expr(q, at=None):
    """A tower element as a sympy expression with sqrt; with at, a map of
    x, y, E to rationals, its value there with the roots as T1, T2."""
    if q.level == 0:
        return q.p.as_expr().xreplace(at) if at else q.p.as_expr()
    if at:
        root = (_T1, _T2)[q.level - 1]
    else:
        root = sp.sqrt(_tower_expr(q.tower.radicands[q.level - 1]))
    return _tower_expr(q.p, at) + _tower_expr(q.q, at) * root


def _is_zero_with_roots(e, at=None) -> bool:
    """e = 0 exactly, for e built from x, y, E, sqrt(A1) and
    sqrt(x + sqrt(A1)): the roots become T1, T2 and the numerator is
    reduced modulo T2**2 - (x + T1) and T1**2 - A1 (both monic, so the
    remainder is a unique normal form).  With at, a map of x, y, E to
    rationals, the test runs at that point, in a number field."""
    roots = {_A1: _T1, _TX + _T1: _T2}
    e = e.replace(
        lambda n: n.is_Pow and n.exp.is_Rational and n.exp.q == 2 and n.base in roots,
        lambda n: roots[n.base] ** int(2 * n.exp),
    )
    at = at or {}
    num, _ = sp.fraction(sp.together(e.xreplace(at)))
    num = sp.rem(sp.expand(num), _T2**2 - (_TX + _T1).xreplace(at), _T2)
    num = sp.rem(sp.expand(num), _T1**2 - _A1.xreplace(at), _T1)
    return sp.expand(num) == 0


_coeffs = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


@st.composite
def _tower_pairs(draw):
    """Two random elements of QQ(x, y, E)(sqrt(A1))(sqrt(x + sqrt(A1)))."""
    ctx = _tower_context()
    T = QuadraticTower(ctx)
    t1 = T.adjoin(T.base(ctx.element(_A1)))
    t2 = T.adjoin(T.base(ctx.variable("x")) + t1)
    monomials = [T.base(ctx.element(m)) for m in (1, _TX, _TE)]

    def element():
        c = [sum((k * m for k, m in zip(draw(_coeffs), monomials)), T.zero) for _ in range(4)]
        return (c[0] + c[1] * t1) + (c[2] + c[3] * t1) * t2

    return element(), element()


@given(_tower_pairs())
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
def test_tower_arithmetic_matches_sympy_roots(pair):
    u, v = pair
    eu, ev = _tower_expr(u), _tower_expr(v)
    assert _is_zero_with_roots(_tower_expr(u + v) - (eu + ev))
    assert _is_zero_with_roots(_tower_expr(u * v) - eu * ev)
    assert _is_zero_with_roots(_tower_expr(u - v) - (eu - ev))
    # d/dx with the generator rule dE/dx = 2E, on both sides
    ctx = u.tower.context
    assert _is_zero_with_roots(_tower_expr(u.diff(0)) - pdiff(ctx, eu, 0))
    assert _is_zero_with_roots(_tower_expr(u.diff(1)) - pdiff(ctx, eu, 1))
    if u.is_zero():
        with pytest.raises(ZeroDivisorError):
            u.inverse()
    else:  # the tower is a field: sqrt(A1) and sqrt(x + sqrt(A1)) are new
        for at in _POINTS:
            value = _tower_expr(u, at)
            if not _is_zero_with_roots(value, at):  # no pole of the inverse there
                assert _is_zero_with_roots(_tower_expr(u.inverse(), at) - 1 / value, at)
        assert not _is_zero_with_roots(eu)


def test_tower_zero_divisor_and_rational_root():
    ctx = _tower_context()
    T = QuadraticTower(ctx)
    root = T.sqrt(T.base(Fraction(9, 4)))
    assert root.level == 0 and root.p == ctx.element(Fraction(3, 2))  # sympy's sqrt(9/4)
    t = T.sqrt(T.base(ctx.variable("x")) ** 2)  # sqrt(x**2) is not x
    assert t.level == 1
    with pytest.raises(ZeroDivisorError):
        (t - T.base(ctx.variable("x"))).inverse()
    assert ((t - T.base(ctx.variable("x"))) * (t + T.base(ctx.variable("x")))).is_zero()


# frames checked against the point test: heavy H1, square-lambda^2 H1,
# H2, passing H3, failing H3 (its rotation goes the wrong way), and a
# generator-bearing catalog entry
ORACLE_DRAWS = [
    (Fraction(-1, 2), 3, -3, 3),
    (1, Fraction(1, 2), 0, 1),
    (0, -1, -3, -2),
    (1, 1, 1, 0),
    (0, -3, -2, 3),
]


def _lie_text(params) -> str:
    """The left-invariant family member p = a x + b y, q = c x + d y with
    alpha = (a + d)/2."""
    a, b, c, d = (Fraction(v) for v in params)
    return _lie_family(f"({a})*x + ({b})*y", f"({c})*x + ({d})*y") + f"alpha = {(a + d) / 2}\n"


def _lie_analysis(params) -> StructureAnalysis:
    return StructureAnalysis(AlmostParacontactStructure.from_definition(load_definition(_lie_text(params))))


def _check_tower_against_point_test(an) -> int:
    """Every residual component the tower proves zero passes _zero_at;
    returns how many were proved."""
    ht = classify_h(an)
    tower, sympy = cls._frame_values(an, ht)
    assert tower is not None
    kind = "pseudo-orthonormal" if ht.tag == "H2" else "orthonormal-phi"
    lines = cls._pattern_lines(kind, ht.tag) + [(n, r) for n, _, r in cls._TABLE_LINES[ht.tag]]
    fit = nullity_fit(an)
    if fit.status in ("exact", "degenerate_h_zero"):
        lines += cls._case_lines(ht.tag, fit)
    proved = 0
    for name, residual in lines:
        values = residual(tower)
        exprs = residual(sympy)
        for value, expr in zip(values, exprs):
            if value.is_zero():
                proved += 1
                assert cls._zero_at(an, expr, ht.point)[0], name
    return proved


@pytest.mark.parametrize("params", ORACLE_DRAWS, ids=str)
def test_tower_proofs_pass_the_point_test(params):
    assert _check_tower_against_point_test(_lie_analysis(params)) > 0


def test_tower_proofs_pass_the_point_test_with_generators(analyses):
    assert _check_tower_against_point_test(analyses("warped_kenmotsu")) > 0


def test_tower_does_not_prove_a_wrong_sign_of_alpha():
    an = _lie_analysis(ORACLE_DRAWS[0])
    ht = classify_h(an)
    tower, _ = cls._frame_values(an, ht)
    assert not tower.alpha.is_zero()
    right = tower.residual(tower.cov("e1", "xi"), (tower.alpha, tower.e1), (tower.lam, tower.e2))
    wrong = tower.residual(tower.cov("e1", "xi"), (-tower.alpha, tower.e1), (tower.lam, tower.e2))
    assert all(r.is_zero() for r in right)
    assert not all(r.is_zero() for r in wrong)


def test_passing_h1_draw_needs_no_point_test(monkeypatch):
    calls = []
    monkeypatch.setattr(cls, "_zero_at", lambda *args: calls.append(args))
    section = run_analyze(load_definition(_lie_text(ORACLE_DRAWS[0]))).tree["classification"]
    assert section["h_type"] == "H1"
    items = section["frame_table"]["items"] + section["harmonic_nullity"]["items"]
    assert items and all(it["status"] == "pass" for it in items)
    assert calls == []


@pytest.mark.slow
def test_tower_proofs_pass_the_point_test_on_the_lie3d_pool():
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import load_bundles

    pool = [params for bundle in load_bundles() for params in bundle]
    assert len(pool) == 36
    for params in pool:
        _check_tower_against_point_test(_lie_analysis(params))
