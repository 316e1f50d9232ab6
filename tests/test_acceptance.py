"""End-to-end acceptance checks.

Each test prints one pass line on success; a failing assertion is the
fail line.  Run with -v -s to see them all.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import sympy as sp

from paracosym.catalog import catalog, catalog_entry
from paracosym.classify import (
    classify_h,
    harmonic_nullity_equivalence,
)
from paracosym.curvature import check_q_commutator, check_r2_suite, check_rxyxi_general
from paracosym.deform import d_homothetic_deform, invariant_I0, transform_kmn
from paracosym.geometry import Chart, TensorField, lie_derivative
from paracosym.nullity import _bi_residual, nullity_fit
from paracosym.parser import load_definition
from paracosym.scalars import ScalarContext
from paracosym.structures import (
    AlmostParacontactStructure,
    StructureAnalysis,
    identity_suite,
    parakaehler_leaves_check,
)
from support import exact_value, h4_impossibility_test, symbols, three_dim_decomposition_residual

POSITIVE = [e.name for e in catalog() if not e.negative_control]
THREE_DIM = [
    "example_e",
    "flat_product",
    "warped_kenmotsu",
    "h1_rational",
    "h2_nilpotent",
    "h3_rotation",
    "sigma_nonzero",
]


def _ok(num, text):
    print(f"[criterion {num:02d}] PASS - {text}")


def test_criterion_01_golden_example(analyses):
    t0 = time.monotonic()
    an = analyses("example_e")
    assert an.axioms_ok and an.is_apc
    assert an.alpha == 1
    chart = an.chart
    e1 = TensorField(chart, 1, 0, [1, 0, 0])
    e2 = TensorField(chart, 1, 0, [0, 1, 0])
    e3 = an.structure.xi
    assert lie_derivative(e1, e2).is_zero()
    assert (lie_derivative(e1, e3) - (e1 + e2 * 2)).is_zero()
    assert (lie_derivative(e2, e3) - e2).is_zero()
    fit = nullity_fit(an)
    assert fit.status == "exact" and fit.unique
    assert _bi_residual(an, fit.B).is_zero()
    triple = tuple(sp.sstr(f.as_expr()) for f in fit.triple)
    assert triple == ("0", "2", "-2")
    candidate = ("1", "1", "-2")
    assert triple != candidate  # the often-quoted triple does not fit
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _ok(1, f"golden example verified in {elapsed:.1f}s; exact nullity "
           f"constants {triple} (the candidate {candidate} does not "
           "satisfy the defining identity)")


def test_criterion_02_three_dim_decomposition():
    t0 = time.monotonic()
    ctx = ScalarContext(("x", "y", "z"), ())
    chart = Chart(ctx, (Fraction(0), Fraction(0), Fraction(0)))
    X = symbols(ctx)  # the sympy references
    coords = [ctx.coordinate(k) for k in range(3)]
    rng = random.Random(2024)

    def random_metric():
        rows = [[ctx.element(0)] * 3 for _ in range(3)]
        rows[0][0], rows[1][1], rows[2][2] = ctx.element(1), ctx.element(-1), ctx.element(1)
        for _ in range(2):
            i, j = rng.randint(0, 2), rng.randint(0, 2)
            if i > j:
                i, j = j, i
            term = Fraction(rng.randint(-1, 1), 4) * rng.choice(coords) * rng.choice(
                [1, rng.choice(coords)]
            )
            rows[i][j] = rows[i][j] + term
            if i != j:
                rows[j][i] = rows[i][j]
        return TensorField(chart, 0, 2, rows)

    checked = 0
    while checked < 20:
        g = random_metric()
        gm = sp.Matrix(3, 3, lambda i, j: g.array[i, j])
        res = three_dim_decomposition_residual(g)
        for _ in range(2):
            pt = {X[k]: sp.Rational(rng.randint(-2, 2), rng.randint(1, 3)) for k in range(3)}
            if gm.subs(pt).det() == 0:
                continue
            for idx in range(3**4):
                i, a, b, c = idx // 27, (idx // 9) % 3, (idx // 3) % 3, idx % 3
                assert sp.cancel(res.array[i, a, b, c].subs(pt)) == 0
        checked += 1

    # the decomposition is sign-sensitive: flipping the Ricci convention
    # must break it on a curved metric
    from paracosym.catalog import catalog_entry

    g_e = StructureAnalysis(
        AlmostParacontactStructure.from_definition(
            catalog_entry("example_e").definition()
        )
    ).structure.g
    assert not three_dim_decomposition_residual(g_e, ricci_sign=-1).is_zero()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _ok(2, f"3D curvature decomposition exact on 20 random metrics in "
           f"{elapsed:.1f}s; opposite Ricci sign rejected")


def test_criterion_03_identity_suite(analyses):
    for name in POSITIVE:
        an = analyses(name)
        bad = [it for it in identity_suite(an) if it.status == "fail"]
        assert not bad, (name, [(b.name, b.witness) for b in bad])
    _ok(3, f"structure identity suite has zero residual on all "
           f"{len(POSITIVE)} positive catalog entries")


def test_criterion_04_curvature_suite(analyses):
    count = 0
    for name in POSITIVE:
        an = analyses(name)
        items = list(check_rxyxi_general(an))
        if an.alpha_is_constant:
            items += list(check_r2_suite(an))
            if parakaehler_leaves_check(an):
                items.append(check_q_commutator(an))
        bad = [it for it in items if it.status == "fail"]
        assert not bad, (name, [(b.name, b.witness) for b in bad])
        count += len(items)
    _ok(4, f"curvature identity suite passes ({count} checks over "
           f"{len(POSITIVE)} entries)")


def test_criterion_05_deformation(analyses):
    an = analyses("example_e")
    ctx = an.chart.context
    beta = ctx.element(2)
    an_t = StructureAnalysis(d_homothetic_deform(an.structure, 3, beta))
    assert (an_t.A - an.A * Fraction(1, 2)).is_zero()
    assert (an_t.h - an.h * Fraction(1, 2)).is_zero()
    assert an_t.alpha == Fraction(1, 2)
    fit, fit_t = nullity_fit(an), nullity_fit(an_t)
    pred = transform_kmn(
        fit.kappa, fit.mu, fit.nu, an.alpha, 3, beta, an.xi_derivative(beta)
    )
    assert all(p == f for p, f in zip(pred, fit_t.triple))
    i0 = invariant_I0(fit.kappa, fit.mu, fit.nu, an.alpha)
    rng = random.Random(5)
    for _ in range(5):
        gamma = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        b = Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 3))
        a2 = StructureAnalysis(d_homothetic_deform(an.structure, gamma, ctx.element(b)))
        f2 = nullity_fit(a2)
        assert invariant_I0(f2.kappa, f2.mu, f2.nu, a2.alpha) == i0
    _ok(5, "homothetic deformation laws exact (A, h halved; deformed "
           "nullity constants match the closed form; I0 = 1/2 invariant "
           "across 5 random parameter pairs)")


def test_criterion_06_constant_curvature(analyses):
    from paracosym.curvature import constant_curvature_probe

    an = analyses("warped_kenmotsu")
    probe = constant_curvature_probe(an)
    assert probe.is_space_form and probe.c == sp.Integer(-1)
    assert an.h.is_zero()
    h2 = sp.Matrix(3, 3, lambda i, j: sum(an.h.array[i, k] * an.h.array[k, j] for k in range(3)))
    assert h2.is_zero_matrix
    _ok(6, "warped product entry is a space form with c = -alpha^2 = -1 "
           "and h^2 = 0, exactly")


FAMILY = """
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


def test_criterion_07_classification_total():
    rng = random.Random(7)
    tags = {"H1": 0, "H2": 0, "H3": 0, "Zero": 0}
    for _ in range(100):
        a, b = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
        c, d = Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))
        text = FAMILY.format(
            p=f"({a})*x + ({b})*y",
            q=f"({c})*x + ({d})*y",
            alpha=sp.Rational(Fraction(a + d, 2)),
        )
        an = StructureAnalysis(
            AlmostParacontactStructure.from_definition(load_definition(text))
        )
        ht = classify_h(an)
        assert ht.tag in tags
        tags[ht.tag] += 1
    assert all(v > 0 for v in tags.values())
    assert h4_impossibility_test()
    _ok(7, f"100 random structures all classified (counts {tags}); the "
           "null-chain Jordan shape is impossible for h")


def test_criterion_08_harmonic_nullity(analyses):
    for name in THREE_DIM:
        rep = harmonic_nullity_equivalence(analyses(name))
        assert rep.equivalent, name
        bad = [it for it in rep.case_items if it.status == "fail"]
        assert not bad, (name, [(b.name, b.witness) for b in bad])
    rep = harmonic_nullity_equivalence(analyses("sigma_nonzero"))
    assert not rep.harmonic and not rep.nullity
    _ok(8, "harmonicity of the Reeb field is equivalent to the nullity "
           "condition on all seven 3D entries; case constants match the "
           "frame coefficients")


def test_criterion_09_calculus_backbone(analyses):
    from paracosym.geometry import exterior_derivative

    ctx = ScalarContext(("x", "y", "z"), ())
    f = ctx.coordinate(0) ** 2 * ctx.coordinate(1) - ctx.coordinate(2) ** 3 / 3
    rng = random.Random(9)
    step = Fraction(1, 10**6)
    for _ in range(50):
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(3)]
        c = rng.randint(0, 2)
        up, dn = list(pt), list(pt)
        up[c] += step
        dn[c] -= step
        fd = (exact_value(ctx, f, tuple(up)) - exact_value(ctx, f, tuple(dn))) / (2 * step)
        exact = exact_value(ctx, ctx.partial_element(f, c), tuple(pt))
        denom = max(1.0, abs(float(exact)))
        assert abs(float(fd - exact)) / denom < 1e-6
    for name in POSITIVE:
        an = analyses(name)
        assert exterior_derivative(exterior_derivative(an.structure.eta)).is_zero()
        R = an.R.array
        n = an.chart.dim
        for i in range(n):
            for a in range(n):
                for b in range(n):
                    for cc in range(n):
                        cyc = R[i, a, b, cc] + R[i, b, cc, a] + R[i, cc, a, b]
                        assert sp.cancel(cyc) == 0, name
    _ok(9, "symbolic partials agree with central differences at 50 points "
           "(rel. 1e-6); d(d eta) = 0 and the first Bianchi identity hold "
           "exactly on every positive entry")


def test_criterion_10_deterministic_reports(tmp_path):
    path = tmp_path / "entry.txt"
    path.write_text(catalog_entry("example_e").definition_text)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "paracosym.cli", "analyze", "--json", str(path)],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    json.loads(runs[0].stdout)
    _ok(10, "two analyze --json runs are byte-identical")
