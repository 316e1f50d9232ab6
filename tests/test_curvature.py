from fractions import Fraction

import pytest
import sympy as sp

from paracosym import curvature as curv
from paracosym.geometry import covariant_derivative
from paracosym.structures import CheckItem
from support import numeric_at, three_dim_decomposition_residual


def frame_laplacian_cross_check(an, points, tol: float = 1e-9) -> CheckItem:
    """Numeric cross-check of the g-trace in rough_laplacian_xi against a
    pseudo-orthonormal frame built pointwise by congruence reduction."""
    s = an.structure
    n_tot = s.dim
    rng = range(n_tot)
    name = "rough Laplacian frame cross-check"
    nxi = covariant_derivative(s.xi, an.conn)
    nnxi = covariant_derivative(nxi, an.conn)
    lap = curv.rough_laplacian_xi(an)
    worst = 0.0
    for pt in points:
        gnum = numeric_at(s.g, pt)
        gm = sp.Matrix(n_tot, n_tot, lambda i, j: sp.Float(gnum[i, j], 30))
        basis, signs = _numeric_frame(gm)
        nn = numeric_at(nnxi, pt)
        expect = numeric_at(lap, pt)
        for k in rng:
            acc = sp.Float(0, 30)
            for e, eps in zip(basis, signs):
                acc += eps * sum(e[c] * e[d] * nn[k, c, d] for c in rng for d in rng)
            worst = max(worst, abs(float(acc - expect[k])))
    if worst <= tol:
        return CheckItem(name, "pass")
    return CheckItem(name, "fail", witness=f"max deviation {worst:.3e}")


def _numeric_frame(gm: sp.Matrix):
    """Vectors e_i with g(e_i, e_j) = eps_i delta_ij, by congruence
    reduction of the Gram matrix (floating point)."""
    n = gm.rows

    def inner(u, v):
        return sum(u[a] * gm[a, b] * v[b] for a in range(n) for b in range(n))

    frame, signs = [], []
    vecs = [[sp.Float(1 if i == j else 0, 30) for j in range(n)] for i in range(n)]
    for _ in range(n):
        # pick the remaining vector with the largest self-inner-product,
        # mixing in another one if all diagonals are tiny
        best, best_val = None, 0.0
        for i, v in enumerate(vecs):
            val = abs(float(inner(v, v)))
            if val > best_val:
                best, best_val = i, val
        if best is None or best_val < 1e-12:
            v0 = vecs[0]
            for w in vecs[1:]:
                cand = [a + b for a, b in zip(v0, w)]
                if abs(float(inner(cand, cand))) > 1e-12:
                    vecs[0] = cand
                    break
            best = 0
        v = vecs.pop(best)
        q = inner(v, v)
        eps = 1 if float(q) > 0 else -1
        scale = sp.sqrt(abs(q))
        e = [comp / scale for comp in v]
        frame.append(e)
        signs.append(eps)
        vecs = [[w[a] - eps * inner(w, e) * e[a] for a in range(n)] for w in vecs]
    return frame, signs


CONSTANT_ALPHA = [
    "example_e",
    "flat_product",
    "warped_kenmotsu",
    "h1_rational",
    "h2_nilpotent",
    "h3_rotation",
    "five_dim_product",
    "sigma_nonzero",
    "five_dim_non_pk_leaves",
]


@pytest.mark.parametrize("name", CONSTANT_ALPHA + ["five_dim_alpha_z"])
def test_reeb_curvature_general(analyses, name):
    items = curv.check_rxyxi_general(analyses(name))
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_reeb_curvature_f_variant_five_dim(analyses):
    items = curv.check_rxyxi_general(analyses("five_dim_alpha_z"))
    byname = {it.name: it for it in items}
    item = byname["R(X,Y)xi with f (higher dimension)"]
    assert item.status == "pass", item.witness


@pytest.mark.parametrize("name", ["example_e", "warped_kenmotsu", "h3_rotation", "sigma_nonzero"])
def test_r2_suite(analyses, name):
    items = curv.check_r2_suite(analyses(name))
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_r2_suite_skips_nonconstant_alpha(analyses):
    items = curv.check_r2_suite(analyses("five_dim_alpha_z"))
    assert all(it.status == "skip" for it in items)


@pytest.mark.parametrize("name", ["example_e", "h2_nilpotent"])
def test_phi_average(analyses, name):
    item = curv.check_r3_identity(analyses(name))
    assert item.ok, item.witness


def test_q_commutator_on_leaves_entries(analyses):
    item = curv.check_q_commutator(analyses("example_e"))
    assert item.status == "pass", item.witness
    # gated off when the leaves are not para-Kaehler
    item2 = curv.check_q_commutator(analyses("five_dim_non_pk_leaves"))
    assert item2.status == "skip"


def test_constant_curvature_warped(analyses):
    probe = curv.constant_curvature_probe(analyses("warped_kenmotsu"))
    assert probe.is_space_form
    assert probe.c == sp.Integer(-1)
    items = curv.check_space_form_constraints(analyses("warped_kenmotsu"))
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_constant_curvature_flat(analyses):
    probe = curv.constant_curvature_probe(analyses("flat_product"))
    assert probe.is_space_form and probe.c == 0


def test_not_constant_curvature(analyses):
    probe = curv.constant_curvature_probe(analyses("example_e"))
    assert not probe.is_space_form
    assert probe.witness


@pytest.mark.parametrize("name", CONSTANT_ALPHA)
def test_rough_laplacian_closed_form(analyses, name):
    item = curv.check_rough_laplacian_formula(analyses(name))
    assert item.ok, (item.status, item.witness)


def test_rough_laplacian_nonzero_case(analyses):
    # on the constant-curvature entry the closed form is -Q xi = 2 xi != 0,
    # so this case is not degenerate
    an = analyses("warped_kenmotsu")
    lap = curv.rough_laplacian_xi(an)
    s = an.structure
    res = (-lap) - s.xi.scale(sp.Integer(2))
    assert res.is_zero()


def test_frame_laplacian_cross_check(analyses):
    an = analyses("example_e")
    pts = [
        (Fraction(1), Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(-1), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 3), Fraction(-1)),
    ]
    item = frame_laplacian_cross_check(an, pts)
    assert item.status == "pass", item.witness


def test_harmonicity(analyses):
    ok, _ = curv.xi_is_harmonic(analyses("example_e"))
    assert ok
    bad, witness = curv.xi_is_harmonic(analyses("sigma_nonzero"))
    assert not bad and witness


def test_jacobi_self_adjoint(analyses):
    item = curv.check_jacobi_self_adjoint(analyses("example_e"))
    assert item.ok, item.witness


def test_jacobi_matches_oracle(analyses):
    # independent hand-derived Jacobi operator for the golden entry
    an = analyses("example_e")
    x, y = an.chart.context.coord_symbols[0], an.chart.context.coord_symbols[1]
    expected = [
        [2, 2, -(6 * x + 2 * y)],
        [-2, -2, 6 * x + 2 * y],
        [0, 0, 0],
    ]
    for i in range(3):
        for j in range(3):
            assert sp.cancel(an.l.array[i, j] - expected[i][j]) == 0


def test_three_dim_decomposition_sign_pin(analyses):
    g = analyses("example_e").structure.g
    assert three_dim_decomposition_residual(g).is_zero()
    assert not three_dim_decomposition_residual(g, ricci_sign=-1).is_zero()
