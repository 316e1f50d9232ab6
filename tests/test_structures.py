import itertools

import pytest
import sympy as sp

from paracosym.catalog import _lie_family, catalog
from paracosym.errors import StructureError
from paracosym.geometry import Components, TensorField, contract
from paracosym.parser import load_definition
from paracosym.structures import (
    AlmostParacontactStructure,
    StructureAnalysis,
    d_wedge_eta,
    fundamental_form,
    identity_suite,
    leaf_second_fundamental_form,
    nijenhuis_normality,
    para_kenmotsu_biconditional,
    parakaehler_leaves_check,
)


def shape_operator_residual(an) -> TensorField:
    """Residual of the equivalent leaves condition
    (nabla_X phi)Y = g(AX, phiY) xi + eta(Y) phi A X."""
    s = an.structure
    out = (
        contract("iba->iab", an.nabphi)
        - contract("ma,mn,nb,i->iab", an.A, s.g, s.phi, s.xi)
        - contract("ik,ka,b->iab", s.phi, an.A, s.eta)
    )
    return TensorField(an.chart, 1, 2, out)

POSITIVE = [
    "example_e",
    "flat_product",
    "warped_kenmotsu",
    "h1_rational",
    "h2_nilpotent",
    "h3_rotation",
    "five_dim_product",
    "five_dim_alpha_z",
    "sigma_nonzero",
    "five_dim_non_pk_leaves",
]


@pytest.mark.parametrize("name", POSITIVE)
def test_axioms_pass(analyses, name):
    an = analyses(name)
    bad = [it for it in an.axiom_report if not it.ok]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_axioms_fail_on_perturbed_metric(analyses):
    an = analyses("perturbed_metric")
    assert not an.axioms_ok
    failed = {it.name for it in an.axiom_report if it.status == "fail"}
    assert any("phi" in nm for nm in failed)


def test_alpha_extraction_values(analyses):
    assert analyses("example_e").alpha == 1
    assert analyses("flat_product").alpha == 0
    assert analyses("warped_kenmotsu").alpha == 1
    a5 = analyses("five_dim_alpha_z")
    assert not a5.alpha_is_constant
    z = a5.chart.context.coordinate(4)
    assert a5.alpha == 1 / (1 + z)
    # dim >= 5: f = xi(alpha)
    assert a5.alpha_extraction.f == -1 / ((1 + z) * (1 + z))


def test_non_apc_gate(analyses):
    an = analyses("non_apc")
    assert an.axioms_ok
    assert not an.is_apc
    assert an.alpha_extraction.reason


def test_alpha_is_decided_by_the_residual_alone():
    # the first 2x2 block of the metric scaled by 1 + z: d(Phi) and
    # eta ^ Phi are nonzero at (0, 1, 4) and (2, 3, 4) with different
    # ratios, so no alpha makes d(Phi) = 2*alpha*(eta ^ Phi)
    from paracosym.catalog import FIVE_DIM_PRODUCT

    text = (
        FIVE_DIM_PRODUCT.replace("metric = [[1, 0,", "metric = [[1 + z, 0,")
        .replace("[0, -1, 0, 0, 0]", "[0, -(1 + z), 0, 0, 0]")
        .replace("alpha = 0\n", "")
    )
    an = StructureAnalysis(AlmostParacontactStructure.from_definition(load_definition(text)))
    assert an.axioms_ok
    assert not an.is_apc
    assert an.alpha_extraction.reason == "d(Phi) - 2*alpha*(eta^Phi) != 0 at component (2, 3, 4)"


def test_declared_alpha_mismatch():
    from paracosym.catalog import catalog_entry

    text = catalog_entry("flat_product").definition_text.replace(
        "alpha = 0", "alpha = 1"
    )
    s = AlmostParacontactStructure.from_definition(load_definition(text))
    an = StructureAnalysis(s)
    with pytest.raises(StructureError):
        an.alpha_extraction


@pytest.mark.parametrize("name", ["example_e", "warped_kenmotsu", "five_dim_alpha_z"])
def test_identity_suite_exact(analyses, name):
    an = analyses(name)
    bad = [it for it in identity_suite(an) if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_h_cross_check_and_traces(analyses):
    an = analyses("example_e")
    # tr A = -2 n alpha, tr h = 0
    tr_A = sp.cancel(sum(an.A.array[i, i] for i in range(3)))
    tr_h = sp.cancel(sum(an.h.array[i, i] for i in range(3)))
    assert tr_A == -2
    assert tr_h == 0
    # A xi = h xi = 0
    s = an.structure
    for op in (an.A, an.h):
        for i in range(3):
            assert sp.cancel(
                sum(op.array[i, j] * s.xi.array[j] for j in range(3))
            ) == 0


def test_fundamental_form_antisymmetric(analyses):
    an = analyses("example_e")
    Phi = fundamental_form(an.structure)
    for i in range(3):
        for j in range(3):
            assert sp.cancel(Phi.array[i, j] + Phi.array[j, i]) == 0


def test_normality_flags(analyses):
    _, normal_e = nijenhuis_normality(analyses("example_e").structure)
    assert not normal_e
    _, normal_flat = nijenhuis_normality(analyses("flat_product").structure)
    assert normal_flat
    _, normal_w = nijenhuis_normality(analyses("warped_kenmotsu").structure)
    assert normal_w
    _, normal_npk = nijenhuis_normality(analyses("five_dim_non_pk_leaves").structure)
    assert not normal_npk


def test_shared_tensors_built_once_per_analyze(entries, monkeypatch):
    # g^{-1}, A and N^1 are read by several checks but built once, as cached
    # StructureAnalysis properties; every module global that names the
    # kernel is wrapped, so a call from any of them is counted
    from paracosym import geometry, report, structures

    calls = {"metric_inverse": 0, "tensor_A": 0, "nijenhuis_normality": 0}
    for name in calls:
        inner = getattr(structures, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        for module in (geometry, structures, report):
            if getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, counted)
    report.run_analyze(entries["five_dim_non_pk_leaves"].definition())
    assert calls == {"metric_inverse": 1, "tensor_A": 1, "nijenhuis_normality": 1}


def test_parakaehler_leaves(analyses):
    assert parakaehler_leaves_check(analyses("example_e"))
    assert parakaehler_leaves_check(analyses("warped_kenmotsu"))
    assert not parakaehler_leaves_check(analyses("five_dim_non_pk_leaves"))


def test_shape_operator_equivalent_form(analyses):
    an = analyses("example_e")
    assert shape_operator_residual(an).is_zero()


def test_leaf_geometry_flags(analyses):
    warped = leaf_second_fundamental_form(analyses("warped_kenmotsu"))
    assert warped.umbilical and not warped.geodesic
    flat = leaf_second_fundamental_form(analyses("flat_product"))
    assert flat.geodesic and not flat.umbilical
    e = leaf_second_fundamental_form(analyses("example_e"))
    assert not e.umbilical and not e.geodesic


@pytest.mark.parametrize(
    "name,expect_sides",
    [
        ("warped_kenmotsu", True),  # both sides true
        ("example_e", False),  # alpha = 1 but not normal; A != -phi^2
        ("flat_product", False),  # alpha = 0
    ],
)
def test_para_kenmotsu_biconditional(analyses, name, expect_sides):
    an = analyses(name)
    item = para_kenmotsu_biconditional(an)
    assert item.ok, (item.name, item.witness)
    s = an.structure
    rhs = (an.A + contract("ik,kj->ij", s.phi, s.phi)).is_zero()
    assert rhs is expect_sides


# every tensor a StructureAnalysis caches, by the name of its property
ANALYSIS_TENSORS = [
    "Phi", "conn", "ginv", "A", "h", "phih", "R", "S", "Q", "R_xi", "l", "h2", "hphi",
    "phi2", "proj", "sigma", "nabA", "nabphi", "nabPhi", "nabphih", "nabh", "nab_xi_h",
    "parakaehler_leaves_residual",
]


@pytest.mark.parametrize("name", ["example_e", "five_dim_non_pk_leaves"])
def test_every_analysis_tensor_is_components(analyses, name):
    an = analyses(name)
    for prop in ANALYSIS_TENSORS:
        assert isinstance(getattr(an, prop), Components), prop
    N1, _ = an.normality
    assert isinstance(N1, Components)
    # the ones a kernel reads a chart or a valence from are TensorFields
    for prop, valence in [("A", (1, 1)), ("h", (1, 1)), ("phih", (1, 1)), ("conn", (1, 2)), ("R", (1, 3))]:
        t = getattr(an, prop)
        assert isinstance(t, TensorField) and t.chart is an.chart and (t.r, t.s) == valence, prop


# R(X,Y)xi comes from nabla A, never from R: on every input whose axioms
# hold it must equal R contracted with xi, entry for entry; _lie_family
# draws: a linear one, two nonlinear ones and two with an exponential
# generator
R_XI_DRAWS = {
    "lie_linear": _lie_family("x", "y + 2*x"),
    "lie_nonlinear": _lie_family("x/2 - y + x*y", "-x + y/3 + x^2/2"),
    "lie_zero_at_base": _lie_family("y^2/2 - y", "x^2/2 - x"),
    "lie_E_x": _lie_family("E", "y + 2*x") + "\n[generators]\nE = { coord = x, rate = 1 }\n",
    "lie_E_z": _lie_family("x", "E*x + y", "[1, 1, 1]") + "\n[generators]\nE = { coord = z, rate = 1 }\n",
}


def _r_xi_pairs(an):
    return an.R_xi, contract("iabk,k->iab", an.R, an.structure.xi)


@pytest.mark.parametrize("name", [e.name for e in catalog()])
def test_r_xi_from_nabla_a_matches_riemann_on_the_catalog(analyses, name):
    an = analyses(name)
    if not an.axioms_ok:
        pytest.skip("the axioms fail, so no analysis reads R(X,Y)xi")
    got, want = _r_xi_pairs(an)
    assert got == want


@pytest.mark.parametrize("name", sorted(R_XI_DRAWS))
def test_r_xi_from_nabla_a_matches_riemann_on_lie_draws(name):
    defn = load_definition(R_XI_DRAWS[name])
    an = StructureAnalysis(AlmostParacontactStructure.from_definition(defn))
    assert an.axioms_ok
    got, want = _r_xi_pairs(an)
    assert got == want
    assert not got.is_zero()


def _df_eta_minus_eta_df(s, f):
    """The first nonzero entry, in row-major order, of df (x) eta - eta (x) df,
    or None."""
    ctx = s.chart.context
    df = [ctx.partial_element(f, c) for c in range(s.dim)]
    eta = list(s.eta)
    for i, j in itertools.product(range(s.dim), repeat=2):
        if w := df[i] * eta[j] - eta[i] * df[j]:
            return (i, j), w
    return None


def test_d_wedge_eta_is_df_eta_minus_eta_df(analyses):
    s = analyses("example_e").structure  # eta = dz
    x, y, z = (s.chart.context.coordinate(i) for i in range(3))
    defn = load_definition(R_XI_DRAWS["lie_E_z"])  # E = exp(z)
    gen = AlmostParacontactStructure.from_definition(defn)
    E, gx = gen.chart.context.variable("E"), gen.chart.context.coordinate(0)
    cases = [(s, x), (s, z * z), (s, x * y + z / (1 + x * x)), (gen, E), (gen, E * gx)]
    got = [d_wedge_eta(t, f) for t, f in cases]
    assert got == [_df_eta_minus_eta_df(t, f) for t, f in cases]
    assert got[1] is None and got[0] == ((0, 2), s.chart.context.element(1))
    assert got[4] is not None
