import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from paracosym.catalog import _lie_family, catalog_entry
from paracosym.cli import main
from paracosym.deform import (
    conformal_deform,
    d_homothetic_deform,
    invariant_I0,
    transform_kmn,
    verify_deformation_laws,
)
from paracosym.errors import DeformationParameterError
from paracosym.nullity import nullity_fit
from paracosym.parser import load_definition, parse_scalar
from paracosym.report import run_analyze, run_deform
from paracosym.structures import AlmostParacontactStructure, StructureAnalysis


def _const(an, value):
    return an.chart.context.element(Fraction(value))


def _deform(an, gamma, beta):
    s_t = d_homothetic_deform(an.structure, gamma, beta)
    return StructureAnalysis(s_t)


def test_constant_deformation_laws(analyses):
    an = analyses("example_e")
    beta = _const(an, 2)
    an_t = _deform(an, 3, beta)
    assert an_t.axioms_ok and an_t.is_apc
    assert an_t.alpha == Fraction(1, 2)
    # A~ = A/2 and h~ = h/2, checked entrywise
    assert (an_t.A - an.A * Fraction(1, 2)).is_zero()
    assert (an_t.h - an.h * Fraction(1, 2)).is_zero()
    items = verify_deformation_laws(an, an_t, 3, beta)
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_deformed_nullity_matches_closed_form(analyses):
    an = analyses("example_e")
    beta = _const(an, 2)
    an_t = _deform(an, 3, beta)
    fit = nullity_fit(an)
    fit_t = nullity_fit(an_t)
    assert fit.status == "exact" and fit_t.status == "exact"
    pred = transform_kmn(
        fit.kappa, fit.mu, fit.nu, an.alpha, 3, beta, an.xi_derivative(beta)
    )
    for predicted, fitted in zip(pred, fit_t.triple):
        assert predicted == fitted
    assert fit_t.kappa.is_zero()
    assert fit_t.mu == 1
    assert fit_t.nu == -1


def test_identity_deformation(analyses):
    an = analyses("example_e")
    an_t = _deform(an, 1, _const(an, 1))
    assert (an_t.structure.g - an.structure.g).is_zero()
    assert (an_t.structure.xi - an.structure.xi).is_zero()


def test_functoriality_of_constant_deformations(analyses):
    an = analyses("example_e")
    b1, b2 = _const(an, 2), _const(an, Fraction(3, 2))
    once = d_homothetic_deform(an.structure, 3, b1)
    twice = d_homothetic_deform(once, 5, b2)
    direct = d_homothetic_deform(an.structure, 15, b1 * b2)
    assert (twice.g - direct.g).is_zero()
    assert (twice.eta - direct.eta).is_zero()
    assert (twice.xi - direct.xi).is_zero()


def test_nonconstant_beta(analyses):
    # beta = 1 + z has d(beta) = dz = eta for this entry
    an = analyses("example_e")
    beta = 1 + an.chart.context.coordinate(2)
    an_t = _deform(an, 2, beta)
    assert an_t.axioms_ok and an_t.is_apc
    z = an_t.chart.context.coordinate(2)
    assert an_t.alpha == 1 / (1 + z)
    items = verify_deformation_laws(an, an_t, 2, beta)
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_beta_not_proportional_to_eta(analyses):
    an = analyses("example_e")
    beta = an.chart.context.coordinate(0)  # d(x) ^ eta != 0, with eta = dz
    with pytest.raises(DeformationParameterError, match=r"d\(beta\) \^ eta != 0 at component \(0,2\)"):
        d_homothetic_deform(an.structure, 2, beta)


def test_beta_vanishing_at_base_point(analyses):
    an = analyses("example_e")  # base point has z = 0
    with pytest.raises(DeformationParameterError):
        d_homothetic_deform(an.structure, 2, an.chart.context.coordinate(2))


def test_generator_beta_decided_exactly_at_base_point(analyses):
    # E = exp(2t) is 1 at the base point t = 0: E/10^13 is 1e-13 there, not
    # zero, and E - 1 is exactly zero there
    an = analyses("warped_kenmotsu")
    ctx = an.chart.context
    tiny = parse_scalar("E/10000000000000", ctx)
    an_t = _deform(an, 1, tiny)
    assert an_t.axioms_ok and an_t.is_apc
    with pytest.raises(DeformationParameterError, match="vanishes at the base point"):
        d_homothetic_deform(an.structure, 1, parse_scalar("E - 1", ctx))


def test_gamma_must_be_positive(analyses):
    an = analyses("example_e")
    for gamma in (0, -3, Fraction(-1, 2)):
        with pytest.raises(DeformationParameterError):
            d_homothetic_deform(an.structure, gamma, _const(an, 2))


def test_I0_invariant_under_random_deformations(analyses):
    an = analyses("example_e")
    fit = nullity_fit(an)
    i0 = invariant_I0(fit.kappa, fit.mu, fit.nu, an.alpha)
    assert i0 == Fraction(1, 2)
    rng = random.Random(41)
    for _ in range(6):
        gamma = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        beta = Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))
        an_t = _deform(an, gamma, _const(an, beta))
        fit_t = nullity_fit(an_t)
        assert fit_t.status == "exact"
        i0_t = invariant_I0(fit_t.kappa, fit_t.mu, fit_t.nu, an_t.alpha)
        assert i0 == i0_t


# name -> (definition, fitted (kappa, mu, nu), I0, (exit code, passed,
# failed) of the deform report) of a structure whose nullity parameters are
# functions: the abstract's deformation invariance beyond constant triples;
# at the base [1, 1, 0] mu = z vanishes and nu has a pole, which the report
# fails as "nullity triple defined at the point"
FUNCTION_NULLITY = {
    "lie_E_h1": (
        _lie_family("x", "E*x + y", "[1, 1, 1]") + "\n[generators]\nE = { coord = z, rate = 1 }\n",
        ("E^2/4 - 1", "E", "-3"),
        "(E**2 + 8)/(4*E**2)",
        (0, 15, 0),
    ),
    "x+zy": (
        _lie_family("x + z*y", "y", "[1, 1, 1]"),
        ("z^2/4 - 1", "z", "(-2*z - 1)/z"),
        "(z**3 + 4*z + 4)/(4*z**3)",
        (0, 15, 0),
    ),
    "x+zy-mu-zero-at-base": (
        _lie_family("x + z*y", "y"),
        ("z^2/4 - 1", "z", "(-2*z - 1)/z"),
        "(z**3 + 4*z + 4)/(4*z**3)",
        (3, 15, 1),
    ),
}


@pytest.mark.parametrize("gamma, beta", [(2, "1+z"), (3, "2"), (Fraction(1, 2), "2+z^2")])
@pytest.mark.parametrize("name", FUNCTION_NULLITY)
def test_function_valued_nullity_transport(name, gamma, beta):
    text, triple, i0, summary_counts = FUNCTION_NULLITY[name]
    defn = load_definition(text)
    an = StructureAnalysis(AlmostParacontactStructure.from_definition(defn))
    ctx = an.chart.context
    fit = nullity_fit(an)
    assert fit.status == "exact"
    assert fit.triple == tuple(parse_scalar(t, ctx) for t in triple)
    b = parse_scalar(beta, ctx)
    an_t = _deform(an, gamma, b)
    fit_t = nullity_fit(an_t)
    assert fit_t.status == "exact"
    assert fit_t.triple == transform_kmn(*fit.triple, an.alpha, gamma, b, an.xi_derivative(b))
    assert invariant_I0(*fit_t.triple, an_t.alpha) == invariant_I0(*fit.triple, an.alpha)
    rep = run_deform(defn, gamma=gamma, beta=b)
    summary, transport = rep.tree["summary"], rep.tree["nullity_transport"]
    assert (rep.exit_code, summary["passed"], summary["failed"]) == summary_counts
    assert transport["I0"] == transport["I0_deformed"] == i0


# a fitted triple with a pole at the base point, and the witness that names
# it: nu = (-2z - 1)/z at z = 0, and nu = -z/(z - 1) at z = 1 (where mu = 0);
# the first triple at z = 1 is defined, and no item names it
POLE_AT_BASE = {
    "x+zy": (_lie_family("x + z*y", "y"), "nu = (-2*z - 1)/z"),
    "x/z": (_lie_family("x/z", "y", "[1, 1, 1]"), "nu = -z/(z - 1)"),
    "x+zy-at-z=1": (_lie_family("x + z*y", "y", "[1, 1, 1]"), None),
}


@pytest.mark.parametrize("name", POLE_AT_BASE)
def test_a_nullity_triple_with_a_pole_at_the_base_point_fails(name):
    text, witness = POLE_AT_BASE[name]
    defn = load_definition(text)
    deformed = run_deform(defn, gamma=2, beta=parse_scalar("1+z", defn.context()))
    analyzed = run_analyze(defn)
    if witness is None:
        for rep in (deformed, analyzed):
            assert rep.exit_code == 0
            assert "nullity triple defined at the point" not in rep.to_json()
        return
    item = {"name": "nullity triple defined at the point", "status": "fail", "witness": witness}
    assert deformed.exit_code == 3
    assert deformed.tree["nullity_transport"]["items"][-1] == item
    assert analyzed.exit_code == 3
    assert analyzed.tree["nullity"]["consequences"][-1] == item


def test_I0_undefined_when_mu_zero(analyses):
    an = analyses("example_e")
    zero = an.chart.context.element(0)
    with pytest.raises(DeformationParameterError):
        invariant_I0(zero, zero, zero, an.alpha)


def test_deform_reports_I0_as_a_skip_when_mu_is_zero():
    # kappa and nu fit exactly with mu = 0: the transport section names I0
    # as a skipped item, with invariant_I0's reason
    defn = load_definition(_lie_family("x/z", "y", "[1, 1, 2]"))
    rep = run_deform(defn, gamma=2, beta=parse_scalar("1+z", defn.context()))
    transport = rep.tree["nullity_transport"]
    assert transport["fitted"]["mu"] == "0" and "I0" not in transport
    assert transport["items"][-1] == {"name": "I0 invariant", "status": "skip", "reason": "I0 is undefined when mu = 0"}
    assert (rep.exit_code, rep.tree["summary"]["skipped"]) == (0, 1)


def test_conformal_flattens_alpha(analyses):
    an = analyses("example_e")
    u = an.chart.context.coordinate(2)  # du = dz = alpha*eta since alpha = 1
    s_p = conformal_deform(an, u)
    an_p = StructureAnalysis(s_p)
    assert an_p.axioms_ok and an_p.is_apc
    assert an_p.alpha.is_zero()


def test_conformal_rejects_wrong_u(analyses):
    an = analyses("example_e")
    with pytest.raises(DeformationParameterError):
        conformal_deform(an, an.chart.context.coordinate(0))
    with pytest.raises(DeformationParameterError):
        conformal_deform(an, 2 * an.chart.context.coordinate(2))


def test_conformal_identity_when_alpha_zero(analyses):
    an = analyses("flat_product")
    s_p = conformal_deform(an, an.chart.context.element(0))
    assert (s_p.g - an.structure.g).is_zero()


BENCH_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "digests.json"


def test_deform_builds_no_riemann_tensor(tmp_path, monkeypatch, capsys):
    # the nullity fit and the R~(X,Y)xi~ law read R(X,Y)xi, which comes
    # from nabla A: every pinned deformation prints its pinned bytes with
    # the Riemann kernel made to raise
    from paracosym import geometry, structures

    def no_riemann(conn):
        raise AssertionError("deform built the Riemann tensor")

    monkeypatch.setattr(geometry, "riemann", no_riemann)
    monkeypatch.setattr(structures, "riemann", no_riemann)
    pinned = json.loads(BENCH_DIGESTS.read_text())
    calls = [(key.split(":")[1:], digest) for key, digest in sorted(pinned.items()) if key.startswith("deform:")]
    assert len(calls) == 5
    for (entry, *args), digest in calls:
        path = tmp_path / f"{entry}.txt"
        path.write_text(catalog_entry(entry).definition_text)
        assert main(["deform", str(path), "--json", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (entry, args)
