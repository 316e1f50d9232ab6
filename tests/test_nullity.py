from fractions import Fraction

import pytest

from paracosym.nullity import (
    _bi_residual,
    check_irem_suite,
    check_parakaehler_consequence,
    check_q_commutator_nullity,
    nullity_fit,
)


def test_example_e_fit_exact_and_unique(analyses):
    an = analyses("example_e")
    fit = nullity_fit(an)
    assert fit.status == "exact"
    assert fit.unique
    assert fit.kappa.is_zero()
    assert fit.mu == 2
    assert fit.nu == -2


def test_example_e_bi_residual_zero(analyses):
    an = analyses("example_e")
    fit = nullity_fit(an)
    assert _bi_residual(an, fit.B).is_zero()


@pytest.mark.parametrize(
    "name", ["example_e", "h1_rational", "h2_nilpotent", "h3_rotation"]
)
def test_consequence_suite(analyses, name):
    an = analyses(name)
    fit = nullity_fit(an)
    assert fit.status == "exact", fit.witness
    items = check_irem_suite(an, fit)
    bad = [it for it in items if it.status == "fail"]
    assert not bad, [(b.name, b.witness) for b in bad]


def test_h_type_fits(analyses):
    # kappa = -det-type constants for the three nondegenerate entries
    f1 = nullity_fit(analyses("h1_rational"))
    assert f1.kappa == Fraction(9, 4) - 1  # lambda^2 - alpha^2
    f3 = nullity_fit(analyses("h3_rotation"))
    assert f3.kappa == -2  # -(alpha^2 + lambda^2) = -(1 + 1)
    f2 = nullity_fit(analyses("h2_nilpotent"))
    assert f2.kappa == -1  # -alpha^2


def test_sigma_nonzero_is_not_nullity(analyses):
    fit = nullity_fit(analyses("sigma_nonzero"))
    assert fit.status == "not_nullity"
    assert fit.witness


@pytest.mark.parametrize(
    "name,kappa",
    [("flat_product", 0), ("warped_kenmotsu", -1), ("five_dim_product", 0)],
)
def test_degenerate_h_zero(analyses, name, kappa):
    fit = nullity_fit(analyses(name))
    assert fit.status == "degenerate_h_zero"
    assert fit.kappa == kappa  # kappa = -alpha^2 when h = 0
    assert fit.mu is None and fit.nu is None


def test_parakaehler_consequence(analyses):
    an = analyses("example_e")
    item = check_parakaehler_consequence(an, nullity_fit(an))
    assert item.ok, item.witness


def test_q_commutator_nullity(analyses):
    an = analyses("example_e")
    item = check_q_commutator_nullity(an, nullity_fit(an))
    assert item.status in ("pass", "skip"), item.witness
    if item.status == "pass":
        assert item.ok


def test_bi_residual_nonzero_for_wrong_constants(analyses):
    # sanity: perturbing the fitted operator must break the defining identity
    an = analyses("example_e")
    fit = nullity_fit(an)
    wrong = fit.B + an.h
    assert not _bi_residual(an, wrong).is_zero()
