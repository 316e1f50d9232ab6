"""Conformal and D_(gamma,beta)-homothetic deformations.

The homothetic deformation sends (phi, xi, eta, g) to
phi~ = phi, xi~ = xi/beta, eta~ = beta*eta,
g~ = gamma*g + (beta^2 - gamma)*eta(x)eta
with gamma a positive rational constant and beta a nonvanishing scalar
whose differential is proportional to eta.  It rescales the fundamental
form by gamma and turns an alpha-structure into an (alpha/beta)-structure;
A, h, and R(.,.)xi transform by explicit laws verified here.

The conformal deformation rescales the metric by e^{-2u}; the Reeb field
and its dual form must then rescale by e^{u} and e^{-u} so that the
almost-paracontact-metric axioms survive (g'(xi',xi') = 1 and the
phi-compatibility of g' both force the half rate).  The fundamental form
becomes e^{-2u} Phi and d(Phi') = 2 e^{-2u} (alpha*eta - du) ^ Phi, so the
deformation kills alpha exactly when du = alpha*eta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple, Union

from .errors import DeformationParameterError
from .geometry import Chart, TensorField, contract
from .field import Frac
from .scalars import GeneratorDecl, ScalarContext
from .structures import (
    AlmostParacontactStructure,
    CheckItem,
    StructureAnalysis,
    _antisymmetrized,
    _gradient,
    _residual_item,
    d_wedge_eta,
    unmet,
)


def _check_eta_proportional(s: AlmostParacontactStructure, fld: Frac, what: str):
    """d(fld) ^ eta = 0, exactly."""
    bad = d_wedge_eta(s, fld)
    if bad is not None:
        i, j = bad[0]
        raise DeformationParameterError(f"d({what}) ^ eta != 0 at component ({i},{j})")


def _nonzero_at_base(s: AlmostParacontactStructure, fld: Frac, what: str):
    """fld is not zero at the base point, decided exactly (PoleError at a
    pole)."""
    if fld.is_zero():
        raise DeformationParameterError(f"{what} is identically zero")
    if not s.chart.values_at().value(fld):
        raise DeformationParameterError(f"{what} vanishes at the base point")


def d_homothetic_deform(
    s: AlmostParacontactStructure,
    gamma: Union[int, Fraction],
    beta: Frac,
) -> AlmostParacontactStructure:
    gamma = Fraction(gamma)
    if gamma <= 0:
        raise DeformationParameterError(f"gamma must be positive, got {gamma}")
    if beta.field.symbols != s.chart.context.field.symbols:
        raise DeformationParameterError("beta lives in a different scalar context")
    _check_eta_proportional(s, beta, "beta")
    _nonzero_at_base(s, beta, "beta")

    b = beta
    eta = s.eta
    xi_t = TensorField(s.chart, 1, 0, s.xi / b)
    eta_t = TensorField(s.chart, 0, 1, b * eta)
    g_t = TensorField(
        s.chart, 0, 2, gamma * s.g + (b**2 - gamma) * contract("i,j->ij", eta, eta)
    )
    return AlmostParacontactStructure(s.chart, s.phi, xi_t, eta_t, g_t)


def conformal_deform(
    an: StructureAnalysis, u: Frac
) -> AlmostParacontactStructure:
    """Requires du = alpha*eta (checked exactly); the output has alpha' = 0.

    u must be 0 or a rational multiple q*x_k of a single coordinate, so
    that e^{2u} is expressible by an exponential generator.
    """
    unmet(an)
    s = an.structure
    ctx = s.chart.context
    du_res = _gradient(s.chart, u) - an.alpha * s.eta
    bad = du_res.first_nonzero()
    if bad is not None:
        raise DeformationParameterError(
            f"du != alpha*eta at coordinate {bad[0][0]}; cannot conformally flatten alpha"
        )
    if u.is_zero():
        return AlmostParacontactStructure(s.chart, s.phi, s.xi, s.eta, s.g)

    rate, coord_index = _linear_coordinate_form(ctx, u)
    decl = None
    for i, gen in enumerate(ctx.generators):
        if gen.coord_index == coord_index and gen.rate == rate:
            decl = gen
            break
    if decl is None:
        name = "E_conf"
        existing = {g.name for g in ctx.generators} | set(ctx.coord_names)
        k = 0
        while name in existing:
            k += 1
            name = f"E_conf{k}"
        decl = GeneratorDecl(name, coord_index, rate)
        ctx = ScalarContext(ctx.coord_names, ctx.generators + (decl,))
    chart = Chart(ctx, s.chart.base_point)
    E = ctx.variable(decl.name)  # e^{u}

    def moved(t: TensorField) -> TensorField:  # t in the field of the new context
        return TensorField(chart, t.r, t.s, t)

    phi_p = moved(s.phi)
    xi_p = TensorField(chart, 1, 0, E * moved(s.xi))
    eta_p = TensorField(chart, 0, 1, moved(s.eta) / E)
    g_p = TensorField(chart, 0, 2, moved(s.g) / E**2)
    return AlmostParacontactStructure(chart, phi_p, xi_p, eta_p, g_p)


def _linear_coordinate_form(ctx: ScalarContext, u: Frac) -> Tuple[Fraction, int]:
    """Decompose u = q * x_k or fail."""
    if ctx.has_generators(u):
        raise DeformationParameterError(f"u = {u} is not of the form q*coordinate")
    for k in range(ctx.dim):
        q = u / ctx.coordinate(k)
        if q.is_constant():
            return q.constant_value(), k
    raise DeformationParameterError(f"u = {u} is not of the form q*coordinate")


# --------------------------------------------------------------------
# transformation laws


def verify_deformation_laws(
    an: StructureAnalysis,
    an_t: StructureAnalysis,
    gamma,
    beta: Frac,
) -> List[CheckItem]:
    """Verify the connection, A, h, and R(.,.)xi transformation laws of the
    homothetic deformation, exactly."""
    s = an.structure
    gamma = Fraction(gamma)
    b = beta
    dbeta_xi = an.xi_derivative(beta)
    xi, eta = s.xi, s.eta
    items: List[CheckItem] = []

    # connection: Gamma~^k_ab = Gamma^k_ab
    #   - ((b^2-gamma)/b^2) g(A d_a, d_b) xi^k + (dbeta(xi)/b) eta_a eta_b xi^k
    shift = ((b**2 - gamma) / b**2) * contract("mb,ma->ab", s.g, an.A) - (
        dbeta_xi / b
    ) * contract("a,b->ab", eta, eta)
    res = an_t.conn - an.conn + contract("ab,k->kab", shift, xi)
    items.append(_residual_item("deformed connection law", res))
    items.append(_residual_item("A~ = A/beta", an_t.A - an.A / b))
    items.append(_residual_item("h~ = h/beta", an_t.h - an.h / b))

    # R~(X,Y)xi~ = (1/beta) R(X,Y)xi
    #   + (dbeta(xi)/beta^2) [eta(X) A Y - eta(Y) A X]
    res7 = (
        an_t.R_xi
        - an.R_xi / b
        - (dbeta_xi / b**2) * _antisymmetrized(contract("a,ib->iab", eta, an.A))
    )
    items.append(_residual_item("R~(X,Y)xi~ law", res7))
    return items


def transform_kmn(
    kappa: Frac,
    mu: Optional[Frac],
    nu: Optional[Frac],
    alpha: Frac,
    gamma,
    beta: Frac,
    dbeta_xi: Frac,
):
    """Closed-form (kappa~, mu~, nu~) of the deformed nullity parameters."""
    b = beta
    kappa_t = kappa / (b * b) + alpha * dbeta_xi / (b * b * b)
    mu_t = mu / b if mu is not None else None
    nu_t = nu / b + dbeta_xi / (b * b) if nu is not None else None
    return kappa_t, mu_t, nu_t


def invariant_I0(
    kappa: Frac, mu: Frac, nu: Frac, alpha: Frac
) -> Frac:
    """I0 = (kappa - alpha*nu)/mu^2; undefined when mu = 0."""
    if mu is None or mu.is_zero():
        raise DeformationParameterError("I0 is undefined when mu = 0")
    return (kappa - alpha * nu) / (mu * mu)
