"""Curvature identities tied to the Reeb field.

Everything here consumes a StructureAnalysis.  The identities fall into two
groups: those valid for arbitrary alpha (the general R(X,Y)xi formula) and
those requiring constant alpha (the Jacobi-operator suite, the Ricci
commutator, constant sectional curvature, harmonicity of xi).
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .geometry import Components, TensorField, contract, identity_tensor
from .structures import (
    CONSTANT_ALPHA,
    DIM_5,
    PK_LEAVES,
    CheckItem,
    StructureAnalysis,
    _antisymmetrized,
    _gradient,
    _residual_item,
    _scalar_item,
    _skip,
    unmet,
)


def check_rxyxi_general(an: StructureAnalysis) -> List[CheckItem]:
    """R(X,Y)xi through derivatives of alpha and of phi.h (any alpha)."""
    unmet(an)
    s = an.structure
    eta = s.eta
    alpha = an.alpha
    delta = identity_tensor(an.chart)
    rxy_xi = an.R_xi
    nab_phih = contract("iba->iab", an.nabphih)  # (nabla_{d_a} phi.h) d_b

    # R(X,Y)xi = X(alpha) P Y - Y(alpha) P X + alpha eta(X)(alpha Y + phi.h Y)
    #   - alpha eta(Y)(alpha X + phi.h X) + (nabla_X phi.h)Y - (nabla_Y phi.h)X
    rhs = (
        contract("a,ib->iab", _gradient(an.chart, an.alpha), an.proj)
        + contract("a,ib->iab", eta, alpha * (alpha * delta + an.phih))
        + nab_phih
    )
    general = _residual_item(
        "R(X,Y)xi via d(alpha) and nabla(phi.h)", rxy_xi - _antisymmetrized(rhs)
    )

    name = "R(X,Y)xi with f (higher dimension)"
    if reason := unmet(an, DIM_5):
        return [general, _skip(name, reason)]
    B = (an.alpha_extraction.f + alpha**2) * delta + alpha * an.phih
    rhs2 = contract("a,ib->iab", eta, B) + nab_phih
    return [general, _residual_item(name, rxy_xi - _antisymmetrized(rhs2))]


def divergence_phih(an: StructureAnalysis) -> Components:
    """div(phi.h)^k = g^{ij} (nabla_i phi.h)^k_j, a vector field."""
    return contract("ij,kji->k", an.ginv, an.nabphih)


def check_r2_suite(an: StructureAnalysis) -> List[CheckItem]:
    """Jacobi-operator and Ricci consequences (constant alpha only)."""
    s = an.structure
    n = s.n
    names = [
        "R(xi,X)xi via h and nabla_xi(h)",
        "nabla_xi(h) via the Jacobi operator",
        "phi-average of the Jacobi operator",
        "S(X,xi) via div(phi.h)",
        "S(xi,xi) = -2n alpha^2 + tr h^2",
    ]
    if reason := unmet(an, CONSTANT_ALPHA):
        return [_skip(nm, reason) for nm in names]

    phi, xi = s.phi, s.xi
    alpha = an.alpha
    h, l = an.h, an.l  # R(xi,X)xi = -l X
    items: List[CheckItem] = []

    nab_xi_h = an.nab_xi_h
    h2, phi2 = an.h2, an.phi2

    # R(xi,X)xi = alpha^2 phi^2 X + 2 alpha phi h X - h^2 X + phi (nabla_xi h) X
    res1 = (
        -l
        - alpha**2 * phi2
        - 2 * alpha * an.phih
        + h2
        - contract("ik,kj->ij", phi, nab_xi_h)
    )
    items.append(_residual_item(names[0], res1))

    # (nabla_xi h) X = -alpha^2 phi X - 2 alpha h X + phi h^2 X - phi R(X,xi)xi
    res2 = (
        nab_xi_h
        + alpha**2 * phi
        + 2 * alpha * h
        + contract("ik,kj->ij", phi, l - h2)
    )
    items.append(_residual_item(names[1], res2))

    # (1/2)(R(xi,X)xi + phi R(xi, phi X)xi) = alpha^2 phi^2 X - h^2 X
    average = -(l + contract("im,mn,nj->ij", phi, l, phi)) / 2
    items.append(_residual_item(names[2], average - alpha**2 * phi2 + h2))

    # S(X,xi) = -2n alpha^2 eta(X) + g(div(phi.h), X)
    res4 = (
        contract("jk,k->j", an.S, xi)
        + 2 * n * alpha**2 * s.eta
        - contract("mj,m->j", s.g, divergence_phih(an))
    )
    items.append(_residual_item(names[3], res4))
    items.append(_scalar_item(names[4], an.szz + 2 * n * alpha**2 - contract("ii->", an.h2)))
    return items


def check_r3_identity(an: StructureAnalysis) -> CheckItem:
    """Four-term curvature average against the h-directional nabla(Phi)."""
    s = an.structure
    name = "curvature phi-average via nabla(Phi)"
    if reason := unmet(an, CONSTANT_ALPHA):
        return _skip(name, reason)
    g, phi, eta = s.g, s.phi, s.eta
    alpha = an.alpha

    # Y[n,a,b] = g(R(xi, d_a) d_b, d_n), staged R.xi first
    Y = contract("imab,m,in->nab", an.R, s.xi, g)
    lhs = (
        contract("cab->abc", Y)
        + contract("nam,mb,nc->abc", Y, phi, phi)
        - contract("cnk,na,kb->abc", Y, phi, phi)
        - contract("nkb,ka,nc->abc", Y, phi, phi)
    )
    # M[a,c] = alpha g(d_a, d_c) + g(phi.h d_a, d_c)
    M = alpha * g + contract("mc,ma->ac", g, an.phih)
    rhs = 2 * contract("da,bcd->abc", an.h, an.nabPhi) + 2 * alpha * (
        contract("b,ac->abc", eta, M) - contract("c,ab->abc", eta, M)
    )
    return _residual_item(name, lhs - rhs)


def check_q_commutator(an: StructureAnalysis) -> CheckItem:
    """Ricci-operator commutator with phi (constant alpha, leaves condition)."""
    s = an.structure
    name = "Ricci commutator [Q,phi]"
    if reason := unmet(an, CONSTANT_ALPHA, PK_LEAVES):
        return _skip(name, reason)
    phi, xi, eta = s.phi, s.xi, s.eta
    alpha = an.alpha
    Q = an.Q
    # [Q, phi] = [l, phi] - 4 alpha (1 - n) h - eta(.) phi Q xi + eta(Q phi .) xi
    Q_minus_l = Q - an.l
    res = (
        contract("ik,kj->ij", Q_minus_l, phi)
        - contract("ik,kj->ij", phi, Q_minus_l)
        + 4 * alpha * (1 - s.n) * an.h
        + contract("mk,k,im,j->ij", Q, xi, phi, eta)
        - contract("m,mk,kj,i->ij", eta, Q, phi, xi)
    )
    return _residual_item(name, res)


class ConstantCurvatureResult(NamedTuple):
    is_space_form: bool
    c: Optional[Fraction]  # the sectional curvature when constant
    witness: Optional[str] = None


def constant_curvature_probe(an: StructureAnalysis) -> ConstantCurvatureResult:
    """Test R(X,Y)Z = c (g(Y,Z)X - g(X,Z)Y) and recover c exactly."""
    g = an.structure.g
    R = an.R
    delta = identity_tensor(an.chart)
    model = contract("bk,ia->iabk", g, delta) - contract("ak,ib->iabk", g, delta)

    at = an.chart.values_at()
    cf = an.chart.context.field.zero
    for idx, m in sorted(model.entries.items()):  # row-major
        if at.is_unit(m):
            cf = R[idx] / m
            break

    w = (R - cf * model).first_nonzero()
    if w is not None:
        return ConstantCurvatureResult(
            False, None, witness=f"component {w[0]}: {w[1]}"
        )
    if not cf.is_constant():
        return ConstantCurvatureResult(
            False, None, witness=f"c = {cf} is not constant"
        )
    return ConstantCurvatureResult(True, cf.constant_value())


def check_space_form_constraints(
    an: StructureAnalysis, probe: Optional[ConstantCurvatureResult] = None
) -> List[CheckItem]:
    """If the metric has constant sectional curvature c, then c = -alpha^2
    and h^2 = 0.  `probe` is `constant_curvature_probe(an)` when the caller
    already has it."""
    unmet(an)
    if probe is None:
        probe = constant_curvature_probe(an)
    if not probe.is_space_form:
        return [_skip("space-form constraints", "not of constant sectional curvature")]
    return [
        _scalar_item("space form: c = -alpha^2", an.alpha**2 + probe.c),
        _residual_item("space form: h^2 = 0", an.h2),
    ]


# --------------------------------------------------------------------
# rough Laplacian of xi and harmonicity


def rough_laplacian_xi(an: StructureAnalysis) -> TensorField:
    """Trace of the second covariant derivative of xi, as a vector field;
    nabla xi = -A."""
    return TensorField(an.chart, 1, 0, -contract("cd,kcd->k", an.ginv, an.nabA))


def check_rough_laplacian_formula(an: StructureAnalysis) -> CheckItem:
    """-trace(nabla^2 xi) = (2n alpha^2 - tr h^2) xi - P(Q xi), with P the
    projection onto ker(eta).

    The right side equals -Q(xi), so the statement is trace(nabla^2 xi) =
    Q(xi); the closed form is stated for the Bochner-sign Laplacian
    (the one with nonnegative spectrum on a compact Riemannian manifold)."""
    s = an.structure
    name = "rough Laplacian of xi, closed form"
    if reason := unmet(an, CONSTANT_ALPHA):
        return _skip(name, reason)
    alpha = an.alpha
    trh2 = contract("ii->", an.h2)
    res = (
        -rough_laplacian_xi(an)
        - (2 * s.n * alpha**2 - trh2) * s.xi
        + contract("mk,k,im->i", an.Q, s.xi, an.proj)
    )
    return _residual_item(name, res)


def xi_is_harmonic(an: StructureAnalysis) -> Tuple[bool, Optional[str]]:
    """xi is harmonic iff Q xi = S(xi,xi) xi, equivalently sigma = 0."""
    xi = an.structure.xi
    w = (contract("ik,k->i", an.Q, xi) - an.szz * xi).first_nonzero()
    if w is None:
        return True, None
    return False, f"Q(xi) - S(xi,xi) xi has component {w[0]}: {w[1]}"


def check_jacobi_self_adjoint(an: StructureAnalysis) -> CheckItem:
    gl = contract("mj,mi->ij", an.structure.g, an.l)  # g(l d_i, d_j)
    return _residual_item("Jacobi operator self-adjoint", gl - contract("ij->ji", gl))
