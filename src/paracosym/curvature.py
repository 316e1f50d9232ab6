"""Curvature identities tied to the Reeb field.

Everything here consumes a StructureAnalysis.  The identities fall into two
groups: those valid for arbitrary alpha (the general R(X,Y)xi formula) and
those requiring constant alpha (the Jacobi-operator suite, the Ricci
commutator, constant sectional curvature, harmonicity of xi).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import sympy as sp

from .geometry import (
    TensorField,
    compose11,
    contract,
    covariant_derivative,
    identity_tensor,
)
from .scalars import ScalarField
from .structures import (
    CheckItem,
    StructureAnalysis,
    _antisymmetrized,
    _gradient,
    _residual_item,
    _scalar_item,
)


def check_rxyxi_general(an: StructureAnalysis) -> List[CheckItem]:
    """R(X,Y)xi through derivatives of alpha and of phi.h (any alpha)."""
    s = an.structure
    chart = an.chart
    if not an.is_apc:
        return [CheckItem("R(X,Y)xi formulas", "skip", reason="not apc")]

    eta = s.eta
    alpha = an.alpha
    delta = identity_tensor(chart).comps
    rxy_xi = contract("iabk,k->iab", an.R, s.xi)  # R(d_a, d_b) xi
    nab_phih = contract("iba->iab", an.nabphih)  # (nabla_{d_a} phi.h) d_b
    items: List[CheckItem] = []

    # R(X,Y)xi = X(alpha) P Y - Y(alpha) P X + alpha eta(X)(alpha Y + phi.h Y)
    #   - alpha eta(Y)(alpha X + phi.h X) + (nabla_X phi.h)Y - (nabla_Y phi.h)X
    rhs = (
        contract("a,ib->iab", _gradient(an.alpha), an.proj)
        + contract("a,ib->iab", eta, alpha * (alpha * delta + an.phih.comps))
        + nab_phih
    )
    items.append(
        _residual_item(
            "R(X,Y)xi via d(alpha) and nabla(phi.h)",
            TensorField(chart, 1, 2, rxy_xi - _antisymmetrized(rhs)),
        )
    )

    if s.n >= 2 and an.alpha_extraction.f is not None:
        f = an.alpha_extraction.f
        B = (f + alpha**2) * delta + alpha * an.phih.comps
        rhs2 = contract("a,ib->iab", eta, B) + nab_phih
        items.append(
            _residual_item(
                "R(X,Y)xi with f (higher dimension)",
                TensorField(chart, 1, 2, rxy_xi - _antisymmetrized(rhs2)),
            )
        )
    else:
        items.append(
            CheckItem(
                "R(X,Y)xi with f (higher dimension)",
                "skip",
                reason="stated only for dim >= 5",
            )
        )
    return items


def divergence_phih(an: StructureAnalysis) -> TensorField:
    """div(phi.h)^k = g^{ij} (nabla_i phi.h)^k_j, a vector field."""
    return TensorField(an.chart, 1, 0, contract("ij,kji->k", an.ginv, an.nabphih))


def check_r2_suite(an: StructureAnalysis) -> List[CheckItem]:
    """Jacobi-operator and Ricci consequences (constant alpha only)."""
    s = an.structure
    chart = an.chart
    n = s.n
    names = [
        "R(xi,X)xi via h and nabla_xi(h)",
        "nabla_xi(h) via the Jacobi operator",
        "phi-average of the Jacobi operator",
        "S(X,xi) via div(phi.h)",
        "S(xi,xi) = -2n alpha^2 + tr h^2",
    ]
    if not an.is_apc:
        return [CheckItem(nm, "skip", reason="not apc") for nm in names]
    if not an.alpha_is_constant:
        return [CheckItem(nm, "skip", reason="alpha is not constant") for nm in names]

    phi, xi = s.phi, s.xi
    alpha = an.alpha
    h, l = an.h, an.l  # R(xi,X)xi = -l X
    items: List[CheckItem] = []

    nab_xi_h = an.nab_xi_h
    h2 = compose11(h, h)
    phi2 = contract("ik,kj->ij", phi, phi)

    # R(xi,X)xi = alpha^2 phi^2 X + 2 alpha phi h X - h^2 X + phi (nabla_xi h) X
    res1 = (
        -l.comps
        - alpha**2 * phi2
        - 2 * alpha * an.phih.comps
        + h2.comps
        - contract("ik,kj->ij", phi, nab_xi_h)
    )
    items.append(_residual_item(names[0], TensorField(chart, 1, 1, res1)))

    # (nabla_xi h) X = -alpha^2 phi X - 2 alpha h X + phi h^2 X - phi R(X,xi)xi
    res2 = (
        nab_xi_h.comps
        + alpha**2 * phi.comps
        + 2 * alpha * h.comps
        + contract("ik,kj->ij", phi, l.comps - h2.comps)
    )
    items.append(_residual_item(names[1], TensorField(chart, 1, 1, res2)))

    # (1/2)(R(xi,X)xi + phi R(xi, phi X)xi) = alpha^2 phi^2 X - h^2 X
    average = -(l.comps + contract("im,mn,nj->ij", phi, l, phi)) / 2
    res3 = average - alpha**2 * phi2 + h2.comps
    items.append(_residual_item(names[2], TensorField(chart, 1, 1, res3)))

    # S(X,xi) = -2n alpha^2 eta(X) + g(div(phi.h), X)
    res4 = (
        contract("jk,k->j", an.S, xi)
        + 2 * n * alpha**2 * s.eta.comps
        - contract("mj,m->j", s.g, divergence_phih(an))
    )
    items.append(_residual_item(names[3], TensorField(chart, 0, 1, res4)))

    szz = contract("ab,a,b->", an.S, xi, xi)
    items.append(_scalar_item(names[4], szz + 2 * n * alpha**2 - contract("ii->", h2)))
    return items


def check_r3_identity(an: StructureAnalysis) -> CheckItem:
    """Four-term curvature average against the h-directional nabla(Phi)."""
    s = an.structure
    name = "curvature phi-average via nabla(Phi)"
    if not an.is_apc:
        return CheckItem(name, "skip", reason="not apc")
    if not an.alpha_is_constant:
        return CheckItem(name, "skip", reason="alpha is not constant")
    chart = an.chart
    g, phi, eta = s.g, s.phi, s.eta
    alpha = an.alpha

    # Y[n,a,b] = g(R(xi, d_a) d_b, d_n), staged R.xi first
    Y = TensorField(chart, 0, 3, contract("imab,m,in->nab", an.R, s.xi, g))
    lhs = (
        contract("cab->abc", Y)
        + contract("nam,mb,nc->abc", Y, phi, phi)
        - contract("cnk,na,kb->abc", Y, phi, phi)
        - contract("nkb,ka,nc->abc", Y, phi, phi)
    )
    # M[a,c] = alpha g(d_a, d_c) + g(phi.h d_a, d_c)
    M = alpha * g.comps + contract("mc,ma->ac", g, an.phih)
    rhs = 2 * contract("da,bcd->abc", an.h, an.nabPhi) + 2 * alpha * (
        contract("b,ac->abc", eta, M) - contract("c,ab->abc", eta, M)
    )
    return _residual_item(name, TensorField(chart, 0, 3, lhs - rhs))


def check_q_commutator(an: StructureAnalysis) -> CheckItem:
    """Ricci-operator commutator with phi (constant alpha, leaves condition)."""
    from .structures import parakaehler_leaves_check

    s = an.structure
    name = "Ricci commutator [Q,phi]"
    if not an.is_apc:
        return CheckItem(name, "skip", reason="not apc")
    if not an.alpha_is_constant:
        return CheckItem(name, "skip", reason="alpha is not constant")
    if not parakaehler_leaves_check(an):
        return CheckItem(name, "skip", reason="leaves are not para-Kaehler")
    phi, xi, eta = s.phi, s.xi, s.eta
    alpha = an.alpha
    Q = an.Q
    # [Q, phi] = [l, phi] - 4 alpha (1 - n) h - eta(.) phi Q xi + eta(Q phi .) xi
    Q_minus_l = Q.comps - an.l.comps
    res = (
        contract("ik,kj->ij", Q_minus_l, phi)
        - contract("ik,kj->ij", phi, Q_minus_l)
        + 4 * alpha * (1 - s.n) * an.h.comps
        + contract("mk,k,im,j->ij", Q, xi, phi, eta)
        - contract("m,mk,kj,i->ij", eta, Q, phi, xi)
    )
    return _residual_item(name, TensorField(an.chart, 1, 1, res))


@dataclass
class ConstantCurvatureResult:
    is_space_form: bool
    c: Optional[sp.Rational]  # the sectional curvature when constant
    witness: Optional[str] = None


def constant_curvature_probe(an: StructureAnalysis) -> ConstantCurvatureResult:
    """Test R(X,Y)Z = c (g(Y,Z)X - g(X,Z)Y) and recover c exactly."""
    g = an.structure.g
    R = an.R.comps
    delta = identity_tensor(an.chart)
    model = contract("bk,ia->iabk", g, delta) - contract("ak,ib->iabk", g, delta)

    subs = an.chart.point_subs()
    cf = an.chart.context.zero()
    for idx in an.R.indices():
        m = model[idx]
        if not m or m.denom.as_expr().subs(subs) == 0 or m.numer.as_expr().subs(subs) == 0:
            continue
        cf = ScalarField(an.chart.context, R[idx] / m)
        break

    residual = TensorField(an.chart, 1, 3, R - cf * model)
    if not residual.is_zero():
        w = residual.first_nonzero()
        return ConstantCurvatureResult(
            False, None, witness=f"component {w[0]}: {sp.sstr(w[1])}"
        )
    if not cf.is_constant():
        return ConstantCurvatureResult(
            False, None, witness=f"c = {cf} is not constant"
        )
    return ConstantCurvatureResult(True, cf.constant_value())


def check_space_form_constraints(an: StructureAnalysis) -> List[CheckItem]:
    """If the metric has constant sectional curvature c, then c = -alpha^2
    and h^2 = 0."""
    probe = constant_curvature_probe(an)
    if not probe.is_space_form:
        return [
            CheckItem(
                "space-form constraints",
                "skip",
                reason="not of constant sectional curvature",
            )
        ]
    items = []
    alpha = an.alpha
    items.append(
        _scalar_item("space form: c = -alpha^2", alpha**2 + probe.c)
    )
    items.append(
        _residual_item("space form: h^2 = 0", compose11(an.h, an.h))
    )
    return items


# --------------------------------------------------------------------
# rough Laplacian of xi and harmonicity


def rough_laplacian_xi(an: StructureAnalysis) -> TensorField:
    """Trace of the second covariant derivative of xi, as a vector field."""
    nxi = covariant_derivative(an.structure.xi, an.conn)  # [k, c]
    nnxi = covariant_derivative(nxi, an.conn)  # [k, c, d], d the new direction
    return TensorField(an.chart, 1, 0, contract("cd,kcd->k", an.ginv, nnxi))


def check_rough_laplacian_formula(an: StructureAnalysis) -> CheckItem:
    """-trace(nabla^2 xi) = (2n alpha^2 - tr h^2) xi - P(Q xi), with P the
    projection onto ker(eta).

    The right side equals -Q(xi), so the statement is trace(nabla^2 xi) =
    Q(xi); the closed form is stated for the Bochner-sign Laplacian
    (the one with nonnegative spectrum on a compact Riemannian manifold)."""
    s = an.structure
    name = "rough Laplacian of xi, closed form"
    if not an.is_apc:
        return CheckItem(name, "skip", reason="not apc")
    if not an.alpha_is_constant:
        return CheckItem(name, "skip", reason="alpha is not constant")
    alpha = an.alpha
    trh2 = contract("ik,ki->", an.h, an.h)
    res = (
        -rough_laplacian_xi(an).comps
        - (2 * s.n * alpha**2 - trh2) * s.xi.comps
        + contract("mk,k,im->i", an.Q, s.xi, an.proj)
    )
    return _residual_item(name, TensorField(an.chart, 1, 0, res))


def xi_is_harmonic(an: StructureAnalysis) -> Tuple[bool, Optional[str]]:
    """xi is harmonic iff Q xi = S(xi,xi) xi, equivalently sigma = 0."""
    xi = an.structure.xi
    szz = contract("ab,a,b->", an.S, xi, xi)
    res = contract("ik,k->i", an.Q, xi) - szz * xi.comps
    w = TensorField(an.chart, 1, 0, res).first_nonzero()
    if w is None:
        return True, None
    return False, f"Q(xi) - S(xi,xi) xi has component {w[0]}: {sp.sstr(w[1])}"


def check_jacobi_self_adjoint(an: StructureAnalysis) -> CheckItem:
    gl = contract("mj,mi->ij", an.structure.g, an.l)  # g(l d_i, d_j)
    return _residual_item(
        "Jacobi operator self-adjoint",
        TensorField(an.chart, 0, 2, gl - contract("ij->ji", gl)),
    )
