"""Almost paracontact metric structures on a chart.

Materializes the quadruple (phi, xi, eta, g), verifies its axioms, extracts
the proportionality function alpha from dPhi = 2*alpha*(eta^Phi), computes
the tensors A = -nabla(xi) and h = (1/2) L_xi phi, and runs the suite of
structural identities that hold on every almost alpha-paracosymplectic
manifold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import sympy as sp

from .errors import ConventionBugError, EngineError, StructureError
from .geometry import (
    Chart,
    Components,
    ConnectionCoefficients,
    TensorField,
    apply11,
    christoffel,
    compose11,
    contract,
    covariant_derivative,
    exterior_derivative,
    identity_tensor,
    lie_derivative,
    metric_inverse,
    ricci_operator,
    ricci_tensor,
    riemann,
    scalar_curvature,
    signature_at,
    wedge,
)
from .parser import ManifoldDefinition, parse_scalar
from .scalars import ScalarField


@dataclass
class CheckItem:
    """One verified identity/axiom: pass, fail (with witness), or skip."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    witness: Optional[str] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _residual_item(name: str, residual: TensorField) -> CheckItem:
    w = residual.first_nonzero()
    if w is None:
        return CheckItem(name, "pass")
    idx, value = w
    return CheckItem(name, "fail", witness=f"component {idx}: {sp.sstr(value)}")


def _gradient(fld: ScalarField) -> Components:
    """Components of d(fld)."""
    n = fld.context.dim
    return Components(n, 1, [fld.partial(c).value for c in range(n)])


def _antisymmetrized(t: Components) -> Components:
    """T[i,a,b] - T[i,b,a] for a raw (1,2) component array."""
    return t - contract("iba->iab", t)


def d_wedge_eta(
    s: "AlmostParacontactStructure", fld: ScalarField
) -> Optional[Tuple[Tuple[int, ...], sp.Expr]]:
    """First nonzero component (i, j), i < j, of d(fld) ^ eta, or None."""
    w = contract("i,j->ij", _gradient(fld), s.eta)
    return TensorField(s.chart, 0, 2, w - contract("ij->ji", w)).first_nonzero()


def _scalar_item(name: str, value: ScalarField) -> CheckItem:
    if value.is_zero():
        return CheckItem(name, "pass")
    return CheckItem(name, "fail", witness=sp.sstr(value.expr))


class AlmostParacontactStructure:
    """(phi, xi, eta, g) on a chart with a rational base point."""

    def __init__(
        self,
        chart: Chart,
        phi: TensorField,
        xi: TensorField,
        eta: TensorField,
        g: TensorField,
        declared_alpha: Optional[ScalarField] = None,
    ):
        self.chart = chart
        self.phi = phi
        self.xi = xi
        self.eta = eta
        self.g = g
        self.declared_alpha = declared_alpha

    @property
    def dim(self) -> int:
        return self.chart.dim

    @property
    def n(self) -> int:
        return (self.chart.dim - 1) // 2

    @classmethod
    def from_definition(cls, defn: ManifoldDefinition) -> "AlmostParacontactStructure":
        ctx = defn.context()
        chart = Chart(ctx, defn.base_point)

        def mat(rows):
            return [[parse_scalar(e, ctx) for e in row] for row in rows]

        def vec(entries):
            return [parse_scalar(e, ctx) for e in entries]

        phi = TensorField(chart, 1, 1, mat(defn.phi))
        xi = TensorField(chart, 1, 0, vec(defn.xi))
        eta = TensorField(chart, 0, 1, vec(defn.eta))
        g = TensorField(chart, 0, 2, mat(defn.metric))
        declared = (
            parse_scalar(defn.declared_alpha, ctx)
            if defn.declared_alpha is not None
            else None
        )
        return cls(chart, phi, xi, eta, g, declared)


# --------------------------------------------------------------------
# axioms


def verify_axioms(s: AlmostParacontactStructure) -> List[CheckItem]:
    n_tot = s.dim
    n = s.n
    chart = s.chart
    phi, xi, eta, g = s.phi, s.xi, s.eta, s.g
    items: List[CheckItem] = []

    items.append(_scalar_item("eta(xi) = 1", contract("k,k->", eta, xi) - 1))

    phi2 = contract("ik,kj->ij", phi, phi) + contract("i,j->ij", xi, eta)
    phi2 = phi2 - identity_tensor(chart).comps
    items.append(_residual_item("phi^2 = Id - eta(x)xi", TensorField(chart, 1, 1, phi2)))

    # g(phi X, phi Y) = -g(X,Y) + eta(X) eta(Y)
    gphiphi = contract("ki,kl,lj->ij", phi, g, phi) + g.comps - contract("i,j->ij", eta, eta)
    items.append(
        _residual_item("g(phi.,phi.) = -g + eta(x)eta", TensorField(chart, 0, 2, gphiphi))
    )

    gxi = contract("ij,j->i", g, xi) - eta.comps
    items.append(_residual_item("eta = g(xi,.)", TensorField(chart, 0, 1, gxi)))

    items.append(_residual_item("phi(xi) = 0", apply11(phi, xi)))

    eta_phi = contract("k,kj->j", eta, phi)
    items.append(_residual_item("eta o phi = 0", TensorField(chart, 0, 1, eta_phi)))

    try:
        sig = signature_at(s.g)
        if sig == (n + 1, n):
            items.append(CheckItem("signature (n+1,n) at base point", "pass"))
        else:
            items.append(
                CheckItem(
                    "signature (n+1,n) at base point",
                    "fail",
                    witness=f"got {sig}, expected {(n + 1, n)}",
                )
            )
    except EngineError as exc:  # a degenerate metric or a pole is a failure, not a crash
        items.append(
            CheckItem("signature (n+1,n) at base point", "fail", witness=str(exc))
        )

    # eigendistributions D+/D- of phi inside ker(eta) have dimension n each
    try:
        phi0 = s.phi.eval_at()
    except EngineError as exc:  # a pole of phi at the base point fails both items
        for label in ("D+", "D-"):
            items.append(CheckItem(f"dim {label} = n at base point", "fail", witness=str(exc)))
        return items
    m = sp.Matrix(n_tot, n_tot, lambda i, j: phi0[i, j])
    for sign, label in ((1, "D+"), (-1, "D-")):
        null_dim = n_tot - (m - sign * sp.eye(n_tot)).rank()
        if null_dim == n:
            items.append(CheckItem(f"dim {label} = n at base point", "pass"))
        else:
            items.append(
                CheckItem(
                    f"dim {label} = n at base point",
                    "fail",
                    witness=f"dim = {null_dim}, expected {n}",
                )
            )
    return items


# --------------------------------------------------------------------
# fundamental form and alpha


def fundamental_form(s: AlmostParacontactStructure) -> TensorField:
    """Phi(X,Y) = g(phi X, Y); must be antisymmetric with i_xi Phi = 0."""
    Phi = TensorField(s.chart, 0, 2, contract("ki,kj->ij", s.phi, s.g))
    sym = TensorField(s.chart, 0, 2, Phi.comps + contract("ij->ji", Phi)).first_nonzero()
    if sym is not None:
        i, j = sym[0]
        raise StructureError(f"fundamental form has a symmetric part at ({i},{j})")
    if not TensorField(s.chart, 0, 1, contract("i,ij->j", s.xi, Phi)).is_zero():
        raise StructureError("i_xi Phi != 0")
    return Phi


@dataclass
class AlphaExtraction:
    alpha: Optional[ScalarField]
    f: Optional[ScalarField]  # f = xi(alpha); satisfies d(alpha) = f*eta
    is_apc: bool
    reason: Optional[str] = None


def extract_alpha(s: AlmostParacontactStructure, Phi: TensorField) -> AlphaExtraction:
    chart = s.chart
    n_tot = s.dim

    deta = exterior_derivative(s.eta)
    if not deta.is_zero():
        w = deta.first_nonzero()
        return AlphaExtraction(None, None, False, f"d(eta) != 0 at component {w[0]}")

    dPhi = exterior_derivative(Phi)
    ep = wedge(s.eta, Phi)

    # pick components where (eta^Phi) is nonzero at the base point
    subs = chart.point_subs()
    candidates = []
    for idx in itertools.combinations(range(n_tot), 3):
        val = ep.comps[idx]
        if not val:
            continue
        if val.denom.as_expr().subs(subs) != 0 and val.numer.as_expr().subs(subs) != 0:
            candidates.append(idx)
        if len(candidates) >= 2:
            break
    if not candidates:
        raise StructureError("eta ^ Phi vanishes at the base point")

    idx = candidates[0]
    alpha = ScalarField(chart.context, dPhi.comps[idx] / (2 * ep.comps[idx]))
    if len(candidates) > 1:
        idx2 = candidates[1]
        alpha2 = ScalarField(chart.context, dPhi.comps[idx2] / (2 * ep.comps[idx2]))
        if alpha != alpha2:
            return AlphaExtraction(
                None, None, False,
                "d(Phi) is not proportional to eta ^ Phi "
                f"(ratios differ between components {idx} and {idx2})",
            )

    residual = dPhi - ep.scale(alpha * 2)
    if not residual.is_zero():
        w = residual.first_nonzero()
        return AlphaExtraction(
            None, None, False,
            f"d(Phi) - 2*alpha*(eta^Phi) != 0 at component {w[0]}",
        )

    # f = xi(alpha); in dim >= 5 we also demand d(alpha) = f * eta
    dalpha = _gradient(alpha)
    f = contract("c,c->", s.xi, dalpha)
    if s.n >= 2:
        bad = TensorField(chart, 0, 1, dalpha - f * s.eta.comps).first_nonzero()
        if bad is not None:
            return AlphaExtraction(
                alpha, f, False, f"d(alpha) != f*eta at coordinate {bad[0][0]}"
            )

    if s.declared_alpha is not None and s.declared_alpha != alpha:
        raise StructureError(
            f"declared alpha = {s.declared_alpha} but extracted alpha = {alpha}"
        )
    return AlphaExtraction(alpha, f, True)


# --------------------------------------------------------------------
# A and h


def tensor_A(s: AlmostParacontactStructure, conn: ConnectionCoefficients) -> TensorField:
    """A = -nabla(xi) as a (1,1)-tensor, A^i_j = -(nabla_j xi)^i."""
    nxi = covariant_derivative(s.xi, conn)
    return TensorField(s.chart, 1, 1, -nxi.comps)


def tensor_h(s: AlmostParacontactStructure, conn: ConnectionCoefficients) -> TensorField:
    """h = (1/2) L_xi phi, cross-checked against (1/2)(A phi - phi A)."""
    h_lie = lie_derivative(s.xi, s.phi).scale(sp.Rational(1, 2))
    A = tensor_A(s, conn)
    h_alg = (compose11(A, s.phi) - compose11(s.phi, A)).scale(sp.Rational(1, 2))
    if h_lie != h_alg:
        w = (h_lie - h_alg).first_nonzero()
        raise ConventionBugError(
            f"(1/2)L_xi(phi) != (1/2)(A.phi - phi.A) at component {w[0]}"
        )
    return h_lie


# --------------------------------------------------------------------
# analysis container


class StructureAnalysis:
    """Derived data of a structure, computed lazily and cached."""

    def __init__(self, s: AlmostParacontactStructure):
        self.structure = s
        self.chart = s.chart

    @cached_property
    def axiom_report(self) -> List[CheckItem]:
        return verify_axioms(self.structure)

    @property
    def axioms_ok(self) -> bool:
        return all(item.ok for item in self.axiom_report)

    @cached_property
    def Phi(self) -> TensorField:
        return fundamental_form(self.structure)

    @cached_property
    def alpha_extraction(self) -> AlphaExtraction:
        return extract_alpha(self.structure, self.Phi)

    @property
    def is_apc(self) -> bool:
        return self.alpha_extraction.is_apc

    @property
    def alpha(self) -> ScalarField:
        return self.alpha_extraction.alpha

    @property
    def alpha_is_constant(self) -> bool:
        return self.alpha is not None and self.alpha.is_constant()

    @cached_property
    def conn(self) -> ConnectionCoefficients:
        return christoffel(self.structure.g)

    @cached_property
    def ginv(self) -> TensorField:
        return metric_inverse(self.structure.g)

    @cached_property
    def A(self) -> TensorField:
        return tensor_A(self.structure, self.conn)

    @cached_property
    def h(self) -> TensorField:
        return tensor_h(self.structure, self.conn)

    @cached_property
    def phih(self) -> TensorField:
        return compose11(self.structure.phi, self.h)

    @cached_property
    def R(self) -> TensorField:
        return riemann(self.conn)

    @cached_property
    def S(self) -> TensorField:
        return ricci_tensor(self.R)

    @cached_property
    def Q(self) -> TensorField:
        return ricci_operator(self.S, self.structure.g)

    @cached_property
    def r(self) -> ScalarField:
        return scalar_curvature(self.S, self.structure.g)

    @cached_property
    def l(self) -> TensorField:
        """Jacobi operator lX = R(X, xi)xi, staged through R(X, Y)xi."""
        xi = self.structure.xi
        return TensorField(self.chart, 1, 1, contract("ijab,b,a->ij", self.R, xi, xi))

    @cached_property
    def proj(self) -> TensorField:
        """Projection onto ker(eta): P = phi^2 = Id - eta(x)xi."""
        s = self.structure
        P = identity_tensor(self.chart).comps - contract("i,j->ij", s.xi, s.eta)
        return TensorField(self.chart, 1, 1, P)

    @cached_property
    def sigma(self) -> TensorField:
        """sigma = S(xi, .) restricted to ker(eta), as a covector."""
        sigma = contract("a,ab,bj->j", self.structure.xi, self.S, self.proj)
        return TensorField(self.chart, 0, 1, sigma)

    @cached_property
    def nabphi(self) -> TensorField:
        return covariant_derivative(self.structure.phi, self.conn)

    @cached_property
    def nabPhi(self) -> TensorField:
        return covariant_derivative(self.Phi, self.conn)

    @cached_property
    def nabphih(self) -> TensorField:
        return covariant_derivative(self.phih, self.conn)

    @cached_property
    def nabh(self) -> TensorField:
        return covariant_derivative(self.h, self.conn)

    @cached_property
    def nab_xi_h(self) -> TensorField:
        """nabla_xi h, from the cached nabla h."""
        return TensorField(self.chart, 1, 1, contract("ijz,z->ij", self.nabh, self.structure.xi))

    @cached_property
    def parakaehler_leaves_residual(self) -> TensorField:
        """Residual of (nabla_X phi)Y = alpha g(phiX,Y) xi + g(hX,Y) xi
        - alpha eta(Y) phi X - eta(Y) h X, as a (1,2)-tensor (i; X=a, Y=b);
        it vanishes iff the leaves are para-Kaehler."""
        s = self.structure
        w = self.alpha * s.phi.comps + self.h.comps  # hX + alpha phi X
        out = (
            contract("iba->iab", self.nabphi)
            - contract("mb,ma,i->iab", s.g, w, s.xi)
            + contract("b,ia->iab", s.eta, w)
        )
        return TensorField(self.chart, 1, 2, out)

    def xi_derivative(self, fld: ScalarField) -> ScalarField:
        xi = self.structure.xi
        return contract("c,c->", xi, _gradient(fld))


# --------------------------------------------------------------------
# identity suite


def identity_suite(an: StructureAnalysis) -> List[CheckItem]:
    """The structural identities valid on every almost
    alpha-paracosymplectic manifold (general, not necessarily constant,
    alpha)."""
    s = an.structure
    chart = an.chart
    n = s.n
    if not an.is_apc:
        return [CheckItem("identity suite", "skip", reason="not an apc structure")]

    g, phi, xi, eta = s.g, s.phi, s.xi, s.eta
    A, h, Phi = an.A, an.h, an.Phi
    nabphi, nabPhi = an.nabphi, an.nabPhi
    alpha = an.alpha
    items: List[CheckItem] = []

    def residual(name, r, s_, comps):
        items.append(_residual_item(name, TensorField(chart, r, s_, comps)))

    items.append(_residual_item("L_xi(eta) = 0", lie_derivative(xi, eta)))

    gA = TensorField(chart, 0, 2, contract("mj,mi->ij", g, A))  # g(A d_i, d_j)
    residual("A self-adjoint", 0, 2, gA.comps - contract("ij->ji", gA))
    items.append(_residual_item("A(xi) = 0", apply11(A, xi)))
    L_Phi = lie_derivative(xi, Phi).comps
    residual("L_xi(Phi) = 2*alpha*Phi", 0, 2, L_Phi - 2 * alpha * Phi.comps)
    residual("L_xi(g) = -2*g(A.,.)", 0, 2, lie_derivative(xi, g).comps + 2 * gA.comps)
    residual("eta o A = 0", 0, 1, contract("m,mj->j", eta, A))

    if n >= 2:
        f = an.alpha_extraction.f
        residual("d(alpha) = f*eta", 0, 1, _gradient(an.alpha) - f * eta.comps)
    else:
        items.append(
            CheckItem("d(alpha) = f*eta", "skip", reason="stated only for dim >= 5")
        )

    residual(
        "A.phi + phi.A = -2*alpha*phi",
        1,
        1,
        contract("ik,kj->ij", A, phi) + contract("ik,kj->ij", phi, A) + 2 * alpha * phi.comps,
    )

    residual("nabla_xi(phi) = 0", 1, 1, contract("ijz,z->ij", nabphi, xi))

    gh = TensorField(chart, 0, 2, contract("mj,mi->ij", g, h))  # g(h d_i, d_j)
    residual("h self-adjoint", 0, 2, gh.comps - contract("ij->ji", gh))
    hphi = contract("ik,kj->ij", h, phi)
    residual("h.phi + phi.h = 0", 1, 1, hphi + contract("ik,kj->ij", phi, h))
    items.append(_residual_item("h(xi) = 0", apply11(h, xi)))
    residual(
        "nabla(xi) = alpha*phi^2 + phi.h",
        1,
        1,
        alpha * contract("ik,kj->ij", phi, phi) + an.phih.comps + A.comps,
    )

    items.append(_scalar_item("tr(A.phi) = 0", contract("ik,ki->", A, phi)))
    items.append(_scalar_item("tr(h.phi) = 0", contract("ik,ki->", h, phi)))
    items.append(_scalar_item("tr(A) = -2*alpha*n", contract("ii->", A) + 2 * n * alpha))
    items.append(_scalar_item("tr(h) = 0", contract("ii->", h)))

    # (nabla_X Phi)(Y,Z) = g((nabla_X phi)Y, Z), with X = d_c, Y = d_j, Z = d_k
    residual(
        "nabla(Phi) via nabla(phi)",
        0,
        3,
        contract("jkc->cjk", nabPhi) - contract("mk,mjc->cjk", g, nabphi),
    )

    # (nabla_X Phi)(Z, phi Y) + (nabla_X Phi)(Y, phi Z)
    #   = -eta(Y) g(AX, Z) - eta(Z) g(AX, Y)
    shuffle = contract("kmc,mj->cjk", nabPhi, phi) + contract("j,ck->cjk", eta, gA)
    residual("nabla(Phi) phi-shuffle (ii)", 0, 3, shuffle + contract("ckj->cjk", shuffle))

    # (nabla_X Phi)(phi Y, phi Z) - (nabla_X Phi)(Y,Z)
    #   = eta(Y) g(AX, phi Z) - eta(Z) g(AX, phi Y)
    gAphi = contract("cn,nk->ck", gA, phi)  # g(A d_c, phi d_k)
    eta_gAphi = contract("j,ck->cjk", eta, gAphi)
    residual(
        "nabla(Phi) phi-shuffle (iii)",
        0,
        3,
        contract("mnc,mj,nk->cjk", nabPhi, phi, phi)
        - contract("jkc->cjk", nabPhi)
        - eta_gAphi
        + contract("ckj->cjk", eta_gAphi),
    )

    # the phi-derivative identities below are (1,2)-tensors (i; X = d_a, Y = d_b);
    # g(X, phi Y) = Phi(Y, X) and 2 alpha (g(X,Y) xi - eta(Y) X) is shared
    nab_phi_x = contract("ibc,ca->iab", nabphi, phi)  # (nabla_{phi X} phi) Y
    eta_phi = contract("b,ia->iab", eta, phi)
    metric_term = 2 * alpha * (
        contract("ab,i->iab", g, xi) - contract("b,ia->iab", eta, identity_tensor(chart))
    )

    # (nabla_{phiX} phi)(phiY) - (nabla_X phi)Y - eta(Y) A phi X
    #   - 2 alpha (g(X, phi Y) xi + eta(Y) phi X) = 0
    residual(
        "phi-derivative symmetry (B)",
        1,
        2,
        contract("idc,ca,db->iab", nabphi, phi, phi)
        - contract("iba->iab", nabphi)
        - contract("ik,ka,b->iab", A, phi, eta)
        - 2 * alpha * (contract("ba,i->iab", Phi, xi) + eta_phi),
    )

    # (nabla_{phiX} phi)Y - (nabla_X phi)(phiY) + eta(Y) AX
    #   - 2 alpha (g(X,Y) xi - eta(Y) X) = 0
    residual(
        "phi-derivative symmetry (first companion)",
        1,
        2,
        nab_phi_x
        - contract("ima,mb->iab", nabphi, phi)
        + contract("b,ia->iab", eta, A)
        - metric_term,
    )

    # (nabla_{phiX} phi)Y + phi (nabla_X phi)Y - g(AX,Y) xi
    #   - 2 alpha (g(X,Y) xi - eta(Y) X) = 0
    residual(
        "phi-derivative symmetry (second companion)",
        1,
        2,
        nab_phi_x
        + contract("im,mba->iab", phi, nabphi)
        - contract("ab,i->iab", gA, xi)
        - metric_term,
    )

    # phi (nabla_{phiX} phi)Y + (nabla_X phi)Y
    #   = -2 alpha eta(Y) phi X + g(alpha phi X + h X, Y) xi
    residual(
        "phi-derivative contraction with h-term",
        1,
        2,
        contract("mbc,ca,im->iab", nabphi, phi, phi)
        + contract("iba->iab", nabphi)
        + 2 * alpha * eta_phi
        - contract("ab,i->iab", alpha * Phi.comps + gh.comps, xi),
    )
    return items


# --------------------------------------------------------------------
# normality, para-Kaehler leaves, second fundamental form


def nijenhuis_normality(s: AlmostParacontactStructure) -> Tuple[TensorField, bool]:
    """N1(X,Y) = [phi,phi](X,Y) - 2 d(eta)(X,Y) xi; normal iff N1 = 0."""
    chart = s.chart
    n_tot = s.dim
    phi = s.phi.comps
    grid = itertools.product(range(n_tot), repeat=3)
    dphi = Components(  # dphi[k, j, m] = d_m phi^k_j
        n_tot, 3, [chart.context.partial_element(phi[k, j], m) for k, j, m in grid]
    )
    deta = exterior_derivative(s.eta)  # deta[i,j] = 2 d(eta)(d_i, d_j)
    half = contract("mi,kjm->kij", phi, dphi) + contract("km,mij->kij", phi, dphi)
    out = half - contract("kji->kij", half) - contract("ij,k->kij", deta, s.xi)
    N1 = TensorField(chart, 1, 2, out)
    return N1, N1.is_zero()


def parakaehler_leaves_check(an: StructureAnalysis) -> bool:
    return an.parakaehler_leaves_residual.is_zero()


@dataclass
class LeafGeometry:
    second_fundamental_form: TensorField  # (0,2), supported on ker(eta)
    umbilical: bool
    geodesic: bool


def leaf_second_fundamental_form(an: StructureAnalysis) -> LeafGeometry:
    """II(X,Y) = -alpha g(PX, PY) - g(PX, phi h PY), P the ker(eta) projection."""
    P = an.proj
    op = an.alpha * identity_tensor(an.chart).comps + an.phih.comps
    II = TensorField(an.chart, 0, 2, -contract("ma,mn,nk,kb->ab", P, an.structure.g, op, P))
    h_zero = an.h.is_zero()
    alpha_zero = an.alpha.is_zero()
    return LeafGeometry(II, umbilical=h_zero and not alpha_zero, geodesic=h_zero and alpha_zero)


def para_kenmotsu_biconditional(an: StructureAnalysis) -> CheckItem:
    """A normal structure with alpha = 1 is characterized by A = -phi^2.

    Left side: normality (vanishing N^1) together with alpha = 1 and
    para-Kaehler leaves.  Right side: the shape operator equals -phi^2.
    Both sides are decidable exactly, and the check asserts they agree."""
    s = an.structure
    name = "para-Kenmotsu criterion: normal with alpha = 1 <=> A = -phi^2"
    if not an.is_apc:
        return CheckItem(name, "skip", reason="not an apc structure")
    _, normal = nijenhuis_normality(s)
    lhs = normal and an.alpha == 1 and parakaehler_leaves_check(an)
    A_plus_phi2 = an.A.comps + contract("ik,kj->ij", s.phi, s.phi)
    rhs = TensorField(an.chart, 1, 1, A_plus_phi2).is_zero()
    if lhs == rhs:
        return CheckItem(name, "pass")
    return CheckItem(
        name,
        "fail",
        witness=f"normal/alpha=1/leaves side = {lhs}, A = -phi^2 side = {rhs}",
    )
