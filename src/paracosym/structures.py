"""Almost paracontact metric structures on a chart.

Materializes the quadruple (phi, xi, eta, g), verifies its axioms, extracts
the proportionality function alpha from dPhi = 2*alpha*(eta^Phi), computes
the tensors A = -nabla(xi) and h = (1/2) L_xi phi, and runs the suite of
structural identities that hold on every almost alpha-paracosymplectic
manifold.

StructureAnalysis is the one place where a tensor that more than one check
reads is built: g^{-1}, the connection, A, h, R, S, Q, r, h^2, h.phi,
phi^2, S(xi,xi), R(.,.)xi, N^1 and the covariant derivatives are cached
properties there, computed once per structure, and the checks read them
instead of rebuilding them.  Each is Components, and a TensorField where
a kernel reads its chart or valence (A, h and phi.h, say).  R(.,.)xi
comes from nabla A, so a caller that reads only it and the Jacobi
operator (the nullity fit, the deformation laws) never builds R.

Every check of every module builds its CheckItems here, through one
builder and one gate.  _item(name, witness) passes when the witness is
None and fails with it otherwise, and _skip(name, reason) skips;
_residual_item and _scalar_item hand a residual's first nonzero component
or nonzero value to _item as its witness.  unmet(an, *hypotheses) raises
StructureError unless the structure is almost alpha-paracosymplectic, and
otherwise returns the reason of the first hypothesis that fails, or None.
The hypotheses, and so the skip reasons a check can carry, are:
CONSTANT_ALPHA "alpha is not constant", DIM_5 "stated only for dim >= 5",
DIM_3 "3-dimensional statement", PK_LEAVES "leaves are not para-Kaehler"
and exact_fit(fit) "fit status is <status>".  check_space_form_constraints
also skips "not of constant sectional curvature", which a report never
carries: it runs that check on space forms only.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple

from .errors import ConventionBugError, EngineError, StructureError
from .geometry import (
    Chart,
    Components,
    TensorField,
    christoffel,
    contract,
    covariant_derivative,
    exterior_derivative,
    identity_tensor,
    lie_derivative,
    metric_inverse,
    partials,
    ricci_tensor,
    riemann,
    row_reduce,
    signature_at,
    wedge,
)
from .field import Frac
from .parser import ManifoldDefinition


class CheckItem(NamedTuple):
    """One verified identity/axiom: pass, fail (with witness), or skip."""

    name: str
    status: str  # "pass" | "fail" | "skip"
    witness: Optional[str] = None
    reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"


def _item(name: str, witness: Optional[str] = None) -> CheckItem:
    """The one pass/fail builder: pass when witness is None, else fail with it."""
    if witness is None:
        return CheckItem(name, "pass")
    return CheckItem(name, "fail", witness=witness)


def _skip(name: str, reason: str) -> CheckItem:
    return CheckItem(name, "skip", reason=reason)


def _residual_item(name: str, residual: Components) -> CheckItem:
    w = residual.first_nonzero()
    return _item(name, None if w is None else f"component {w[0]}: {w[1]}")


def _gradient(chart: Chart, f: Frac) -> TensorField:
    """d(f), the exterior derivative of the 0-form f."""
    return exterior_derivative(TensorField(chart, 0, 0, f))


def _antisymmetrized(t: Components) -> Components:
    """T[i,a,b] - T[i,b,a] for a raw (1,2) component array."""
    return t - contract("iba->iab", t)


def d_wedge_eta(
    s: "AlmostParacontactStructure", f: Frac
) -> Optional[Tuple[Tuple[int, ...], Frac]]:
    """First nonzero component (i, j), i < j, of d(f) ^ eta, or None."""
    return wedge(_gradient(s.chart, f), s.eta).first_nonzero()


def _scalar_item(name: str, value: Frac) -> CheckItem:
    return _item(name, None if value.is_zero() else str(value))


class AlmostParacontactStructure:
    """(phi, xi, eta, g) on a chart with a rational base point."""

    def __init__(
        self,
        chart: Chart,
        phi: TensorField,
        xi: TensorField,
        eta: TensorField,
        g: TensorField,
        declared_alpha: Optional[Frac] = None,
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
        chart = Chart(defn.context(), defn.base_point)
        phi = TensorField(chart, 1, 1, defn.phi)
        xi = TensorField(chart, 1, 0, defn.xi)
        eta = TensorField(chart, 0, 1, defn.eta)
        g = TensorField(chart, 0, 2, defn.metric)
        return cls(chart, phi, xi, eta, g, defn.declared_alpha)


# --------------------------------------------------------------------
# axioms


def verify_axioms(an: "StructureAnalysis") -> List[CheckItem]:
    """The axioms of the analysed structure; the projection is the
    analysis's cached proj, which later checks read as phi^2 once the
    axiom phi^2 = Id - eta(x)xi holds."""
    s = an.structure
    n_tot = s.dim
    n = s.n
    phi, xi, eta, g = s.phi, s.xi, s.eta, s.g
    items: List[CheckItem] = []

    items.append(_scalar_item("eta(xi) = 1", contract("k,k->", eta, xi) - 1))
    items.append(_residual_item("phi^2 = Id - eta(x)xi", contract("ik,kj->ij", phi, phi) - an.proj))

    # g(phi X, phi Y) = -g(X,Y) + eta(X) eta(Y)
    gphiphi = contract("ki,kl,lj->ij", phi, g, phi) + g - contract("i,j->ij", eta, eta)
    items.append(_residual_item("g(phi.,phi.) = -g + eta(x)eta", gphiphi))
    items.append(_residual_item("eta = g(xi,.)", contract("ij,j->i", g, xi) - eta))
    items.append(_residual_item("phi(xi) = 0", contract("ik,k->i", phi, xi)))
    items.append(_residual_item("eta o phi = 0", contract("k,kj->j", eta, phi)))

    try:
        sig = signature_at(s.g)
        witness = None if sig == (n + 1, n) else f"got {sig}, expected {(n + 1, n)}"
    except EngineError as exc:  # a degenerate metric or a pole is a failure, not a crash
        witness = str(exc)
    items.append(_item("signature (n+1,n) at base point", witness))

    # eigendistributions D+/D- of phi inside ker(eta) have dimension n each
    labels = ((1, "D+"), (-1, "D-"))
    try:
        phi0 = s.phi.eval_at()
    except EngineError as exc:  # a pole of phi at the base point fails both items
        return items + [_item(f"dim {label} = n at base point", str(exc)) for _, label in labels]
    for sign, label in labels:
        shifted = [
            [phi0[i, j] - sign if i == j else phi0[i, j] for j in range(n_tot)]
            for i in range(n_tot)
        ]
        null_dim = n_tot - len(row_reduce(shifted)[1])
        witness = None if null_dim == n else f"dim = {null_dim}, expected {n}"
        items.append(_item(f"dim {label} = n at base point", witness))
    return items


# --------------------------------------------------------------------
# fundamental form and alpha


def fundamental_form(s: AlmostParacontactStructure) -> TensorField:
    """Phi(X,Y) = g(phi X, Y); must be antisymmetric with i_xi Phi = 0."""
    Phi = TensorField(s.chart, 0, 2, contract("ki,kj->ij", s.phi, s.g))
    sym = (Phi + contract("ij->ji", Phi)).first_nonzero()
    if sym is not None:
        i, j = sym[0]
        raise StructureError(f"fundamental form has a symmetric part at ({i},{j})")
    if not contract("i,ij->j", s.xi, Phi).is_zero():
        raise StructureError("i_xi Phi != 0")
    return Phi


class AlphaExtraction(NamedTuple):
    alpha: Optional[Frac]
    f: Optional[Frac]  # f = xi(alpha); satisfies d(alpha) = f*eta
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

    # alpha is the ratio at the first component where (eta^Phi) is nonzero
    # at the base point; the residual test below decides proportionality
    at = chart.values_at()
    idx = next(
        (i for i in itertools.combinations(range(n_tot), 3) if ep[i] and at.is_unit(ep[i])),
        None,
    )
    if idx is None:
        raise StructureError("eta ^ Phi vanishes at the base point")
    alpha = dPhi[idx] / (2 * ep[idx])

    residual = dPhi - ep * (alpha * 2)
    if not residual.is_zero():
        w = residual.first_nonzero()
        return AlphaExtraction(
            None, None, False,
            f"d(Phi) - 2*alpha*(eta^Phi) != 0 at component {w[0]}",
        )

    # f = xi(alpha); in dim >= 5 we also demand d(alpha) = f * eta
    dalpha = _gradient(chart, alpha)
    f = contract("c,c->", s.xi, dalpha)
    if s.n >= 2:
        bad = (dalpha - f * s.eta).first_nonzero()
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


def tensor_A(s: AlmostParacontactStructure, conn: TensorField) -> TensorField:
    """A = -nabla(xi) as a (1,1)-tensor, A^i_j = -(nabla_j xi)^i."""
    return TensorField(s.chart, 1, 1, -covariant_derivative(s.xi, conn))


def tensor_h(s: AlmostParacontactStructure, A_phi: Components, phi_A: Components) -> TensorField:
    """h = (1/2) L_xi phi, cross-checked against (1/2)(A phi - phi A)."""
    h_lie = lie_derivative(s.xi, s.phi) / 2
    h_alg = (A_phi - phi_A) / 2
    if h_lie != h_alg:
        w = (h_lie - h_alg).first_nonzero()
        raise ConventionBugError(
            f"(1/2)L_xi(phi) != (1/2)(A.phi - phi.A) at component {w[0]}"
        )
    return TensorField(s.chart, 1, 1, h_lie)


# --------------------------------------------------------------------
# analysis container


class StructureAnalysis:
    """Derived data of a structure, computed lazily and cached: every
    tensor that more than one check reads is a property here."""

    def __init__(self, s: AlmostParacontactStructure):
        self.structure = s
        self.chart = s.chart

    @cached_property
    def axiom_report(self) -> List[CheckItem]:
        return verify_axioms(self)

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
    def alpha(self) -> Frac:
        return self.alpha_extraction.alpha

    @property
    def alpha_is_constant(self) -> bool:
        return self.alpha is not None and self.alpha.is_constant()

    @cached_property
    def conn(self) -> TensorField:
        """The connection coefficients Gamma^k_ij at [k, i, j] (christoffel)."""
        return christoffel(self.structure.g, self.ginv)

    @cached_property
    def ginv(self) -> TensorField:
        return metric_inverse(self.structure.g)

    @cached_property
    def A(self) -> TensorField:
        return tensor_A(self.structure, self.conn)

    @cached_property
    def A_phi(self) -> Tuple[Components, Components]:
        """(A.phi, phi.A), which h and the identity suite read."""
        phi = self.structure.phi
        return contract("ik,kj->ij", self.A, phi), contract("ik,kj->ij", phi, self.A)

    @cached_property
    def h(self) -> TensorField:
        return tensor_h(self.structure, *self.A_phi)

    @cached_property
    def phih(self) -> TensorField:
        return TensorField(self.chart, 1, 1, contract("ik,kj->ij", self.structure.phi, self.h))

    @cached_property
    def R(self) -> TensorField:
        return riemann(self.conn)

    @cached_property
    def S(self) -> TensorField:
        return ricci_tensor(self.R)

    @cached_property
    def Q(self) -> Components:
        """Ricci operator g^{-1} S."""
        return contract("ik,kj->ij", self.ginv, self.S)

    @cached_property
    def r(self) -> Frac:
        """Scalar curvature tr Q."""
        return contract("ii->", self.Q)

    @cached_property
    def szz(self) -> Frac:
        """S(xi, xi)."""
        xi = self.structure.xi
        return contract("ab,a,b->", self.S, xi, xi)

    @cached_property
    def R_xi(self) -> Components:
        """R(d_a, d_b) xi, as [i, a, b], from nabla A: with A = -nabla xi
        and a torsion-free connection, R(X, Y)xi = (nabla_Y A)X -
        (nabla_X A)Y, so R itself is never built for it."""
        return self.nabA - contract("iba->iab", self.nabA)

    @cached_property
    def l(self) -> TensorField:
        """Jacobi operator lX = R(X, xi)xi, from R(X, Y)xi."""
        return TensorField(self.chart, 1, 1, contract("iab,b->ia", self.R_xi, self.structure.xi))

    @cached_property
    def h2(self) -> Components:
        """h.h"""
        return contract("ik,kj->ij", self.h, self.h)

    @cached_property
    def hphi(self) -> Components:
        """h.phi"""
        return contract("ik,kj->ij", self.h, self.structure.phi)

    @cached_property
    def normality(self) -> Tuple[Components, bool]:
        """(N^1, whether it vanishes): nijenhuis_normality of the structure."""
        return nijenhuis_normality(self.structure)

    @cached_property
    def proj(self) -> Components:
        """Projection onto ker(eta): P = phi^2 = Id - eta(x)xi."""
        s = self.structure
        return identity_tensor(self.chart) - contract("i,j->ij", s.xi, s.eta)

    @cached_property
    def sigma(self) -> Components:
        """sigma = S(xi, .) restricted to ker(eta), as a covector."""
        return contract("a,ab,bj->j", self.structure.xi, self.S, self.proj)

    @cached_property
    def nabphi(self) -> TensorField:
        return covariant_derivative(self.structure.phi, self.conn)

    @cached_property
    def nabphi_ab(self) -> Components:
        """(nabla_{d_a} phi) d_b as [i, a, b]: nabla phi with its last two
        slots swapped."""
        return contract("iba->iab", self.nabphi)

    @cached_property
    def nabPhi(self) -> TensorField:
        return covariant_derivative(self.Phi, self.conn)

    @cached_property
    def nabphih(self) -> TensorField:
        return covariant_derivative(self.phih, self.conn)

    @cached_property
    def nabA(self) -> TensorField:
        """nabla A as [i, a, b] = ((nabla_{d_b} A) d_a)^i."""
        return covariant_derivative(self.A, self.conn)

    @cached_property
    def nabh(self) -> TensorField:
        return covariant_derivative(self.h, self.conn)

    @cached_property
    def nab_xi_h(self) -> Components:
        """nabla_xi h, from the cached nabla h."""
        return contract("ijz,z->ij", self.nabh, self.structure.xi)

    @cached_property
    def parakaehler_leaves_residual(self) -> Components:
        """Residual of (nabla_X phi)Y = alpha g(phiX,Y) xi + g(hX,Y) xi
        - alpha eta(Y) phi X - eta(Y) h X, as a (1,2)-tensor (i; X=a, Y=b);
        it vanishes iff the leaves are para-Kaehler."""
        s = self.structure
        w = self.alpha * s.phi + self.h  # hX + alpha phi X
        return (
            self.nabphi_ab
            - contract("mb,ma,i->iab", s.g, w, s.xi)
            + contract("b,ia->iab", s.eta, w)
        )

    def xi_derivative(self, f: Frac) -> Frac:
        return contract("c,c->", self.structure.xi, _gradient(self.chart, f))


# --------------------------------------------------------------------
# hypotheses and the gate


class Hypothesis(NamedTuple):
    """A hypothesis an identity is stated under, and the skip reason when
    it fails."""

    holds: Callable[[StructureAnalysis], bool]
    reason: str


CONSTANT_ALPHA = Hypothesis(lambda an: an.alpha_is_constant, "alpha is not constant")
DIM_5 = Hypothesis(lambda an: an.structure.n >= 2, "stated only for dim >= 5")
DIM_3 = Hypothesis(lambda an: an.structure.dim == 3, "3-dimensional statement")
PK_LEAVES = Hypothesis(lambda an: parakaehler_leaves_check(an), "leaves are not para-Kaehler")


def exact_fit(fit) -> Hypothesis:
    """The (kappa, mu, nu) fit is exact."""
    return Hypothesis(lambda an: fit.status == "exact", f"fit status is {fit.status}")


def unmet(an: StructureAnalysis, *hypotheses: Hypothesis) -> Optional[str]:
    """The one hypothesis gate of the checks: raise StructureError unless
    the structure is almost alpha-paracosymplectic, else the reason of the
    first hypothesis that fails, or None."""
    if not an.is_apc:
        raise StructureError(
            f"not almost alpha-paracosymplectic: {an.alpha_extraction.reason}"
        )
    return next((h.reason for h in hypotheses if not h.holds(an)), None)


# --------------------------------------------------------------------
# identity suite


def identity_suite(an: StructureAnalysis) -> List[CheckItem]:
    """The structural identities valid on every almost
    alpha-paracosymplectic manifold (general, not necessarily constant,
    alpha)."""
    unmet(an)
    s = an.structure
    chart = an.chart
    n = s.n
    g, phi, xi, eta = s.g, s.phi, s.xi, s.eta
    A, h, Phi = an.A, an.h, an.Phi
    nabphi, nabPhi = an.nabphi, an.nabPhi
    alpha = an.alpha
    items: List[CheckItem] = []

    def residual(name, comps):
        items.append(_residual_item(name, comps))

    residual("L_xi(eta) = 0", lie_derivative(xi, eta))

    gA = contract("mj,mi->ij", g, A)  # g(A d_i, d_j)
    residual("A self-adjoint", gA - contract("ij->ji", gA))
    residual("A(xi) = 0", contract("ik,k->i", A, xi))
    L_Phi = lie_derivative(xi, Phi)
    residual("L_xi(Phi) = 2*alpha*Phi", L_Phi - 2 * alpha * Phi)
    residual("L_xi(g) = -2*g(A.,.)", lie_derivative(xi, g) + 2 * gA)
    residual("eta o A = 0", contract("m,mj->j", eta, A))

    if reason := unmet(an, DIM_5):
        items.append(_skip("d(alpha) = f*eta", reason))
    else:
        f = an.alpha_extraction.f
        residual("d(alpha) = f*eta", _gradient(chart, alpha) - f * eta)

    A_phi, phi_A = an.A_phi
    residual("A.phi + phi.A = -2*alpha*phi", A_phi + phi_A + 2 * alpha * phi)

    residual("nabla_xi(phi) = 0", contract("ijz,z->ij", nabphi, xi))

    gh = contract("mj,mi->ij", g, h)  # g(h d_i, d_j)
    residual("h self-adjoint", gh - contract("ij->ji", gh))
    residual("h.phi + phi.h = 0", an.hphi + an.phih)
    residual("h(xi) = 0", contract("ik,k->i", h, xi))
    residual("nabla(xi) = alpha*phi^2 + phi.h", alpha * an.proj + an.phih + A)

    items.append(_scalar_item("tr(A.phi) = 0", contract("ik,ki->", A, phi)))
    items.append(_scalar_item("tr(h.phi) = 0", contract("ik,ki->", h, phi)))
    items.append(_scalar_item("tr(A) = -2*alpha*n", contract("ii->", A) + 2 * n * alpha))
    items.append(_scalar_item("tr(h) = 0", contract("ii->", h)))

    # (nabla_X Phi)(Y,Z) = g((nabla_X phi)Y, Z), with X = d_c, Y = d_j, Z = d_k
    nabPhi_cjk = contract("jkc->cjk", nabPhi)
    residual("nabla(Phi) via nabla(phi)", nabPhi_cjk - contract("mk,mjc->cjk", g, nabphi))

    # (nabla_X Phi)(Z, phi Y) + (nabla_X Phi)(Y, phi Z)
    #   = -eta(Y) g(AX, Z) - eta(Z) g(AX, Y)
    shuffle = contract("kmc,mj->cjk", nabPhi, phi) + contract("j,ck->cjk", eta, gA)
    residual("nabla(Phi) phi-shuffle (ii)", shuffle + contract("ckj->cjk", shuffle))

    # (nabla_X Phi)(phi Y, phi Z) - (nabla_X Phi)(Y,Z)
    #   = eta(Y) g(AX, phi Z) - eta(Z) g(AX, phi Y)
    gAphi = contract("cn,nk->ck", gA, phi)  # g(A d_c, phi d_k)
    eta_gAphi = contract("j,ck->cjk", eta, gAphi)
    residual(
        "nabla(Phi) phi-shuffle (iii)",
        contract("mnc,mj,nk->cjk", nabPhi, phi, phi)
        - nabPhi_cjk
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
        contract("idc,ca,db->iab", nabphi, phi, phi)
        - an.nabphi_ab
        - contract("ik,ka,b->iab", A, phi, eta)
        - 2 * alpha * (contract("ba,i->iab", Phi, xi) + eta_phi),
    )

    # (nabla_{phiX} phi)Y - (nabla_X phi)(phiY) + eta(Y) AX
    #   - 2 alpha (g(X,Y) xi - eta(Y) X) = 0
    residual(
        "phi-derivative symmetry (first companion)",
        nab_phi_x
        - contract("ima,mb->iab", nabphi, phi)
        + contract("b,ia->iab", eta, A)
        - metric_term,
    )

    # (nabla_{phiX} phi)Y + phi (nabla_X phi)Y - g(AX,Y) xi
    #   - 2 alpha (g(X,Y) xi - eta(Y) X) = 0
    residual(
        "phi-derivative symmetry (second companion)",
        nab_phi_x
        + contract("im,mba->iab", phi, nabphi)
        - contract("ab,i->iab", gA, xi)
        - metric_term,
    )

    # phi (nabla_{phiX} phi)Y + (nabla_X phi)Y
    #   = -2 alpha eta(Y) phi X + g(alpha phi X + h X, Y) xi
    residual(
        "phi-derivative contraction with h-term",
        contract("mbc,ca,im->iab", nabphi, phi, phi)
        + an.nabphi_ab
        + 2 * alpha * eta_phi
        - contract("ab,i->iab", alpha * Phi + gh, xi),
    )
    return items


# --------------------------------------------------------------------
# normality, para-Kaehler leaves, second fundamental form


def nijenhuis_normality(s: AlmostParacontactStructure) -> Tuple[Components, bool]:
    """N1(X,Y) = [phi,phi](X,Y) - 2 d(eta)(X,Y) xi as [k, i, j]; normal iff
    N1 = 0."""
    phi = s.phi
    dphi = partials(phi)  # dphi[k, j, m] = d_m phi^k_j
    deta = exterior_derivative(s.eta)  # deta[i,j] = 2 d(eta)(d_i, d_j)
    half = contract("mi,kjm->kij", phi, dphi) + contract("km,mij->kij", phi, dphi)
    N1 = half - contract("kji->kij", half) - contract("ij,k->kij", deta, s.xi)
    return N1, N1.is_zero()


def parakaehler_leaves_check(an: StructureAnalysis) -> bool:
    return an.parakaehler_leaves_residual.is_zero()


class LeafGeometry(NamedTuple):
    umbilical: bool
    geodesic: bool


def leaf_second_fundamental_form(an: StructureAnalysis) -> LeafGeometry:
    """The leaves of ker(eta) from their second fundamental form
    II(X,Y) = -alpha g(PX, PY) - g(PX, phi h PY), P the ker(eta)
    projection.  phi h is trace-free, so II is proportional to g on ker(eta)
    exactly when h = 0: the leaves are then umbilical, and totally geodesic
    when alpha = 0 too.  Only h and alpha are read; II is never built."""
    h_zero = an.h.is_zero()
    alpha_zero = an.alpha.is_zero()
    return LeafGeometry(umbilical=h_zero and not alpha_zero, geodesic=h_zero and alpha_zero)


def para_kenmotsu_biconditional(an: StructureAnalysis) -> CheckItem:
    """A normal structure with alpha = 1 is characterized by A = -phi^2.

    Left side: normality (vanishing N^1) together with alpha = 1 and
    para-Kaehler leaves.  Right side: the shape operator equals -phi^2.
    Both sides are decidable exactly, and the check asserts they agree."""
    unmet(an)
    _, normal = an.normality
    lhs = normal and an.alpha == 1 and parakaehler_leaves_check(an)
    rhs = (an.A + an.proj).is_zero()
    return _item(
        "para-Kenmotsu criterion: normal with alpha = 1 <=> A = -phi^2",
        None if lhs == rhs else f"normal/alpha=1/leaves side = {lhs}, A = -phi^2 side = {rhs}",
    )
