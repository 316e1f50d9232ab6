"""(kappa, mu, nu)-nullity detection and its consequences.

A structure satisfies the nullity condition when
R(X,Y)xi = eta(Y) B X - eta(X) B Y with B = kappa*phi^2 + mu*h + nu*phi.h
for scalars kappa, mu, nu constant along the leaves (d(.)^eta = 0).
Setting Y = xi shows B must equal the Jacobi operator l, so the fit solves
l as a combination of a basis componentwise over the rational-function
field, from the reduced row echelon form of its augmented matrix
(geometry.row_reduce), then verifies the full two-argument condition and
d(.)^eta = 0 for each coefficient.  There is one fit, over one of two
bases: (phi^2, h, phi.h), or (phi^2) when h = 0, where only kappa is
determined (mu and nu are unconstrained and reported as None).  When
{phi^2, h, phi.h} are linearly dependent with h != 0 (nilpotent h) the
free unknowns are set to zero and the representation is reported as
non-unique after global verification.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple

from .field import Frac
from .geometry import Components, contract, identity_tensor, row_reduce
from .structures import (
    CONSTANT_ALPHA,
    CheckItem,
    StructureAnalysis,
    _antisymmetrized,
    _residual_item,
    _scalar_item,
    _skip,
    d_wedge_eta,
    exact_fit,
    unmet,
)


class NullityFit(NamedTuple):
    status: str  # "exact" | "degenerate_h_zero" | "not_nullity"
    kappa: Optional[Frac] = None
    mu: Optional[Frac] = None
    nu: Optional[Frac] = None
    B: Optional[Components] = None
    witness: Optional[str] = None
    unique: bool = True  # False when the parameter representation is non-unique

    @property
    def triple(self):
        return (self.kappa, self.mu, self.nu)


def _solve(rows: List[list]) -> Optional[Tuple[list, bool]]:
    """A solution of the linear system over the rational-function field whose
    augmented rows are given, with free unknowns set to zero, and whether it
    is unique; None when the system is inconsistent."""
    n = len(rows[0]) - 1
    reduced, pivots = row_reduce(rows)
    if n in pivots:  # the right-hand column takes a pivot
        return None
    sol = [0] * n
    for row, col in zip(reduced, pivots):
        sol[col] = row[n]
    return sol, len(pivots) == n


def _bi_residual(an: StructureAnalysis, B: Components) -> Components:
    """R(X,Y)xi - [eta(Y) B X - eta(X) B Y]."""
    return an.R_xi - _antisymmetrized(contract("b,ia->iab", an.structure.eta, B))


def nullity_fit(an: StructureAnalysis) -> NullityFit:
    """Solve l = kappa*phi^2 + mu*h + nu*phi.h over the basis (phi^2, h,
    phi.h), or over (phi^2) alone when h = 0, then check the two-argument
    condition and d(.)^eta = 0 for each coefficient."""
    rng = range(an.structure.dim)
    h_zero = an.h.is_zero()
    basis = (an.proj,) if h_zero else (an.proj, an.h, an.phih)
    solved = _solve([[b[i, j] for b in basis] + [an.l[i, j]] for i in rng for j in rng])
    if solved is None:
        span = "proportional to phi^2" if h_zero else "in the span of {phi^2, h, phi.h}"
        return NullityFit("not_nullity", witness=f"l is not {span}")
    sol, unique = solved
    coeffs = [an.chart.context.element(v) for v in sol]
    B = coeffs[0] * basis[0]
    for c, b in zip(coeffs[1:], basis[1:]):
        B = B + c * b
    w = _bi_residual(an, B).first_nonzero()
    if w is not None:
        return NullityFit("not_nullity", witness=f"component {w[0]}: {w[1]}")
    for name, fld in zip(("kappa", "mu", "nu"), coeffs):
        bad = d_wedge_eta(an.structure, fld)
        if bad is not None:
            (i, j), v = bad
            return NullityFit("not_nullity", witness=f"d({name})^eta != 0 at ({i},{j}): {v}")
    if h_zero:
        return NullityFit("degenerate_h_zero", kappa=coeffs[0], B=B)
    return NullityFit("exact", *coeffs, B=B, unique=unique)


# --------------------------------------------------------------------
# consequences of the nullity condition


def check_irem_suite(an: StructureAnalysis, fit: NullityFit) -> List[CheckItem]:
    """The eleven consequences of an exact (kappa,mu,nu) fit with constant
    alpha."""
    names = [
        "l = kappa phi^2 + mu h + nu phi.h",
        "l.phi - phi.l = 2 mu h.phi - 2 nu h",
        "h^2 = (kappa + alpha^2) phi^2",
        "nabla_xi(h) = -(2 alpha + nu) h + mu h.phi",
        "nabla_xi(h^2) = -2(2 alpha + nu)(kappa + alpha^2) phi^2",
        "xi(kappa) = -2(2 alpha + nu)(kappa + alpha^2)",
        "R(xi,X)Y nullity expansion",
        "Q xi = 2 n kappa xi",
        "nabla(phi) collapses to the h-form",
        "antisymmetrized nabla(phi.h) expansion",
        "antisymmetrized nabla(h) expansion",
    ]
    if reason := unmet(an, exact_fit(fit), CONSTANT_ALPHA):
        return [_skip(nm, reason) for nm in names]

    s = an.structure
    phi, xi, eta = s.phi, s.xi, s.eta
    alpha = an.alpha
    kappa, mu, nu = fit.kappa, fit.mu, fit.nu
    h, phih, P, l = an.h, an.phih, an.proj, an.l
    hphi = an.hphi
    delta = identity_tensor(an.chart)
    items: List[CheckItem] = []

    def residual(name, comps):
        items.append(_residual_item(name, comps))

    residual(names[0], l - (kappa * P + mu * h + nu * phih))
    residual(
        names[1],
        contract("ik,kj->ij", l, phi)
        - contract("ik,kj->ij", phi, l)
        - 2 * mu * hphi
        + 2 * nu * h,
    )

    residual(names[2], an.h2 - (kappa + alpha**2) * P)

    nab_xi_h = an.nab_xi_h
    residual(names[3], nab_xi_h + (2 * alpha + nu) * h - mu * hphi)

    # nabla_xi(h^2) = (nabla_xi h) h + h (nabla_xi h), by the Leibniz rule
    nab_xi_h2 = contract("ik,kj->ij", nab_xi_h, h) + contract("ik,kj->ij", h, nab_xi_h)
    residual(names[4], nab_xi_h2 + 2 * (2 * alpha + nu) * (kappa + alpha**2) * P)

    xikappa = an.xi_derivative(fit.kappa)
    items.append(
        _scalar_item(
            names[5], xikappa + 2 * (2 * alpha + nu) * (kappa + alpha**2)
        )
    )

    # R(xi,X)Y = g(X, BY) xi - eta(Y) B X with B = kappa Id + mu h + nu phi.h
    B = kappa * delta + mu * h + nu * phih
    residual(
        names[6],
        contract("imab,m->iab", an.R, xi)
        - contract("am,mb,i->iab", s.g, B, xi)
        + contract("b,ia->iab", eta, B),
    )

    residual(names[7], contract("ik,k->i", an.Q, xi) - 2 * s.n * kappa * xi)

    # (nabla_X phi)Y = g(Y, hX + alpha phi X) xi - eta(Y)(hX + alpha phi X):
    # the para-Kaehler leaves condition
    residual(names[8], an.parakaehler_leaves_residual)

    # (nabla_X phi.h)Y - (nabla_Y phi.h)X = (kappa+alpha^2)(eta(Y)X - eta(X)Y)
    #   + mu(eta(Y)hX - eta(X)hY) + (nu+alpha)(eta(Y)phi.h X - eta(X)phi.h Y)
    C = (kappa + alpha**2) * delta + mu * h + (nu + alpha) * phih
    res10 = contract("iba->iab", an.nabphih) - contract("b,ia->iab", eta, C)
    residual(names[9], _antisymmetrized(res10))

    # (nabla_X h)Y - (nabla_Y h)X = (kappa+alpha^2)(eta(Y)phiX - eta(X)phiY
    #   + 2 g(Y, phi X) xi) + mu(eta(Y)phi.h X - eta(X)phi.h Y)
    #   + (nu+alpha)(eta(Y)hX - eta(X)hY), with g(Y, phi X) = Phi(X, Y)
    D = (kappa + alpha**2) * phi + mu * phih + (nu + alpha) * h
    res11 = contract("iba->iab", an.nabh) - contract("b,ia->iab", eta, D)
    residual(
        names[10],
        _antisymmetrized(res11) - 2 * (kappa + alpha**2) * contract("ab,i->iab", an.Phi, xi),
    )
    return items


def check_parakaehler_consequence(an: StructureAnalysis, fit: NullityFit) -> CheckItem:
    """Every exact (kappa,mu,nu)-space has para-Kaehler leaves."""
    name = "nullity implies para-Kaehler leaves"
    if reason := unmet(an, exact_fit(fit)):
        return _skip(name, reason)
    return _residual_item(name, an.parakaehler_leaves_residual)


def check_q_commutator_nullity(an: StructureAnalysis, fit: NullityFit) -> CheckItem:
    """On exact fits: Q.phi - phi.Q = 2 mu h.phi - 2(nu + 2 alpha(1-n)) h."""
    name = "[Q,phi] via (mu,nu)"
    if reason := unmet(an, exact_fit(fit), CONSTANT_ALPHA):
        return _skip(name, reason)
    phi = an.structure.phi
    alpha = an.alpha
    mu, nu = fit.mu, fit.nu
    res = (
        contract("ik,kj->ij", an.Q, phi)
        - contract("ik,kj->ij", phi, an.Q)
        - 2 * mu * an.hphi
        + 2 * (nu + 2 * alpha * (1 - an.structure.n)) * an.h
    )
    return _residual_item(name, res)
