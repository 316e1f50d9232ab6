"""Three-dimensional Jordan-type analysis of the tensor h.

At a point, h restricted to ker(eta) is a trace-free operator self-adjoint
for a Lorentzian plane metric, so it is one of: diagonalizable with real
eigenvalues +-lambda (H1), nonzero nilpotent (H2), complex eigenvalues
+-i*lambda (H3), or zero.  The determinant of the restriction separates
the cases: negative (H1, lambda^2 = -det), positive (H3, lambda^2 = det),
zero with h nonzero (H2), h = 0 (Zero).  The remaining Lorentzian Jordan
shape (a null one-chain hitting the xi-direction) is incompatible with
h(xi) = 0 and g(xi,xi) = 1 and never occurs.

This module also builds adapted frames realizing the canonical matrices,
verifies the frame-derivative tables, the closed-form Ricci operator, and
the harmonicity <-> nullity equivalence with its per-type parameter
formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import sympy as sp

from .errors import StructureError
from .geometry import TensorField, compose11, contract, identity_tensor
from .structures import CheckItem, StructureAnalysis, _residual_item
from .nullity import NullityFit, nullity_fit
from .scalars import canon, pdiff


@dataclass
class HType:
    tag: str  # "H1" | "H2" | "H3" | "Zero"
    lambda2: Optional[sp.Expr]  # for H1/H3
    point: Tuple[Fraction, ...]


def _point_or_base(an: StructureAnalysis, point):
    if point is None:
        return tuple(an.chart.base_point)
    return tuple(Fraction(p) for p in point)


def classify_h(an: StructureAnalysis, point=None) -> HType:
    """Classify h at a point via the determinant of its ker(eta) restriction.

    Generator-bearing components are evaluated exactly as exponentials of
    the rational point, so the sign decision stays symbolic."""
    s = an.structure
    if s.dim != 3:
        raise StructureError("h classification is a 3-dimensional analysis")
    pt = _point_or_base(an, point)
    n = 3
    hm = sp.Matrix(
        n, n, lambda i, j: sp.simplify(_subs_point(an, an.h.array[i, j], pt))
    )
    if hm.is_zero_matrix:
        return HType("Zero", None, pt)
    # basis of ker(eta) at the point
    eta_row = sp.Matrix(
        1, n, lambda _, j: sp.simplify(_subs_point(an, s.eta.array[j], pt))
    )
    kernel = eta_row.nullspace()
    if len(kernel) != 2:
        raise StructureError(f"eta degenerate at point {pt}")
    v1, v2 = kernel
    xi0 = sp.Matrix(n, 1, lambda i, _: _subs_point(an, s.xi.array[i], pt))
    basis = sp.Matrix.hstack(v1, v2, xi0)
    coeffs = basis.solve(hm * basis)  # h in the (v1, v2, xi) basis
    det = sp.simplify(coeffs[:2, :2].det())
    sign = _exact_sign(det)
    if sign < 0:
        return HType("H1", sp.simplify(-det), pt)
    if sign > 0:
        return HType("H3", det, pt)
    return HType("H2", None, pt)


def _exact_sign(val: sp.Expr) -> int:
    if val == 0 or sp.simplify(val) == 0:
        return 0
    if val.is_positive:
        return 1
    if val.is_negative:
        return -1
    f = float(val.evalf(30))
    if abs(f) < 1e-25:
        return 0
    return 1 if f > 0 else -1


# --------------------------------------------------------------------
# the impossible Jordan shape


def h4_impossibility_test() -> bool:
    """The Lorentzian Jordan shape pairing the unit direction with a null
    chain cannot be realized by h.  Exact linear algebra reproduction:
    with a pseudo-orthonormal basis (g(e1,e2) = g(e3,e3) = 1, all other
    products zero) and h e1 = lam*e1 + e3, h e2 = lam*e2,
    h e3 = e2 + lam*e3, tracelessness forces lam = 0, and then h(xi) = 0
    forces xi into a null direction, contradicting g(xi,xi) = 1."""
    lam = sp.Symbol("lam")
    g = sp.Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    # columns: images of e1, e2, e3 in the (e1,e2,e3) basis
    h = sp.Matrix([[lam, 0, 0], [0, lam, 0], [0, 0, lam]])
    h[2, 0] = 1  # h e1 gains e3
    h[1, 2] = 1  # h e3 gains e2
    # metric trace: tr h = g^{ab} g(h e_a, e_b)
    tr = sum(
        g.inv()[a, b] * sum(g[c, b] * h[c, a] for c in range(3))
        for a in range(3)
        for b in range(3)
    )
    lam_solved = sp.solve(sp.Eq(tr, 0), lam)
    if lam_solved != [0]:
        return False
    h0 = h.subs(lam, 0)
    # general xi = c1 e1 + c2 e2 + c3 e3 with h xi = 0
    c = sp.symbols("c1 c2 c3")
    sol = sp.linsolve((h0, sp.Matrix([0, 0, 0])), c)
    # kernel must be the null line spanned by e2
    (kern,) = sol
    kern = sp.Matrix(kern)
    norms = []
    for free in kern.free_symbols:
        vec = kern
        norm = sp.expand((vec.T * g * vec)[0, 0])
        norms.append(norm)
    # every h-annihilated xi has g(xi,xi) = 0, so g(xi,xi) = 1 is impossible
    return all(nrm == 0 for nrm in norms)


# --------------------------------------------------------------------
# adapted frames (as local vector fields, possibly sqrt-bearing)


@dataclass
class AdaptedFrame:
    """Frame vectors as component lists of sympy expressions: they may
    carry algebraic constants (sqrt(...)) outside the chart's field."""

    kind: str  # "orthonormal-phi" | "pseudo-orthonormal"
    e1: List[sp.Expr]
    e2: List[sp.Expr]
    e3: List[sp.Expr]  # always xi
    exact: bool  # True when all components are rational functions
    lam: Optional[sp.Expr] = None  # signed eigenfunction (H1/H3)
    sigma_sign: Optional[int] = None  # phi e1 = sigma_sign * e1 (H2)


def _is_rational_frame(an: StructureAnalysis, *vectors: List[sp.Expr]) -> bool:
    syms = an.chart.context.coord_symbols + an.chart.context.gen_symbols
    return all(c.is_rational_function(*syms) for v in vectors for c in v)


def _g_of(an: StructureAnalysis, v, w) -> sp.Expr:
    g = an.structure.g.array
    n = an.structure.dim
    return canon(sum(g[i, j] * v[i] * w[j] for i in range(n) for j in range(n)))


def _subs_point(an: StructureAnalysis, expr: sp.Expr, pt) -> sp.Expr:
    ctx = an.chart.context
    subs = {s: sp.Rational(Fraction(v)) for s, v in zip(ctx.coord_symbols, pt)}
    for gen, gsym in zip(ctx.generators, ctx.gen_symbols):
        subs[gsym] = sp.exp(gen.rate * subs[ctx.coord_symbols[gen.coord_index]])
    return expr.subs(subs)


def _apply_op(op: TensorField, comps: List[sp.Expr]) -> List[sp.Expr]:
    n = op.chart.dim
    return [
        canon(sum(op.array[i, j] * comps[j] for j in range(n))) for i in range(n)
    ]


def _seed_fields(an: StructureAnalysis) -> List[List[sp.Expr]]:
    """Deterministic seeds: ker(eta)-projections of the coordinate fields."""
    n = an.structure.dim
    P = an.proj
    seeds = []
    for c in range(n):
        comps = [P.array[i, c] for i in range(n)]
        if any(v != 0 for v in comps):
            seeds.append(comps)
    return seeds


def build_adapted_frame(
    an: StructureAnalysis, htype: HType
) -> AdaptedFrame:
    s = an.structure
    pt = htype.point
    phi = s.phi
    h = an.h
    tr_h2 = canon(
        sum(
            compose11(h, h).array[i, i]
            for i in range(3)
        )
    )

    def numval(e):
        return float(_subs_point(an, e, pt).evalf(30))

    if htype.tag in ("H1", "H3", "Zero"):
        if htype.tag == "H1":
            lam2 = tr_h2 / 2
        elif htype.tag == "H3":
            lam2 = -tr_h2 / 2
        else:
            lam2 = sp.Integer(0)
        lam_abs = sp.sqrt(lam2)

        e_field = None
        if htype.tag == "H1":
            # eigenvector field (h + s*lam)w, choose the timelike one
            for w in _seed_fields(an):
                for sgn in (1, -1):
                    v = [
                        canon(c + sgn * lam_abs * wc)
                        for c, wc in zip(_apply_op(h, w), w)
                    ]
                    q = _g_of(an, v, v)
                    qv = numval(q)
                    if qv < -1e-9:
                        norm = sp.sqrt(-q)
                        e_field = [canon(c / norm) for c in v]
                        break
                if e_field is not None:
                    break
        else:
            # any timelike unit field in ker(eta); phi flips causality
            for w in _seed_fields(an):
                q = _g_of(an, w, w)
                qv = numval(q)
                if qv < -1e-9:
                    norm = sp.sqrt(-q)
                    e_field = [canon(c / norm) for c in w]
                    break
                if qv > 1e-9:
                    pw = _apply_op(phi, w)
                    norm = sp.sqrt(q)
                    e_field = [canon(c / norm) for c in pw]
                    break
        if e_field is None:
            raise StructureError(
                f"could not seed an adapted frame at {pt}; resample the point"
            )

        if htype.tag == "H3":
            # hyperbolic rotation killing g(h e, e)
            a0 = canon(-_g_of(an, _apply_op(h, e_field), e_field))
            if a0 != 0:
                pe = _apply_op(phi, e_field)
                b0 = _g_of(an, _apply_op(h, e_field), pe)
                sb = 1 if numval(b0) > 0 else -1
                lamf = sp.sqrt(lam2)
                c2 = sb * b0 / lamf
                s2 = -a0 * sb / lamf
                ch = sp.sqrt((c2 + 1) / 2)
                sh = s2 / (2 * ch)
                e_field = [
                    canon(ch * a + sh * b) for a, b in zip(e_field, pe)
                ]

        pe_field = _apply_op(phi, e_field)
        e1 = [canon(c) for c in e_field]
        e2 = [canon(c) for c in pe_field]
        if htype.tag == "H1":
            lam_signed = canon(-_g_of(an, _apply_op(h, e_field), e_field))
        elif htype.tag == "H3":
            lam_signed = _g_of(an, _apply_op(h, e_field), pe_field)
        else:
            lam_signed = sp.Integer(0)
        frame = AdaptedFrame(
            "orthonormal-phi",
            e1,
            e2,
            list(s.xi.array),
            exact=_is_rational_frame(an, e1, e2),
            lam=lam_signed,
        )
        _check_frame_pattern(an, frame, htype)
        return frame

    # H2: nilpotent h; build the pseudo-orthonormal chain
    for w in _seed_fields(an):
        hw = _apply_op(h, w)
        if all(abs(numval(c)) < 1e-12 for c in hw):
            continue
        u = _g_of(an, w, hw)
        if abs(numval(u)) < 1e-12:
            continue
        t = canon(-_g_of(an, w, w) / (2 * u))
        cfac = 1 / sp.sqrt(u)
        e2 = [canon(cfac * c) for c in hw]
        e1 = [canon(cfac * (a + t * b)) for a, b in zip(w, hw)]
        sig = _g_of(an, _apply_op(phi, e1), e2)
        sig_at = numval(sig)
        sigma_sign = 1 if sig_at > 0 else -1
        e1, e2 = [canon(c) for c in e1], [canon(c) for c in e2]
        frame = AdaptedFrame(
            "pseudo-orthonormal",
            e1,
            e2,
            list(s.xi.array),
            exact=_is_rational_frame(an, e1, e2),
            sigma_sign=sigma_sign,
        )
        _check_frame_pattern(an, frame, htype)
        return frame
    raise StructureError(f"could not build a nilpotent chain frame at {pt}")


def _zero_at(an: StructureAnalysis, expr: sp.Expr, pt, tol: float = 1e-9):
    """(ok, witness, numeric_used) for expr = 0 at a point; exact first."""
    val = _subs_point(an, expr, pt)
    if sp.expand(val) == 0:  # most table entries vanish already when expanded
        return True, None, False
    simplified = sp.simplify(sp.radsimp(val))
    if simplified == 0:
        return True, None, False
    f = abs(complex(simplified.evalf(30)))
    if f <= tol:
        return True, None, True
    return False, sp.sstr(simplified), True


def _check_frame_pattern(an: StructureAnalysis, frame: AdaptedFrame, htype: HType):
    """Metric values and h-action of the frame at the point."""
    pt = htype.point
    e1, e2, xi = frame.e1, frame.e2, frame.e3
    pairs = {
        "orthonormal-phi": [
            (e1, e1, -1),
            (e2, e2, 1),
            (xi, xi, 1),
            (e1, e2, 0),
            (e1, xi, 0),
            (e2, xi, 0),
        ],
        "pseudo-orthonormal": [
            (e1, e1, 0),
            (e2, e2, 0),
            (e1, xi, 0),
            (e2, xi, 0),
            (e1, e2, 1),
            (xi, xi, 1),
        ],
    }[frame.kind]
    for v, w, expect in pairs:
        ok, witness, _ = _zero_at(an, _g_of(an, v, w) - expect, pt)
        if not ok:
            raise StructureError(
                f"adapted frame fails its metric pattern at {pt}: {witness}"
            )
    h = an.h
    if htype.tag == "H1":
        target = [(e1, [frame.lam * c for c in e1]), (e2, [-frame.lam * c for c in e2])]
    elif htype.tag == "H3":
        target = [(e1, [frame.lam * c for c in e2]), (e2, [-frame.lam * c for c in e1])]
    elif htype.tag == "H2":
        target = [(e1, e2), (e2, [sp.Integer(0)] * 3)]
    else:
        target = [(e1, [sp.Integer(0)] * 3), (e2, [sp.Integer(0)] * 3)]
    for v, expect in target:
        hv = _apply_op(h, v)
        for i in range(3):
            ok, witness, _ = _zero_at(an, hv[i] - expect[i], pt)
            if not ok:
                raise StructureError(
                    f"adapted frame fails its h-action pattern at {pt}: {witness}"
                )


# --------------------------------------------------------------------
# frame-derivative tables


@dataclass
class FrameDerivativeTable:
    a: sp.Expr  # a1 | a2 | a3 by type (value at the point)
    b: Dict[str, sp.Expr] = field(default_factory=dict)
    sigma_values: Dict[str, sp.Expr] = field(default_factory=dict)
    items: List[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)


def _nabla(an: StructureAnalysis, w: List[sp.Expr]) -> List[List[sp.Expr]]:
    """(nabla w)[i][c] = d_c w^i + Gamma^i_{cm} w^m, each entry canonical."""
    ctx, G = an.chart.context, an.conn.array
    return [
        [canon(pdiff(ctx, w[i], c) + sum(G[i, c, m] * w[m] for m in range(3))) for c in range(3)]
        for i in range(3)
    ]


def _cov(v: List[sp.Expr], nabla_w: List[List[sp.Expr]]) -> List[sp.Expr]:
    """Components of nabla_v w, from nabla w (direction index last)."""
    return [canon(sp.Add(*(row[z] * v[z] for z in range(3)))) for row in nabla_w]


def _lie_bracket(an: StructureAnalysis, v: List[sp.Expr], w: List[sp.Expr]) -> List[sp.Expr]:
    ctx = an.chart.context
    return [
        canon(sum(v[j] * pdiff(ctx, w[i], j) - w[j] * pdiff(ctx, v[i], j) for j in range(3)))
        for i in range(3)
    ]


def _sigma_of(an: StructureAnalysis, v: List[sp.Expr]) -> sp.Expr:
    return canon(sum(an.sigma.array[j] * v[j] for j in range(3)))


def _deriv_along(an: StructureAnalysis, v: List[sp.Expr], f: sp.Expr) -> sp.Expr:
    return canon(sum(v[j] * pdiff(an.chart.context, f, j) for j in range(3)))


def _table_item(an, name, lhs: List[sp.Expr], rhs: List[sp.Expr], pt) -> CheckItem:
    for i in range(3):
        ok, witness, _ = _zero_at(an, lhs[i] - rhs[i], pt)
        if not ok:
            return CheckItem(name, "fail", witness=f"component {i}: {witness}")
    return CheckItem(name, "pass")


def verify_frame_tables(
    an: StructureAnalysis, frame: AdaptedFrame, htype: HType
) -> FrameDerivativeTable:
    """Check every line of the type's covariant-derivative table at the
    classification point, and extract the connection coefficients."""
    s = an.structure
    pt = htype.point
    alpha = an.alpha.expr
    e1, e2, xi = frame.e1, frame.e2, frame.e3
    items: List[CheckItem] = []

    def lin(*terms):
        # terms: (coefficient, component-list)
        out = [sp.Integer(0)] * 3
        for coef, vec in terms:
            out = [o + coef * c for o, c in zip(out, vec)]
        return out

    nab_e1, nab_e2, nab_xi = (_nabla(an, f) for f in (e1, e2, xi))
    sig_e1 = _sigma_of(an, e1)
    sig_e2 = _sigma_of(an, e2)
    h = an.h.array.flat
    hphi = compose11(an.h, s.phi).array.flat
    nab_xi_h = an.nab_xi_h.array.flat
    h2 = compose11(an.h, an.h)

    def res13():  # h^2 - alpha^2 phi^2 - (1/2) S(xi,xi) phi^2, phi^2 = the projection
        szz = contract("ab,a,b->", an.S, s.xi, s.xi)
        return TensorField(an.chart, 1, 1, h2.comps - (an.alpha**2 + szz / 2) * an.proj.comps)

    # a1 = g(nabla_xi e, phi e) for H1/H3/Zero; a2 = g(nabla_xi e1, e2) for H2
    a_coef = _g_of(an, _cov(xi, nab_e1), e2)

    table = FrameDerivativeTable(
        a=_subs_point(an, a_coef, pt),
        sigma_values={
            "sigma(e1)": _subs_point(an, sig_e1, pt),
            "sigma(e2)": _subs_point(an, sig_e2, pt),
        },
    )

    if htype.tag == "H1":
        lam = frame.lam
        de_lam = _deriv_along(an, e1, lam)
        dpe_lam = _deriv_along(an, e2, lam)
        dxi_lam = _deriv_along(an, xi, lam)
        c1 = canon((sig_e1 - dpe_lam) / (2 * lam))
        c2 = canon(-(sig_e2 + de_lam) / (2 * lam))
        items.append(_table_item(an, "nabla_e e", _cov(e1, nab_e1), lin((c1, e2), (alpha, xi)), pt))
        items.append(_table_item(an, "nabla_e phie", _cov(e1, nab_e2), lin((c1, e1), (-lam, xi)), pt))
        items.append(_table_item(an, "nabla_e xi", _cov(e1, nab_xi), lin((alpha, e1), (lam, e2)), pt))
        items.append(_table_item(an, "nabla_phie e", _cov(e2, nab_e1), lin((c2, e2), (-lam, xi)), pt))
        items.append(_table_item(an, "nabla_phie phie", _cov(e2, nab_e2), lin((c2, e1), (-alpha, xi)), pt))
        items.append(_table_item(an, "nabla_phie xi", _cov(e2, nab_xi), lin((alpha, e2), (-lam, e1)), pt))
        items.append(_table_item(an, "nabla_xi e", _cov(xi, nab_e1), lin((a_coef, e2)), pt))
        items.append(_table_item(an, "nabla_xi phie", _cov(xi, nab_e2), lin((a_coef, e1)), pt))
        items.append(_table_item(an, "[e,xi]", _lie_bracket(an, e1, xi), lin((alpha, e1), ((lam - a_coef), e2)), pt))
        items.append(_table_item(an, "[phie,xi]", _lie_bracket(an, e2, xi), lin((-(lam + a_coef), e1), ((alpha), e2)), pt))
        items.append(_table_item(an, "[e,phie]", _lie_bracket(an, e1, e2), lin((c1, e1), ((-c2), e2)), pt))
        # nabla_xi h = xi(lam) h/lam - 2 a hphi
        res12 = _add(_sub(nab_xi_h, _scale(h, dxi_lam / lam)), _scale(hphi, 2 * a_coef))
        items.append(_mat_item(an, "nabla_xi h relation", res12, pt))
        items.append(_mat_item(an, "h^2 - alpha^2 phi^2 = (1/2)S(xi,xi) phi^2", res13().array.flat, pt))
        table.b = {
            "(sigma(e)-phie(lam))/(2 lam)": _subs_point(an, c1, pt),
            "-(sigma(phie)+e(lam))/(2 lam)": _subs_point(an, c2, pt),
        }

    elif htype.tag == "H2":
        sgn = frame.sigma_sign
        b1 = _g_of(an, _cov(e1, nab_e2), e1)
        b2 = _g_of(an, _cov(e2, nab_e2), e1)
        items.append(_table_item(an, "nabla_e1 e1", _cov(e1, nab_e1), lin((-b1, e1), (sp.Integer(sgn), xi)), pt))
        items.append(_table_item(an, "nabla_e1 e2", _cov(e1, nab_e2), lin((b1, e2), (-alpha, xi)), pt))
        items.append(_table_item(an, "nabla_e1 xi", _cov(e1, nab_xi), lin((alpha, e1), (sp.Integer(-sgn), e2)), pt))
        items.append(_table_item(an, "nabla_e2 e1", _cov(e2, nab_e1), lin((-b2, e1), (-alpha, xi)), pt))
        items.append(_table_item(an, "nabla_e2 e2", _cov(e2, nab_e2), lin((b2, e2)), pt))
        items.append(_table_item(an, "nabla_e2 xi", _cov(e2, nab_xi), lin((alpha, e2)), pt))
        items.append(_table_item(an, "nabla_xi e1", _cov(xi, nab_e1), lin((a_coef, e1)), pt))
        items.append(_table_item(an, "nabla_xi e2", _cov(xi, nab_e2), lin((-a_coef, e2)), pt))
        items.append(_table_item(an, "[e1,xi]", _lie_bracket(an, e1, xi), lin(((alpha - a_coef), e1), (sp.Integer(-sgn), e2)), pt))
        items.append(_table_item(an, "[e2,xi]", _lie_bracket(an, e2, xi), lin(((alpha + a_coef), e2)), pt))
        items.append(_table_item(an, "[e1,e2]", _lie_bracket(an, e1, e2), lin((b2, e1), (b1, e2)), pt))
        res12 = _add(nab_xi_h, _scale(hphi, 2 * a_coef * sgn))
        items.append(_mat_item(an, "nabla_xi h relation", res12, pt))
        items.append(_mat_item(an, "h^2 = 0", h2.array.flat, pt))
        ok, witness, _ = _zero_at(an, b2 + sig_e1 / 2, pt)
        items.append(
            CheckItem("b2 = -(1/2) sigma(e1)", "pass" if ok else "fail", witness=witness)
        )
        ok, witness, _ = _zero_at(an, sig_e2, pt)
        items.append(
            CheckItem("sigma(e2) = 0", "pass" if ok else "fail", witness=witness)
        )
        table.b = {"b1": _subs_point(an, b1, pt), "b2": _subs_point(an, b2, pt)}

    elif htype.tag == "H3":
        lam = frame.lam
        de_lam = _deriv_along(an, e1, lam)
        dpe_lam = _deriv_along(an, e2, lam)
        dxi_lam = _deriv_along(an, xi, lam)
        b3 = _g_of(an, _cov(e1, nab_e1), e2)
        b4 = _g_of(an, _cov(e2, nab_e1), e2)
        items.append(_table_item(an, "nabla_e e", _cov(e1, nab_e1), lin((b3, e2), ((alpha + lam), xi)), pt))
        items.append(_table_item(an, "nabla_e phie", _cov(e1, nab_e2), lin((b3, e1)), pt))
        items.append(_table_item(an, "nabla_e xi", _cov(e1, nab_xi), lin(((alpha + lam), e1)), pt))
        items.append(_table_item(an, "nabla_phie e", _cov(e2, nab_e1), lin((b4, e2)), pt))
        items.append(_table_item(an, "nabla_phie phie", _cov(e2, nab_e2), lin((b4, e1), ((lam - alpha), xi)), pt))
        items.append(_table_item(an, "nabla_phie xi", _cov(e2, nab_xi), lin(((alpha - lam), e2)), pt))
        items.append(_table_item(an, "nabla_xi e", _cov(xi, nab_e1), lin((a_coef, e2)), pt))
        items.append(_table_item(an, "nabla_xi phie", _cov(xi, nab_e2), lin((a_coef, e1)), pt))
        items.append(_table_item(an, "[e,xi]", _lie_bracket(an, e1, xi), lin(((alpha + lam), e1), ((-a_coef), e2)), pt))
        items.append(_table_item(an, "[phie,xi]", _lie_bracket(an, e2, xi), lin(((-a_coef), e1), ((alpha - lam), e2)), pt))
        items.append(_table_item(an, "[e,phie]", _lie_bracket(an, e1, e2), lin((b3, e1), ((-b4), e2)), pt))
        res12 = _add(_sub(nab_xi_h, _scale(h, dxi_lam / lam)), _scale(hphi, 2 * a_coef))
        items.append(_mat_item(an, "nabla_xi h relation", res12, pt))
        items.append(_mat_item(an, "h^2 - alpha^2 phi^2 = (1/2)S(xi,xi) phi^2", res13().array.flat, pt))
        ok, witness, _ = _zero_at(an, b3 + (sig_e2 + dpe_lam) / (2 * lam), pt)
        items.append(
            CheckItem("b3 = -(sigma(phie)+phie(lam))/(2 lam)", "pass" if ok else "fail", witness=witness)
        )
        ok, witness, _ = _zero_at(an, b4 - (sig_e1 - de_lam) / (2 * lam), pt)
        items.append(
            CheckItem("b4 = (sigma(e)-e(lam))/(2 lam)", "pass" if ok else "fail", witness=witness)
        )
        table.b = {"b3": _subs_point(an, b3, pt), "b4": _subs_point(an, b4, pt)}

    else:  # Zero
        items.append(_table_item(an, "nabla_e xi = alpha e", _cov(e1, nab_xi), lin((alpha, e1)), pt))
        items.append(_table_item(an, "nabla_phie xi = alpha phie", _cov(e2, nab_xi), lin((alpha, e2)), pt))
        items.append(_mat_item(an, "h = 0", h, pt))

    table.items = items
    return table


def _mat_item(an: StructureAnalysis, name: str, flat: Sequence[sp.Expr], pt) -> CheckItem:
    """Every entry of a row-major 3x3 matrix vanishes at the point."""
    for idx, e in zip(itertools.product(range(3), repeat=2), flat):
        ok, witness, _ = _zero_at(an, e, pt)
        if not ok:
            return CheckItem(name, "fail", witness=f"component {idx}: {witness}")
    return CheckItem(name, "pass")


# entrywise matrix steps on sympy views, each entry canonical; the operands
# may carry algebraic constants, so they stay out of the field


def _scale(m: Sequence[sp.Expr], f: sp.Expr) -> List[sp.Expr]:
    return [canon(a * f) for a in m]


def _add(m1: Sequence[sp.Expr], m2: Sequence[sp.Expr]) -> List[sp.Expr]:
    return [canon(a + b) for a, b in zip(m1, m2)]


def _sub(m1: Sequence[sp.Expr], m2: Sequence[sp.Expr]) -> List[sp.Expr]:
    return [canon(a - b) for a, b in zip(m1, m2)]


# --------------------------------------------------------------------
# Ricci operator closed form


def verify_ricci_formula(an: StructureAnalysis) -> CheckItem:
    """Three-dimensional Ricci operator through h, sigma and r.

    Q = (r/2 + alpha^2 - T) Id + (-r/2 + 3(T - alpha^2)) eta(x)xi
        - 2 alpha phi.h - phi.(nabla_xi h) + sigma(.)(x)xi
        + eta(x)(sharp of sigma),
    with T = (1/2) tr h^2.  This single expression specializes to each
    Jordan type's printed formula (T = lambda^2, 0, -lambda^2)."""
    s = an.structure
    name = "Ricci operator closed form (3D)"
    if s.dim != 3:
        return CheckItem(name, "skip", reason="3-dimensional statement")
    if not an.is_apc or not an.alpha_is_constant:
        return CheckItem(name, "skip", reason="needs constant alpha")
    alpha, r = an.alpha, an.r
    T = contract("ik,ki->", an.h, an.h) / 2
    sig_sharp = contract("ij,j->i", an.ginv, an.sigma)
    rhs = (
        (r / 2 + alpha**2 - T) * identity_tensor(an.chart).comps
        + (-r / 2 + 3 * (T - alpha**2)) * contract("i,j->ij", s.xi, s.eta)
        - 2 * alpha * an.phih.comps
        - contract("ik,kj->ij", s.phi, an.nab_xi_h)
        + contract("i,j->ij", s.xi, an.sigma)
        + contract("i,j->ij", sig_sharp, s.eta)
    )
    return _residual_item(name, TensorField(an.chart, 1, 1, an.Q.comps - rhs))


# --------------------------------------------------------------------
# harmonicity <-> nullity


@dataclass
class HarmonicNullityReport:
    harmonic: bool
    nullity: bool
    equivalent: bool
    fit: NullityFit
    case_items: List[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equivalent and all(it.ok for it in self.case_items)


def harmonic_nullity_equivalence(
    an: StructureAnalysis,
    fit: Optional[NullityFit] = None,
    harmonic: Optional[bool] = None,
    htype: Optional[HType] = None,
    frame: Optional[AdaptedFrame] = None,
) -> HarmonicNullityReport:
    """Harmonicity of xi <=> the nullity condition, with the per-type
    parameter formulas checked at the base point.

    A caller that already has them passes nullity_fit(an), the verdict of
    xi_is_harmonic(an), and classify_h(an) at the base point with its
    adapted frame; whatever is not given is computed here."""
    from .curvature import xi_is_harmonic

    s = an.structure
    if s.dim != 3:
        raise StructureError("the equivalence is a 3-dimensional statement")
    if harmonic is None:
        harmonic, _ = xi_is_harmonic(an)
    if fit is None:
        fit = nullity_fit(an)
    nullity = fit.status in ("exact", "degenerate_h_zero")
    report = HarmonicNullityReport(harmonic, nullity, harmonic == nullity, fit)
    if not (harmonic and nullity):
        return report

    if htype is None:
        htype = classify_h(an)
    pt = htype.point
    alpha = an.alpha.expr
    items: List[CheckItem] = []

    def scalar_case(name, expr):
        ok, witness, _ = _zero_at(an, expr, pt)
        items.append(CheckItem(name, "pass" if ok else "fail", witness=witness))

    if htype.tag == "Zero":
        scalar_case("kappa = -alpha^2 (h = 0)", fit.kappa.expr + alpha**2)
        report.case_items = items
        return report

    if frame is None:
        frame = build_adapted_frame(an, htype)
    a_coef = _g_of(an, _cov(frame.e3, _nabla(an, frame.e1)), frame.e2)
    kappa, mu, nu = fit.kappa.expr, fit.mu.expr, fit.nu.expr
    T = canon(sum(compose11(an.h, an.h).array[i, i] for i in range(3)) / 2)
    if htype.tag == "H1":
        lam2 = T
        scalar_case("kappa = lambda^2 - alpha^2", kappa - (lam2 - alpha**2))
        scalar_case("mu = -2 a1", mu + 2 * a_coef)
        xil = _deriv_along(an, [s.xi.array[i] for i in range(3)], lam2)
        scalar_case("nu = -(2 alpha + xi(lambda)/lambda)", nu + 2 * alpha + xil / (2 * lam2))
    elif htype.tag == "H2":
        # nilpotent h satisfies phi.h = -sigma*h, so only kappa and the
        # combination mu - sigma*nu are determined; the printed triple
        # (-alpha^2, -2 a2, -2 alpha) is one representative of the family
        sgn = frame.sigma_sign
        scalar_case("kappa = -alpha^2", kappa + alpha**2)
        case_mu, case_nu = -2 * a_coef * sgn, -2 * alpha
        scalar_case(
            "mu - sigma*nu matches the -2 a2, -2 alpha representative",
            (mu - sgn * nu) - (case_mu - sgn * case_nu),
        )
    else:  # H3
        lam2 = -T
        scalar_case("kappa = -(alpha^2 + lambda^2)", kappa + alpha**2 + lam2)
        scalar_case("mu = -2 a3", mu + 2 * a_coef)
        xil = _deriv_along(an, [s.xi.array[i] for i in range(3)], lam2)
        scalar_case("nu = -(2 alpha + xi(lambda)/lambda)", nu + 2 * alpha + xil / (2 * lam2))
    report.case_items = items
    return report
