"""Three-dimensional Jordan-type analysis of the tensor h.

At a point, h restricted to ker(eta) is a trace-free operator self-adjoint
for a Lorentzian plane metric, so it is one of: diagonalizable with real
eigenvalues +-lambda (H1), nonzero nilpotent (H2), complex eigenvalues
+-i*lambda (H3), or zero.  The determinant of the restriction separates
the cases: negative (H1, lambda^2 = -det), positive (H3, lambda^2 = det),
zero with h nonzero (H2), h = 0 (Zero).  Zero and H2 are decided in the
chart's field, det's sign exactly at the point; h or det zero there but
not identically is a type not constant near the point.  The remaining
Lorentzian Jordan shape (a null one-chain hitting the xi-direction) is
incompatible with h(xi) = 0 and g(xi,xi) = 1 and never occurs.

This module also builds adapted frames realizing the canonical matrices,
verifies the frame-derivative tables, the closed-form Ricci operator, and
the harmonicity <-> nullity equivalence with its per-type parameter
formulas.

The frames carry square roots: sqrt(lambda^2), the norm sqrt(+-g(v,v)),
and for H3 a rotation's sqrt((c2+1)/2).  A frame's choices (its seed
field and signs) are one pure function of the analysis, the type and the
point (_frame_seed), decided exactly on values of the chart's field at the
point (scalars.PointValues): each value they read is an element of the
field or p + q*sqrt(lambda^2) over it.  The frame's helpers and table
lines are written once over a scalar domain, and each domain builds the
frame from that seed on its own.  One domain decides: a quadratic tower
over the chart's field (tower.QuadraticTower), which takes a root in the
field when the radicand is a square there.  A check whose residual is zero
in the tower passes, for either sign of every root; the first component
it leaves nonzero fails it, its value at the point the witness (_witness,
t_k = sqrt(a_k), as the printed a and b).  A zero divisor met while
building the frame raises ZeroDivisorError, a frame error in the report.
The other domain, sympy expressions, only prints e1, e2, lambda and exact
and witnesses the pattern lines, which need no derivative.

This is the one module of the engine that uses sympy, and only to print:
the frame, lambda^2 and the witnesses.  It reads the chart's field
elements through Frac.as_expr, takes the symbols of the coordinates and
generators from field._sympy_symbols, and keeps its expressions in the
form canon gives, sympy's cancel(together(.)), memoised.  It also builds
and prints the report's 3D section (classification_section), so the
report reads none of these records and imports no sympy.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import sympy as sp

from .errors import EngineError, HTypeNotConstantError, StructureError
from .geometry import Components, contract, identity_tensor
from .structures import (
    CONSTANT_ALPHA,
    DIM_3,
    CheckItem,
    StructureAnalysis,
    _item,
    _residual_item,
    _skip,
    unmet,
)
from .nullity import NullityFit, nullity_fit
from .field import Frac, _sympy_symbols
from .report import _item_dict, _items
from .tower import Quad, QuadraticTower


H_TYPE_CONSTANT = "h-type constant near the point"


class HType(NamedTuple):
    tag: str  # "H1" | "H2" | "H3" | "Zero"
    lambda2: Optional[sp.Expr]  # for H1/H3
    point: Tuple[Fraction, ...]


def classify_h(an: StructureAnalysis, point=None) -> HType:
    """Classify h near a point (the base point when None) via the
    determinant of its ker(eta) restriction, ((tr h)^2 - tr h^2)/2 since
    h xi = 0: Zero (h = 0) and H2 (det = 0) identically in the chart's
    field, else det's sign exactly at the point (scalars.PointValues)."""
    s = an.structure
    if s.dim != 3:
        raise StructureError("h classification is a 3-dimensional analysis")
    pt = tuple(an.chart.base_point) if point is None else tuple(map(Fraction, point))
    at = f"[{', '.join(map(str, pt))}]"
    if an.h.is_zero():
        return HType("Zero", None, pt)
    values = an.chart.values_at(pt)
    if not any(values.value(c) for c in an.h.entries.values()):
        raise HTypeNotConstantError(f"h vanishes at {at} but not identically")
    if not any(values.value(c) for c in s.eta.entries.values()):
        raise StructureError(f"eta degenerate at point {pt}")
    det = (contract("ii->", an.h) ** 2 - contract("ij,ji->", an.h, an.h)) / 2
    if det.is_zero():
        return HType("H2", None, pt)
    sign = values.sign(values.value(det))
    if sign == 0:
        raise HTypeNotConstantError(f"det(h|ker eta) = {det} vanishes at {at} but not identically")
    val = sp.simplify(_subs_point(an, det.as_expr(), pt))
    return HType("H1", sp.simplify(-val), pt) if sign < 0 else HType("H3", val, pt)


# --------------------------------------------------------------------
# sympy expressions: the frames' sympy side

CANON_MEMO_SIZE = 8192


@lru_cache(maxsize=CANON_MEMO_SIZE)
def canon(expr) -> sp.Expr:
    """The canonical form of an expression: sp.cancel(sp.together(expr)),
    one reduced fraction for a rational function."""
    return sp.cancel(sp.together(expr))


def _as_expr(q: Quad) -> sp.Expr:
    """A tower element as a sympy expression, with t_k = sqrt(a_k)."""
    if q.level == 0:
        return q.p.as_expr()
    return _as_expr(q.p) + _as_expr(q.q) * sp.sqrt(_as_expr(q.tower.radicands[q.level - 1]))


# --------------------------------------------------------------------
# scalar domains: the frame code runs in a quadratic tower over the
# chart's field, which decides, and on sympy expressions, which the report
# prints


class _Domain:
    """The scalars of the frame code: given a point, elements of a
    QuadraticTower whose roots take their signs there; otherwise sympy
    expressions in canon form, which are only printed, never differentiated."""

    def __init__(self, an: StructureAnalysis, point=None):
        self.an = an
        self.tower = None if point is None else QuadraticTower(an.chart.context, an.chart.values_at(point))

    def canon(self, e):
        if self.tower is None:
            return canon(e)
        return e if isinstance(e, Quad) else self.tower.base(e)

    def diff(self, e, coord_index: int):
        return e.diff(coord_index)

    def sqrt(self, a):
        return sp.sqrt(a) if self.tower is None else self.tower.sqrt(a)

    def scalar(self, f: Frac):
        return f.as_expr() if self.tower is None else self.tower.base(f)

    def flat(self, comps: Components) -> tuple:
        """The entries, row-major, in this domain."""
        return tuple(map(self.scalar, comps))

    g = cached_property(lambda self: self.flat(self.an.structure.g))
    phi = cached_property(lambda self: self.flat(self.an.structure.phi))
    xi = cached_property(lambda self: list(self.flat(self.an.structure.xi)))
    h = cached_property(lambda self: self.flat(self.an.h))
    h2 = cached_property(lambda self: self.flat(self.an.h2))
    hphi = cached_property(lambda self: self.flat(self.an.hphi))
    nab_xi_h = cached_property(lambda self: self.flat(self.an.nab_xi_h))
    proj = cached_property(lambda self: self.flat(self.an.proj))
    sigma = cached_property(lambda self: self.flat(self.an.sigma))
    conn = cached_property(lambda self: self.flat(self.an.conn))
    alpha = cached_property(lambda self: self.scalar(self.an.alpha))

    @cached_property
    def res13(self) -> tuple:
        """h^2 - (alpha^2 + (1/2) S(xi,xi)) phi^2, with phi^2 the projection."""
        an = self.an
        return self.flat(an.h2 - (an.alpha**2 + an.szz / 2) * an.proj)


# helpers over a domain D; vectors are lists of three components


def _g_of(D: _Domain, v, w):
    g = D.g
    return D.canon(sum(g[3 * i + j] * v[i] * w[j] for i in range(3) for j in range(3)))


def _apply_op(D: _Domain, op: Sequence, v) -> list:
    return [D.canon(sum(op[3 * i + j] * v[j] for j in range(3))) for i in range(3)]


def _nabla(D: _Domain, w) -> List[list]:
    """(nabla w)[i][c] = d_c w^i + Gamma^i_{cm} w^m, each entry canonical."""
    G = D.conn
    return [
        [
            D.canon(D.diff(w[i], c) + sum(G[(3 * i + c) * 3 + m] * w[m] for m in range(3)))
            for c in range(3)
        ]
        for i in range(3)
    ]


def _cov(D: _Domain, v, nabla_w) -> list:
    """Components of nabla_v w, from nabla w (direction index last)."""
    return [D.canon(sum(row[z] * v[z] for z in range(3))) for row in nabla_w]


def _lie_bracket(D: _Domain, v, w) -> list:
    return [
        D.canon(sum(v[j] * D.diff(w[i], j) - w[j] * D.diff(v[i], j) for j in range(3)))
        for i in range(3)
    ]


def _sigma_of(D: _Domain, v):
    return D.canon(sum(D.sigma[j] * v[j] for j in range(3)))


def _deriv_along(D: _Domain, v, f):
    return D.canon(sum(v[j] * D.diff(f, j) for j in range(3)))


def _scale(D: _Domain, m: Sequence, f) -> list:
    return [D.canon(a * f) for a in m]


def _add(D: _Domain, m1: Sequence, m2: Sequence) -> list:
    return [D.canon(a + b) for a, b in zip(m1, m2)]


def _sub(D: _Domain, m1: Sequence, m2: Sequence) -> list:
    return [D.canon(a - b) for a, b in zip(m1, m2)]


def _subs_point(an: StructureAnalysis, expr: sp.Expr, pt) -> sp.Expr:
    ctx = an.chart.context
    coords = _sympy_symbols(ctx.coord_names)
    gens = _sympy_symbols(tuple(g.name for g in ctx.generators))
    subs = {s: sp.Rational(Fraction(v)) for s, v in zip(coords, pt)}
    for gen, gsym in zip(ctx.generators, gens):
        subs[gsym] = sp.exp(sp.Rational(gen.rate) * subs[coords[gen.coord_index]])
    return expr.subs(subs)


def _witness(an: StructureAnalysis, expr: sp.Expr, pt) -> str:
    """The printed value at a point of a component the tower left nonzero:
    sympy's simplified form, which decides nothing."""
    return sp.sstr(sp.simplify(sp.radsimp(_subs_point(an, expr, pt))))


# --------------------------------------------------------------------
# adapted frames (as local vector fields, possibly sqrt-bearing)


class _FrameValues:
    """An adapted frame in one domain, with the covariant derivatives and
    coefficients its checks use, each computed once when first needed."""

    def __init__(self, D: _Domain, e1=None, e2=None, lam=None, sgn=None):
        self.D, self.e1, self.e2, self.lam, self.sgn = D, e1, e2, lam, sgn
        self.xi, self.alpha = D.xi, D.alpha
        self._nabla: Dict[str, List[list]] = {}
        self._cov: Dict[Tuple[str, str], list] = {}

    def nab(self, w: str) -> List[list]:
        if w not in self._nabla:
            self._nabla[w] = _nabla(self.D, getattr(self, w))
        return self._nabla[w]

    def cov(self, v: str, w: str) -> list:
        """nabla_v w for frame vectors named e1, e2 or xi."""
        if (v, w) not in self._cov:
            self._cov[v, w] = _cov(self.D, getattr(self, v), self.nab(w))
        return self._cov[v, w]

    def bracket(self, v: str, w: str) -> list:
        return _lie_bracket(self.D, getattr(self, v), getattr(self, w))

    def residual(self, lhs, *terms) -> list:
        """lhs minus the sum of coefficient * vector terms, componentwise."""
        rhs = [0] * 3
        for coef, vec in terms:
            rhs = [o + coef * c for o, c in zip(rhs, vec)]
        return [a - b for a, b in zip(lhs, rhs)]

    sig_e1 = cached_property(lambda F: _sigma_of(F.D, F.e1))
    sig_e2 = cached_property(lambda F: _sigma_of(F.D, F.e2))
    de_lam = cached_property(lambda F: _deriv_along(F.D, F.e1, F.lam))
    dpe_lam = cached_property(lambda F: _deriv_along(F.D, F.e2, F.lam))
    dxi_lam = cached_property(lambda F: _deriv_along(F.D, F.xi, F.lam))
    # a1 = g(nabla_xi e, phi e) for H1/H3/Zero; a2 = g(nabla_xi e1, e2) for H2
    a = cached_property(lambda F: _g_of(F.D, F.cov("xi", "e1"), F.e2))
    c1 = cached_property(lambda F: F.D.canon((F.sig_e1 - F.dpe_lam) / (2 * F.lam)))
    c2 = cached_property(lambda F: F.D.canon(-(F.sig_e2 + F.de_lam) / (2 * F.lam)))
    b1 = cached_property(lambda F: _g_of(F.D, F.cov("e1", "e2"), F.e1))
    b2 = cached_property(lambda F: _g_of(F.D, F.cov("e2", "e2"), F.e1))
    b3 = cached_property(lambda F: _g_of(F.D, F.cov("e1", "e1"), F.e2))
    b4 = cached_property(lambda F: _g_of(F.D, F.cov("e2", "e1"), F.e2))

    @cached_property
    def res12(self) -> list:
        """The nabla_xi h relation's residual."""
        D = self.D
        if self.sgn is not None:  # H2: nabla_xi h = -2 sigma a2 h phi
            return _add(D, D.nab_xi_h, _scale(D, D.hphi, 2 * self.a * self.sgn))
        # nabla_xi h = xi(lam) h/lam - 2 a h phi
        return _add(D, _sub(D, D.nab_xi_h, _scale(D, D.h, self.dxi_lam / self.lam)), _scale(D, D.hphi, 2 * self.a))


def _frame_seed(an: StructureAnalysis, tag: str, pt) -> Tuple[int, int, int]:
    """(col, s, r): the type's adapted frame at pt grows from w, column col
    of proj, with the sign s and the H3 rotation sign r (0: none), each
    decided exactly at pt (scalars.PointValues).  H2: the first w with
    u = g(w, hw) not zero at pt (nor, then, hw), s the sign of
    g(phi(w + t hw), hw)/u with t = -g(w, w)/(2u).  H1: the first w and s
    with g(v, v) = g(hw, hw) + lam^2 g(w, w) + 2 s g(w, hw) lam < 0 for
    v = hw + s lam w, lam > 0.  H3 and Zero: the first w not null, s the
    sign of g(w, w), and v = w, or phi w if s > 0; H3 rotates when g(hv, v)
    is not identically zero, r the sign of g(hv, phi v)."""
    values = an.chart.values_at(pt)
    g, h, phi = an.structure.g, an.h, an.structure.phi

    def sign(f):
        return values.sign(values.value(f))

    def g_of(v, w):
        return contract("i,ij,j->", v, g, w)

    def apply(op, v):
        return contract("ij,j->i", op, v)

    lam2 = contract("ii->", an.h2) / 2
    for col in range(3):
        w = Components.of([an.proj[i, col] for i in range(3)])
        if w.is_zero():
            continue
        hw = apply(h, w)
        if tag == "H2":
            u = g_of(w, hw)
            if values.value(u):
                t = -g_of(w, w) / (2 * u)
                return col, sign(g_of(apply(phi, w + hw * t), hw) / u) or -1, 0
        elif tag == "H1":
            p, q = (values.value(f) for f in (g_of(hw, hw) + lam2 * g_of(w, w), 2 * g_of(w, hw)))
            for s in (1, -1):
                if values.quadratic_sign(p, s * q, values.value(lam2)) < 0:
                    return col, s, 0
        else:
            s = sign(g_of(w, w))
            if not s:
                continue
            v = w if s < 0 else apply(phi, w)
            hv = apply(h, v)
            if tag == "Zero" or not g_of(hv, v):
                return col, s, 0
            return col, s, sign(g_of(hv, apply(phi, v))) or -1
    raise StructureError(f"could not seed an adapted frame at {pt}; resample the point")


def _frame_in(D: _Domain, tag: str, seed: Tuple[int, int, int]) -> _FrameValues:
    """The type's adapted frame in D, built from its seed (_frame_seed)."""
    col, s, r = seed
    w = [D.proj[3 * i + col] for i in range(3)]
    if tag == "H2":
        # nilpotent h: the pseudo-orthonormal chain
        hw = _apply_op(D, D.h, w)
        u = _g_of(D, w, hw)
        t = D.canon(-_g_of(D, w, w) / (2 * u))
        cfac = 1 / D.sqrt(u)
        e2 = [D.canon(cfac * c) for c in hw]
        e1 = [D.canon(cfac * (a + t * b)) for a, b in zip(w, hw)]
        return _FrameValues(D, e1, e2, None, s)

    tr_h2 = D.canon(sum(D.h2[4 * i] for i in range(3)))
    if tag == "H1":
        # the timelike eigenvector field (h + s*lam)w
        lam_abs = D.sqrt(tr_h2 / 2)
        v = [D.canon(c + s * lam_abs * wc) for c, wc in zip(_apply_op(D, D.h, w), w)]
        norm = D.sqrt(-_g_of(D, v, v))
    else:
        # a timelike field in ker(eta): w, or phi w for a spacelike w, since
        # phi flips causality
        q = _g_of(D, w, w)
        v = w if s < 0 else _apply_op(D, D.phi, w)
        norm = D.sqrt(-q if s < 0 else q)
    e_field = [D.canon(c / norm) for c in v]

    if r:
        # H3: the hyperbolic rotation killing g(h e, e)
        he = _apply_op(D, D.h, e_field)
        a0 = D.canon(-_g_of(D, he, e_field))
        pe = _apply_op(D, D.phi, e_field)
        b0 = _g_of(D, he, pe)
        lamf = D.sqrt(-tr_h2 / 2)
        c2 = r * b0 / lamf
        s2 = -a0 * r / lamf
        ch = D.sqrt((c2 + 1) / 2)
        sh = s2 / (2 * ch)
        e_field = [D.canon(ch * a + sh * b) for a, b in zip(e_field, pe)]

    pe_field = _apply_op(D, D.phi, e_field)
    if tag == "H1":
        lam = D.canon(-_g_of(D, _apply_op(D, D.h, e_field), e_field))
    elif tag == "H3":
        lam = _g_of(D, _apply_op(D, D.h, e_field), pe_field)
    else:
        lam = D.canon(0)
    return _FrameValues(D, e_field, pe_field, lam)


def _frame_values(an: StructureAnalysis, htype: HType) -> Tuple[_FrameValues, _FrameValues]:
    """The type's adapted frame in a quadratic tower over the chart's field,
    which decides, and as sympy expressions, which the report prints, both
    built from the one seed _frame_seed decides.  A zero divisor met in the
    tower raises ZeroDivisorError."""
    seed = _frame_seed(an, htype.tag, htype.point)
    return _frame_in(_Domain(an, htype.point), htype.tag, seed), _frame_in(_Domain(an), htype.tag, seed)


class AdaptedFrame(NamedTuple):
    """The type's adapted frame twice: in a quadratic tower over the chart's
    field (tower), which decides the checks and gives the printed a and b,
    and as sympy expressions (sympy), which the report prints as e1, e2 and
    lambda and which witnesses a failing pattern line.  The vectors may
    carry algebraic constants (sqrt(...)) outside the chart's field."""

    kind: str  # "orthonormal-phi" | "pseudo-orthonormal"
    exact: bool  # True when all components are rational functions
    tower: _FrameValues
    sympy: _FrameValues


def _is_rational_frame(an: StructureAnalysis, *vectors: List[sp.Expr]) -> bool:
    syms = _sympy_symbols(an.chart.context.field.symbols)
    return all(c.is_rational_function(*syms) for v in vectors for c in v)


def build_adapted_frame(an: StructureAnalysis, htype: HType) -> AdaptedFrame:
    """The type's adapted frame, with its metric and h-action pattern
    checked at the point."""
    tower, sympy = _frame_values(an, htype)
    frame = AdaptedFrame(
        "pseudo-orthonormal" if htype.tag == "H2" else "orthonormal-phi",
        exact=_is_rational_frame(an, sympy.e1, sympy.e2),
        tower=tower,
        sympy=sympy,
    )
    for label, residual in _pattern_lines(frame.kind, htype.tag):
        i = _first_nonzero(residual(tower))
        if i is not None:
            witness = _witness(an, residual(sympy)[i], htype.point)
            raise StructureError(f"adapted frame fails its {label} pattern at {htype.point}: {witness}")
    return frame


def _first_nonzero(values) -> Optional[int]:
    """The index of the first tower value that is not zero, or None.  A
    value zero in the tower is zero for either sign of every root."""
    return next((i for i, v in enumerate(values) if not v.is_zero()), None)


_METRIC_PATTERN = {
    "orthonormal-phi": (
        ("e1", "e1", -1),
        ("e2", "e2", 1),
        ("xi", "xi", 1),
        ("e1", "e2", 0),
        ("e1", "xi", 0),
        ("e2", "xi", 0),
    ),
    "pseudo-orthonormal": (
        ("e1", "e1", 0),
        ("e2", "e2", 0),
        ("e1", "xi", 0),
        ("e2", "xi", 0),
        ("e1", "e2", 1),
        ("xi", "xi", 1),
    ),
}

# h e1 and h e2 by type
_H_ACTION = {
    "H1": (("e1", lambda F: [F.lam * c for c in F.e1]), ("e2", lambda F: [-F.lam * c for c in F.e2])),
    "H3": (("e1", lambda F: [F.lam * c for c in F.e2]), ("e2", lambda F: [-F.lam * c for c in F.e1])),
    "H2": (("e1", lambda F: F.e2), ("e2", lambda F: [0] * 3)),
    "Zero": (("e1", lambda F: [0] * 3), ("e2", lambda F: [0] * 3)),
}


def _pattern_lines(kind: str, tag: str) -> list:
    """(metric or h-action, residual of the frame values) of the frame's
    pattern, in checking order."""
    lines = [
        ("metric", lambda F, v=v, w=w, x=x: [_g_of(F.D, getattr(F, v), getattr(F, w)) - x])
        for v, w, x in _METRIC_PATTERN[kind]
    ]
    lines += [
        ("h-action", lambda F, v=v, image=image: [a - b for a, b in zip(_apply_op(F.D, F.D.h, getattr(F, v)), image(F))])
        for v, image in _H_ACTION[tag]
    ]
    return lines


# --------------------------------------------------------------------
# frame-derivative tables


class FrameDerivativeTable(NamedTuple):
    a: sp.Expr  # a1 | a2 | a3 by type (value at the point)
    b: Dict[str, sp.Expr]
    items: List[CheckItem]


# each type's table: (name, shape, residual of the frame values); a vector
# or matrix item names its first failing component
_TABLE_LINES = {
    "H1": (
        ("nabla_e e", "vector", lambda F: F.residual(F.cov("e1", "e1"), (F.c1, F.e2), (F.alpha, F.xi))),
        ("nabla_e phie", "vector", lambda F: F.residual(F.cov("e1", "e2"), (F.c1, F.e1), (-F.lam, F.xi))),
        ("nabla_e xi", "vector", lambda F: F.residual(F.cov("e1", "xi"), (F.alpha, F.e1), (F.lam, F.e2))),
        ("nabla_phie e", "vector", lambda F: F.residual(F.cov("e2", "e1"), (F.c2, F.e2), (-F.lam, F.xi))),
        ("nabla_phie phie", "vector", lambda F: F.residual(F.cov("e2", "e2"), (F.c2, F.e1), (-F.alpha, F.xi))),
        ("nabla_phie xi", "vector", lambda F: F.residual(F.cov("e2", "xi"), (F.alpha, F.e2), (-F.lam, F.e1))),
        ("nabla_xi e", "vector", lambda F: F.residual(F.cov("xi", "e1"), (F.a, F.e2))),
        ("nabla_xi phie", "vector", lambda F: F.residual(F.cov("xi", "e2"), (F.a, F.e1))),
        ("[e,xi]", "vector", lambda F: F.residual(F.bracket("e1", "xi"), (F.alpha, F.e1), ((F.lam - F.a), F.e2))),
        ("[phie,xi]", "vector", lambda F: F.residual(F.bracket("e2", "xi"), (-(F.lam + F.a), F.e1), (F.alpha, F.e2))),
        ("[e,phie]", "vector", lambda F: F.residual(F.bracket("e1", "e2"), (F.c1, F.e1), ((-F.c2), F.e2))),
        ("nabla_xi h relation", "matrix", lambda F: F.res12),
        ("h^2 - alpha^2 phi^2 = (1/2)S(xi,xi) phi^2", "matrix", lambda F: F.D.res13),
    ),
    "H2": (
        ("nabla_e1 e1", "vector", lambda F: F.residual(F.cov("e1", "e1"), (-F.b1, F.e1), (F.sgn, F.xi))),
        ("nabla_e1 e2", "vector", lambda F: F.residual(F.cov("e1", "e2"), (F.b1, F.e2), (-F.alpha, F.xi))),
        ("nabla_e1 xi", "vector", lambda F: F.residual(F.cov("e1", "xi"), (F.alpha, F.e1), (-F.sgn, F.e2))),
        ("nabla_e2 e1", "vector", lambda F: F.residual(F.cov("e2", "e1"), (-F.b2, F.e1), (-F.alpha, F.xi))),
        ("nabla_e2 e2", "vector", lambda F: F.residual(F.cov("e2", "e2"), (F.b2, F.e2))),
        ("nabla_e2 xi", "vector", lambda F: F.residual(F.cov("e2", "xi"), (F.alpha, F.e2))),
        ("nabla_xi e1", "vector", lambda F: F.residual(F.cov("xi", "e1"), (F.a, F.e1))),
        ("nabla_xi e2", "vector", lambda F: F.residual(F.cov("xi", "e2"), (-F.a, F.e2))),
        ("[e1,xi]", "vector", lambda F: F.residual(F.bracket("e1", "xi"), ((F.alpha - F.a), F.e1), (-F.sgn, F.e2))),
        ("[e2,xi]", "vector", lambda F: F.residual(F.bracket("e2", "xi"), ((F.alpha + F.a), F.e2))),
        ("[e1,e2]", "vector", lambda F: F.residual(F.bracket("e1", "e2"), (F.b2, F.e1), (F.b1, F.e2))),
        ("nabla_xi h relation", "matrix", lambda F: F.res12),
        ("h^2 = 0", "matrix", lambda F: F.D.h2),
        ("b2 = -(1/2) sigma(e1)", "scalar", lambda F: [F.b2 + F.sig_e1 / 2]),
        ("sigma(e2) = 0", "scalar", lambda F: [F.sig_e2]),
    ),
    "H3": (
        ("nabla_e e", "vector", lambda F: F.residual(F.cov("e1", "e1"), (F.b3, F.e2), ((F.alpha + F.lam), F.xi))),
        ("nabla_e phie", "vector", lambda F: F.residual(F.cov("e1", "e2"), (F.b3, F.e1))),
        ("nabla_e xi", "vector", lambda F: F.residual(F.cov("e1", "xi"), ((F.alpha + F.lam), F.e1))),
        ("nabla_phie e", "vector", lambda F: F.residual(F.cov("e2", "e1"), (F.b4, F.e2))),
        ("nabla_phie phie", "vector", lambda F: F.residual(F.cov("e2", "e2"), (F.b4, F.e1), ((F.lam - F.alpha), F.xi))),
        ("nabla_phie xi", "vector", lambda F: F.residual(F.cov("e2", "xi"), ((F.alpha - F.lam), F.e2))),
        ("nabla_xi e", "vector", lambda F: F.residual(F.cov("xi", "e1"), (F.a, F.e2))),
        ("nabla_xi phie", "vector", lambda F: F.residual(F.cov("xi", "e2"), (F.a, F.e1))),
        ("[e,xi]", "vector", lambda F: F.residual(F.bracket("e1", "xi"), ((F.alpha + F.lam), F.e1), ((-F.a), F.e2))),
        ("[phie,xi]", "vector", lambda F: F.residual(F.bracket("e2", "xi"), ((-F.a), F.e1), ((F.alpha - F.lam), F.e2))),
        ("[e,phie]", "vector", lambda F: F.residual(F.bracket("e1", "e2"), (F.b3, F.e1), ((-F.b4), F.e2))),
        ("nabla_xi h relation", "matrix", lambda F: F.res12),
        ("h^2 - alpha^2 phi^2 = (1/2)S(xi,xi) phi^2", "matrix", lambda F: F.D.res13),
        (
            "b3 = -(sigma(phie)+phie(lam))/(2 lam)",
            "scalar",
            lambda F: [F.b3 + (F.sig_e2 + F.dpe_lam) / (2 * F.lam)],
        ),
        ("b4 = (sigma(e)-e(lam))/(2 lam)", "scalar", lambda F: [F.b4 - (F.sig_e1 - F.de_lam) / (2 * F.lam)]),
    ),
    "Zero": (
        ("nabla_e xi = alpha e", "vector", lambda F: F.residual(F.cov("e1", "xi"), (F.alpha, F.e1))),
        ("nabla_phie xi = alpha phie", "vector", lambda F: F.residual(F.cov("e2", "xi"), (F.alpha, F.e2))),
        ("h = 0", "matrix", lambda F: F.D.h),
    ),
}

# the printed connection coefficients b of each type
_TABLE_B = {
    "H1": (("(sigma(e)-phie(lam))/(2 lam)", "c1"), ("-(sigma(phie)+e(lam))/(2 lam)", "c2")),
    "H2": (("b1", "b1"), ("b2", "b2")),
    "H3": (("b3", "b3"), ("b4", "b4")),
    "Zero": (),
}


def _decided_item(an, pt, tower, name: str, shape: str, residual) -> CheckItem:
    values = residual(tower)
    i = _first_nonzero(values)
    if i is None:
        return _item(name)
    witness = _witness(an, _as_expr(values[i]), pt)
    if shape != "scalar":
        witness = f"component {i if shape == 'vector' else divmod(i, 3)}: {witness}"
    return _item(name, witness)


def _coefficient_at(an: StructureAnalysis, frame: AdaptedFrame, attr: str, pt) -> sp.Expr:
    """The frame coefficient attr (a, c1, ...) at the point: its tower value
    there, with t_k = sqrt(a_k)."""
    return _subs_point(an, _as_expr(getattr(frame.tower, attr)), pt)


def verify_frame_tables(
    an: StructureAnalysis, frame: AdaptedFrame, htype: HType
) -> FrameDerivativeTable:
    """Check every line of the type's covariant-derivative table at the
    classification point, and extract the connection coefficients."""
    pt = htype.point
    return FrameDerivativeTable(
        a=_coefficient_at(an, frame, "a", pt),
        b={name: _coefficient_at(an, frame, attr, pt) for name, attr in _TABLE_B[htype.tag]},
        items=[
            _decided_item(an, pt, frame.tower, name, shape, residual)
            for name, shape, residual in _TABLE_LINES[htype.tag]
        ],
    )


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
    if reason := unmet(an, DIM_3, CONSTANT_ALPHA):
        return _skip(name, reason)
    alpha, r = an.alpha, an.r
    T = contract("ii->", an.h2) / 2
    sig_sharp = contract("ij,j->i", an.ginv, an.sigma)
    identity = identity_tensor(an.chart)
    rhs = (
        (r / 2 + alpha**2 - T) * identity
        + (-r / 2 + 3 * (T - alpha**2)) * (identity - an.proj)  # eta(x)xi = Id - phi^2
        - 2 * alpha * an.phih
        - contract("ik,kj->ij", s.phi, an.nab_xi_h)
        + contract("i,j->ij", s.xi, an.sigma)
        + contract("i,j->ij", sig_sharp, s.eta)
    )
    return _residual_item(name, an.Q - rhs)


# --------------------------------------------------------------------
# harmonicity <-> nullity


class HarmonicNullityReport(NamedTuple):
    harmonic: bool
    nullity: bool
    equivalent: bool
    fit: NullityFit
    case_items: List[CheckItem]


def _half_tr_h2(F: _FrameValues):
    return F.D.canon(sum(F.D.h2[4 * i] for i in range(3)) / 2)


def _nu_case(F: _FrameValues, nu, lam2):
    # xi(lambda)/lambda = xi(lambda^2) / (2 lambda^2)
    xil = _deriv_along(F.D, F.xi, lam2)
    return nu + 2 * F.alpha + xil / (2 * lam2)


def _h2_case(F: _FrameValues, mu, nu):
    # nilpotent h satisfies phi.h = -sigma*h, so only kappa and the
    # combination mu - sigma*nu are determined; the printed triple
    # (-alpha^2, -2 a2, -2 alpha) is one representative of the family
    sgn = F.sgn
    case_mu, case_nu = -2 * F.a * sgn, -2 * F.alpha
    return (mu - sgn * nu) - (case_mu - sgn * case_nu)


# each type's parameter formulas: (name, residual of the frame values and
# the fitted kappa, mu, nu)
_CASE_LINES = {
    "Zero": (("kappa = -alpha^2 (h = 0)", lambda F, k, m, n: k + F.alpha**2),),
    "H1": (
        ("kappa = lambda^2 - alpha^2", lambda F, k, m, n: k - (_half_tr_h2(F) - F.alpha**2)),
        ("mu = -2 a1", lambda F, k, m, n: m + 2 * F.a),
        ("nu = -(2 alpha + xi(lambda)/lambda)", lambda F, k, m, n: _nu_case(F, n, _half_tr_h2(F))),
    ),
    "H2": (
        ("kappa = -alpha^2", lambda F, k, m, n: k + F.alpha**2),
        ("mu - sigma*nu matches the -2 a2, -2 alpha representative", lambda F, k, m, n: _h2_case(F, m, n)),
    ),
    "H3": (
        ("kappa = -(alpha^2 + lambda^2)", lambda F, k, m, n: k + F.alpha**2 + -_half_tr_h2(F)),
        ("mu = -2 a3", lambda F, k, m, n: m + 2 * F.a),
        ("nu = -(2 alpha + xi(lambda)/lambda)", lambda F, k, m, n: _nu_case(F, n, -_half_tr_h2(F))),
    ),
}


def _case_lines(tag: str, fit: NullityFit) -> list:
    """(name, residual of the frame values) of the type's parameter
    formulas for the fitted kappa, mu, nu."""

    def residual(case):
        return lambda F: [case(F, *(None if p is None else F.D.scalar(p) for p in fit.triple))]

    return [(name, residual(case)) for name, case in _CASE_LINES[tag]]


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
    adapted frame; whatever is not given is computed here.  A type not
    constant near the base point is the one, failed, case item."""
    from .curvature import xi_is_harmonic

    s = an.structure
    if s.dim != 3:
        raise StructureError("the equivalence is a 3-dimensional statement")
    if harmonic is None:
        harmonic, _ = xi_is_harmonic(an)
    if fit is None:
        fit = nullity_fit(an)
    nullity = fit.status in ("exact", "degenerate_h_zero")
    if not (harmonic and nullity):
        return HarmonicNullityReport(harmonic, nullity, harmonic == nullity, fit, [])

    if htype is None:
        try:
            htype = classify_h(an)
        except HTypeNotConstantError as exc:
            return HarmonicNullityReport(True, True, True, fit, [_item(H_TYPE_CONSTANT, str(exc))])
    if htype.tag == "Zero":  # no frame needed
        tower = _FrameValues(_Domain(an, htype.point))
    else:
        if frame is None:
            frame = build_adapted_frame(an, htype)
        tower = frame.tower

    case_items = [
        _decided_item(an, htype.point, tower, name, "scalar", residual)
        for name, residual in _case_lines(htype.tag, fit)
    ]
    return HarmonicNullityReport(True, True, True, fit, case_items)


# --------------------------------------------------------------------
# the report's 3D section


def classification_section(
    an: StructureAnalysis,
    point: Optional[Sequence[Fraction]],
    fit: NullityFit,
    harmonic: bool,
) -> Dict[str, object]:
    """The analyze report's classification section: the h-type at point
    (the base point when None), the adapted frame as printed sympy
    expressions, its derivative table, the closed-form Ricci operator and
    the harmonicity <=> nullity equivalence for the given fit and verdict.
    A type not constant near the point ends the section with that failed
    item, any other engine error with its message."""
    out: Dict[str, object] = {}
    try:
        htype = classify_h(an, point)
    except HTypeNotConstantError as exc:
        out["items"] = [_item_dict(_item(H_TYPE_CONSTANT, str(exc)))]
        return out
    except EngineError as exc:
        out["error"] = str(exc)
        return out
    out["h_type"] = htype.tag
    out["lambda2"] = sp.sstr(htype.lambda2) if htype.lambda2 is not None else "none"
    out["point"] = [str(p) for p in htype.point]
    try:
        frame = build_adapted_frame(an, htype)
    except EngineError as exc:
        out["frame_error"] = str(exc)
        return out
    out["frame"] = {
        "kind": frame.kind,
        "exact": frame.exact,
        "e1": [sp.sstr(c) for c in frame.sympy.e1],
        "e2": [sp.sstr(c) for c in frame.sympy.e2],
    }
    if frame.sympy.lam is not None:
        out["frame"]["lambda"] = sp.sstr(frame.sympy.lam)
    if frame.sympy.sgn is not None:
        out["frame"]["sigma_sign"] = frame.sympy.sgn
    table = verify_frame_tables(an, frame, htype)
    out["frame_table"] = {
        "a": sp.sstr(table.a),
        "b": {k: sp.sstr(v) for k, v in sorted(table.b.items())},
        "items": _items(table.items),
    }
    out["ricci_closed_form"] = _item_dict(verify_ricci_formula(an))
    # the equivalence is stated at the base point: reuse the type and frame
    # only when they were built there
    at_base = (htype, frame) if point is None else ()
    rep = harmonic_nullity_equivalence(an, fit, harmonic, *at_base)
    out["harmonic_nullity"] = {
        "harmonic": rep.harmonic,
        "nullity": rep.nullity,
        "equivalent": rep.equivalent,
        "items": _items(rep.case_items),
    }
    if not rep.equivalent:
        witness = f"harmonic = {rep.harmonic}, nullity = {rep.nullity}"
        out["harmonic_nullity"]["items"].append(_item_dict(_item("harmonicity <=> nullity", witness)))
    return out
