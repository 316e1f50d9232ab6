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

The frames carry square roots: sqrt(lambda^2), the norm sqrt(+-g(v,v)),
and for H3 a rotation's sqrt((c2+1)/2).  Their helpers and table lines are
written once over a scalar domain and run twice.  In a quadratic tower over
the chart's field (tower.QuadraticTower) they decide: a check whose
residual is zero there passes, for either sign of every root.  As sympy
expressions they give what the report prints (e1, e2, lambda, a, b) and,
for a residual the tower leaves nonzero or meets a zero divisor on, the
point test _zero_at with its witness.  The numeric choices of a frame
(seed field, signs) are made on the sympy values at the point and replayed
in the tower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import sympy as sp

from .errors import StructureError, ZeroDivisorError
from .geometry import ConnectionCoefficients, TensorField, compose11, contract, identity_tensor
from .structures import CheckItem, StructureAnalysis, _residual_item
from .nullity import NullityFit, nullity_fit
from .scalars import ScalarField, canon, pdiff
from .tower import Quad, QuadraticTower


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
# scalar domains: the frame code runs on sympy expressions, which the
# report prints and the point test takes, and in a quadratic tower over
# the chart's field, which decides


class _Domain:
    """The scalars of the frame code: sympy expressions in canon form, or,
    given a tower, elements of that QuadraticTower."""

    def __init__(self, an: StructureAnalysis, tower: Optional[QuadraticTower] = None):
        self.an = an
        self.tower = tower

    def canon(self, e):
        if self.tower is None:
            return canon(e)
        return e if isinstance(e, Quad) else self.tower.base(e)

    def diff(self, e, coord_index: int):
        if self.tower is None:
            return pdiff(self.an.chart.context, e, coord_index)
        return e.diff(coord_index)

    def sqrt(self, a):
        return sp.sqrt(a) if self.tower is None else self.tower.sqrt(a)

    def scalar(self, f: ScalarField):
        return f.expr if self.tower is None else self.tower.base(f.value)

    def flat(self, t) -> tuple:
        """Row-major components of a TensorField or of the connection."""
        if self.tower is None:
            return t.array.flat
        comps = t.gamma if isinstance(t, ConnectionCoefficients) else t.comps
        return tuple(map(self.tower.base, comps.flat))

    g = cached_property(lambda self: self.flat(self.an.structure.g))
    phi = cached_property(lambda self: self.flat(self.an.structure.phi))
    xi = cached_property(lambda self: list(self.flat(self.an.structure.xi)))
    h = cached_property(lambda self: self.flat(self.an.h))
    h2 = cached_property(lambda self: self.flat(compose11(self.an.h, self.an.h)))
    hphi = cached_property(lambda self: self.flat(compose11(self.an.h, self.an.structure.phi)))
    nab_xi_h = cached_property(lambda self: self.flat(self.an.nab_xi_h))
    proj = cached_property(lambda self: self.flat(self.an.proj))
    sigma = cached_property(lambda self: self.flat(self.an.sigma))
    conn = cached_property(lambda self: self.flat(self.an.conn))
    alpha = cached_property(lambda self: self.scalar(self.an.alpha))

    @cached_property
    def res13(self) -> tuple:
        """h^2 - (alpha^2 + (1/2) S(xi,xi)) phi^2, with phi^2 the projection."""
        an = self.an
        szz = contract("ab,a,b->", an.S, an.structure.xi, an.structure.xi)
        h2 = compose11(an.h, an.h)
        return self.flat(TensorField(an.chart, 1, 1, h2.comps - (an.alpha**2 + szz / 2) * an.proj.comps))


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
    subs = {s: sp.Rational(Fraction(v)) for s, v in zip(ctx.coord_symbols, pt)}
    for gen, gsym in zip(ctx.generators, ctx.gen_symbols):
        subs[gsym] = sp.exp(gen.rate * subs[ctx.coord_symbols[gen.coord_index]])
    return expr.subs(subs)


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


@dataclass
class AdaptedFrame:
    """Frame vectors as component lists of sympy expressions: they may
    carry algebraic constants (sqrt(...)) outside the chart's field.  The
    same frame in a quadratic tower (tower; None when building it met a
    zero divisor) decides the checks, and the sympy one (sympy) serves the
    point test of what the tower leaves open."""

    kind: str  # "orthonormal-phi" | "pseudo-orthonormal"
    e1: List[sp.Expr]
    e2: List[sp.Expr]
    e3: List[sp.Expr]  # always xi
    exact: bool  # True when all components are rational functions
    lam: Optional[sp.Expr] = None  # signed eigenfunction (H1/H3)
    sigma_sign: Optional[int] = None  # phi e1 = sigma_sign * e1 (H2)
    tower: Optional[_FrameValues] = field(default=None, repr=False, compare=False)
    sympy: Optional[_FrameValues] = field(default=None, repr=False, compare=False)


def _is_rational_frame(an: StructureAnalysis, *vectors: List[sp.Expr]) -> bool:
    syms = an.chart.context.coord_symbols + an.chart.context.gen_symbols
    return all(c.is_rational_function(*syms) for v in vectors for c in v)


def _seed_fields(D: _Domain) -> List[list]:
    """Deterministic seeds: ker(eta)-projections of the coordinate fields."""
    P = D.an.proj.comps.flat
    return [[D.proj[3 * i + c] for i in range(3)] for c in range(3) if any(P[3 * i + c] for i in range(3))]


class _Choices:
    """A frame's numeric and structural choices: made on the sympy
    expressions and recorded, then replayed when the same frame is built
    in the tower."""

    def __init__(self):
        self.made: list = []
        self._replay = None

    def __call__(self, decide):
        if self._replay is not None:
            return next(self._replay)
        self.made.append(decide())
        return self.made[-1]

    def replay(self) -> "_Choices":
        self._replay = iter(self.made)
        return self


def _frame_in(D: _Domain, tag: str, pt, choose: _Choices):
    """(e1, e2, lam, sigma_sign) of the type's adapted frame in D."""
    an = D.an

    def at(e):  # only called on sympy expressions: the choices are made there
        return float(_subs_point(an, e, pt).evalf(30))

    if tag == "H2":
        # nilpotent h; build the pseudo-orthonormal chain
        for w in _seed_fields(D):
            hw = _apply_op(D, D.h, w)
            if choose(lambda: all(abs(at(c)) < 1e-12 for c in hw)):
                continue
            u = _g_of(D, w, hw)
            if choose(lambda: abs(at(u)) < 1e-12):
                continue
            t = D.canon(-_g_of(D, w, w) / (2 * u))
            cfac = 1 / D.sqrt(u)
            e2 = [D.canon(cfac * c) for c in hw]
            e1 = [D.canon(cfac * (a + t * b)) for a, b in zip(w, hw)]
            sig = _g_of(D, _apply_op(D, D.phi, e1), e2)
            sigma_sign = choose(lambda: 1 if at(sig) > 0 else -1)
            return [D.canon(c) for c in e1], [D.canon(c) for c in e2], None, sigma_sign
        raise StructureError(f"could not build a nilpotent chain frame at {pt}")

    tr_h2 = D.canon(sum(D.h2[4 * i] for i in range(3)))
    e_field = None
    if tag == "H1":
        # eigenvector field (h + s*lam)w, choose the timelike one
        lam_abs = D.sqrt(tr_h2 / 2)
        for w in _seed_fields(D):
            for sgn in (1, -1):
                v = [D.canon(c + sgn * lam_abs * wc) for c, wc in zip(_apply_op(D, D.h, w), w)]
                q = _g_of(D, v, v)
                if choose(lambda: at(q) < -1e-9):
                    norm = D.sqrt(-q)
                    e_field = [D.canon(c / norm) for c in v]
                    break
            if e_field is not None:
                break
    else:
        # any timelike unit field in ker(eta); phi flips causality
        for w in _seed_fields(D):
            q = _g_of(D, w, w)
            causal = choose(lambda: -1 if at(q) < -1e-9 else 1 if at(q) > 1e-9 else 0)
            if causal < 0:
                norm = D.sqrt(-q)
                e_field = [D.canon(c / norm) for c in w]
                break
            if causal > 0:
                pw = _apply_op(D, D.phi, w)
                norm = D.sqrt(q)
                e_field = [D.canon(c / norm) for c in pw]
                break
    if e_field is None:
        raise StructureError(f"could not seed an adapted frame at {pt}; resample the point")

    if tag == "H3":
        # hyperbolic rotation killing g(h e, e)
        a0 = D.canon(-_g_of(D, _apply_op(D, D.h, e_field), e_field))
        if choose(lambda: a0 != 0):
            pe = _apply_op(D, D.phi, e_field)
            b0 = _g_of(D, _apply_op(D, D.h, e_field), pe)
            sb = choose(lambda: 1 if at(b0) > 0 else -1)
            lamf = D.sqrt(-tr_h2 / 2)
            c2 = sb * b0 / lamf
            s2 = -a0 * sb / lamf
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
    return [D.canon(c) for c in e_field], [D.canon(c) for c in pe_field], lam, None


def _frame_values(an: StructureAnalysis, htype: HType) -> Tuple[Optional[_FrameValues], _FrameValues]:
    """The type's adapted frame in a quadratic tower over the chart's field
    (None when building it meets a zero divisor) and as sympy expressions.
    The sympy run makes the numeric choices at the point; the tower run
    replays them."""
    choices = _Choices()
    D = _Domain(an)
    sympy = _FrameValues(D, *_frame_in(D, htype.tag, htype.point, choices))
    T = _Domain(an, QuadraticTower(an.chart.context))
    try:
        tower = _FrameValues(T, *_frame_in(T, htype.tag, htype.point, choices.replay()))
    except ZeroDivisorError:
        tower = None
    return tower, sympy


def build_adapted_frame(an: StructureAnalysis, htype: HType) -> AdaptedFrame:
    """The type's adapted frame, with its metric and h-action pattern
    checked at the point."""
    tower, sympy = _frame_values(an, htype)
    frame = AdaptedFrame(
        "pseudo-orthonormal" if htype.tag == "H2" else "orthonormal-phi",
        sympy.e1,
        sympy.e2,
        list(sympy.xi),
        exact=_is_rational_frame(an, sympy.e1, sympy.e2),
        lam=sympy.lam,
        sigma_sign=sympy.sgn,
        tower=tower,
        sympy=sympy,
    )
    for label, residual in _pattern_lines(frame.kind, htype.tag):
        found = _first_nonzero(an, htype.point, tower, sympy, residual)
        if found is not None:
            raise StructureError(
                f"adapted frame fails its {label} pattern at {htype.point}: {found[1]}"
            )
    return frame


def _first_nonzero(an: StructureAnalysis, pt, tower: Optional[_FrameValues], sympy: _FrameValues, residual):
    """(index, witness) of the first component of residual(values) that is
    not zero at the point, or None.  A component that is zero in the tower
    is zero for either sign of every root; every other one goes to the
    point test on its sympy expression."""
    proved: List[bool] = []
    if tower is not None:
        try:
            proved = [r.is_zero() for r in residual(tower)]
        except ZeroDivisorError:
            pass
    if proved and all(proved):
        return None
    for i, r in enumerate(residual(sympy)):
        if proved and proved[i]:
            continue
        ok, witness, _ = _zero_at(an, r, pt)
        if not ok:
            return i, witness
    return None


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


@dataclass
class FrameDerivativeTable:
    a: sp.Expr  # a1 | a2 | a3 by type (value at the point)
    b: Dict[str, sp.Expr] = field(default_factory=dict)
    sigma_values: Dict[str, sp.Expr] = field(default_factory=dict)
    items: List[CheckItem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(it.ok for it in self.items)


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


def _decided_item(an, pt, tower, sympy, name: str, shape: str, residual) -> CheckItem:
    found = _first_nonzero(an, pt, tower, sympy, residual)
    if found is None:
        return CheckItem(name, "pass")
    i, witness = found
    if shape == "scalar":
        return CheckItem(name, "fail", witness=witness)
    where = i if shape == "vector" else divmod(i, 3)
    return CheckItem(name, "fail", witness=f"component {where}: {witness}")


def verify_frame_tables(
    an: StructureAnalysis, frame: AdaptedFrame, htype: HType
) -> FrameDerivativeTable:
    """Check every line of the type's covariant-derivative table at the
    classification point, and extract the connection coefficients."""
    pt = htype.point
    E = frame.sympy
    table = FrameDerivativeTable(
        a=_subs_point(an, E.a, pt),
        b={name: _subs_point(an, getattr(E, attr), pt) for name, attr in _TABLE_B[htype.tag]},
        sigma_values={
            "sigma(e1)": _subs_point(an, E.sig_e1, pt),
            "sigma(e2)": _subs_point(an, E.sig_e2, pt),
        },
    )
    table.items = [
        _decided_item(an, pt, frame.tower, E, name, shape, residual)
        for name, shape, residual in _TABLE_LINES[htype.tag]
    ]
    return table


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
    if htype.tag == "Zero":  # no frame needed
        tower = _FrameValues(_Domain(an, QuadraticTower(an.chart.context)))
        sympy = _FrameValues(_Domain(an))
    else:
        if frame is None:
            frame = build_adapted_frame(an, htype)
        tower, sympy = frame.tower, frame.sympy

    for name, residual in _case_lines(htype.tag, fit):
        found = _first_nonzero(an, htype.point, tower, sympy, residual)
        if found is None:
            report.case_items.append(CheckItem(name, "pass"))
        else:
            report.case_items.append(CheckItem(name, "fail", witness=found[1]))
    return report
