"""Test-only helpers: exact and numeric values, sympy symbols, the
generator derivative rule on sympy expressions, the adapted frame built on
them and sympy's point test, the connection and Ricci quantities of a bare
metric, an identity residual and a linear algebra reproduction that the
engine itself never needs."""

import math
from fractions import Fraction
from typing import Optional, Sequence

import sympy as sp

from paracosym.errors import PoleError
from paracosym import classify as cls
from paracosym import geometry
from paracosym.geometry import (
    TensorField,
    contract,
    identity_tensor,
    metric_inverse,
    ricci_tensor,
    riemann,
)
from paracosym.field import Frac
from paracosym.scalars import PointValues, ScalarContext


def symbols(context: ScalarContext) -> tuple:
    """The coordinates, then the generators, of a context as sympy symbols,
    the symbols of Frac.as_expr."""
    return tuple(sp.Symbol(n) for n in context.coord_names + tuple(g.name for g in context.generators))


def pdiff(context: ScalarContext, expr: sp.Expr, coord_index: int) -> sp.Expr:
    """Raw partial derivative of a sympy expression by a chart coordinate,
    generator rule included: d/dc = d_c + sum(rate * E * d_E) over the
    generators E based on c."""
    syms = symbols(context)
    d = sp.diff(expr, syms[coord_index])
    for gen, gsym in zip(context.generators, syms[context.dim :]):
        if gen.coord_index == coord_index:
            d += sp.Rational(gen.rate) * gsym * sp.diff(expr, gsym)
    return d


class SympyDomain(cls._Domain):
    """The frame code's sympy domain, differentiated by pdiff: the
    reference the quadratic tower is checked against."""

    def diff(self, e, coord_index: int):
        return pdiff(self.an.chart.context, e, coord_index)


def reference_frame(an, htype) -> "cls._FrameValues":
    """The type's adapted frame on sympy expressions, replaying the seed
    the engine's tower frame chooses."""
    seed = cls._frame_in(cls._Domain(an, htype.point), htype.tag).seed
    return cls._frame_in(SympyDomain(an), htype.tag, seed)


def zero_at(an, expr: sp.Expr, point) -> bool:
    """The point test: expr = 0 at a point, decided symbolically by sympy,
    with no float tolerance.  The engine decides every line in its quadratic
    tower; this is the independent oracle its proofs are checked against."""
    value = cls._subs_point(an, expr, point)
    return sp.expand(value) == 0 or sp.simplify(sp.radsimp(value)) == 0


def exact_value(context: ScalarContext, f: Frac, point: Sequence) -> Fraction:
    """Exact value of a generator-free element of the context's field at a
    rational point."""
    if context.has_generators(f):
        raise ValueError("exact rational value undefined for generator-bearing fields")
    v = PointValues(context, point).value(f)
    return Fraction(v.numer.LC, v.denom.LC)


def generator_field(context: ScalarContext, index: int) -> Frac:
    """The declared generator number index as a field element."""
    return context.variable(context.generators[index].name)


def point_subs(context: ScalarContext, point: Sequence) -> dict:
    """sympy substitutions of the coordinates and generators at a rational
    point; a generator becomes exp(rate*coord)."""
    pt = [sp.Rational(Fraction(p)) for p in point]
    syms = symbols(context)
    subs = dict(zip(syms, pt))
    for gen, gsym in zip(context.generators, syms[context.dim :]):
        subs[gsym] = sp.exp(sp.Rational(gen.rate) * pt[gen.coord_index])
    return subs


def numeric_eval(context: ScalarContext, f: Frac, point: Sequence) -> float:
    """Float value of an element of the context's field at a point;
    generators evaluate as exp(rate*coord)."""
    if len(point) != context.dim:
        raise ValueError(f"point has {len(point)} entries, chart has {context.dim}")
    subs = point_subs(context, point)
    num, den = f.numer.as_expr(), f.denom.as_expr()
    den_val = float(den.subs(subs))
    if den_val == 0.0 or math.isnan(den_val):
        raise PoleError(tuple(point))
    return float(num.subs(subs)) / den_val


def numeric_at(t: TensorField, point: Optional[Sequence] = None):
    """Float value of a tensor (Components, or one float for a scalar);
    generators evaluate as exp(rate*coord)."""
    subs = point_subs(t.chart.context, t.chart.base_point if point is None else point)
    if t.rank == 0:
        return float(t.array[()].subs(subs))
    return t.array.applyfunc(lambda e: sp.Float(e.subs(subs), 30))


def christoffel(g: TensorField) -> TensorField:
    """The Levi-Civita connection coefficients of a bare metric."""
    return geometry.christoffel(g, metric_inverse(g))


def ricci_operator(S: TensorField, g: TensorField) -> TensorField:
    """Q = g^{-1} S."""
    return TensorField(g.chart, 1, 1, contract("ik,kj->ij", metric_inverse(g), S))


def scalar_curvature(S: TensorField, g: TensorField) -> Frac:
    """r = tr Q."""
    return contract("ii->", ricci_operator(S, g))


def three_dim_decomposition_residual(g: TensorField, ricci_sign: int = 1) -> TensorField:
    """In three dimensions the curvature tensor is determined by the Ricci
    tensor:

    R(X,Y)Z = g(Y,Z)QX - g(X,Z)QY + g(QY,Z)X - g(QX,Z)Y
              - (r/2)(g(Y,Z)X - g(X,Z)Y).

    Returns the (1,3) residual for an arbitrary metric; ricci_sign = -1
    flips the sign convention of Q (and r) and must break the identity on
    any non-flat metric."""
    chart = g.chart
    if chart.dim != 3:
        raise ValueError("the decomposition is specific to three dimensions")
    conn = christoffel(g)
    R = riemann(conn)
    S = ricci_tensor(R)
    Q = ricci_operator(S, g) * ricci_sign
    r = scalar_curvature(S, g) * ricci_sign
    delta = identity_tensor(chart)
    gQ = contract("mk,mb->bk", g, Q)  # g(Q d_b, d_k)
    # model = T - (T with a and b swapped)
    T = contract("bk,ia->iabk", g, Q - (r / 2) * delta) + contract(
        "bk,ia->iabk", gQ, delta
    )
    return TensorField(chart, 1, 3, R - T + contract("ibak->iabk", T))


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
