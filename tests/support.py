"""Test-only helpers: numeric views, an identity residual and a linear
algebra reproduction that the engine itself never needs."""

from fractions import Fraction
from typing import Optional, Sequence

import sympy as sp

from paracosym.geometry import (
    TensorField,
    christoffel,
    contract,
    identity_tensor,
    ricci_operator,
    ricci_tensor,
    riemann,
    scalar_curvature,
)
from paracosym.scalars import ScalarContext, ScalarField


def generator_field(context: ScalarContext, index: int) -> ScalarField:
    """The declared generator number index as a scalar field."""
    return ScalarField(context, context.variable(context.generators[index].name))


def numeric_at(t: TensorField, point: Optional[Sequence] = None):
    """Float value of a tensor (Components, or one float for a scalar);
    generators evaluate as exp(rate*coord)."""
    subs = t.chart.point_subs(point)
    pt = t.chart.base_point if point is None else [Fraction(p) for p in point]
    for gen, gsym in zip(t.chart.context.generators, t.chart.context.gen_symbols):
        p = Fraction(pt[gen.coord_index])
        subs[gsym] = sp.exp(gen.rate * sp.Rational(p.numerator, p.denominator))
    if t.rank == 0:
        return float(t.array.flat[0].subs(subs))
    return t.array.applyfunc(lambda e: sp.Float(e.subs(subs), 30))


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
    Q = ricci_operator(S, g).scale(ricci_sign)
    r = scalar_curvature(S, g) * ricci_sign
    delta = identity_tensor(chart).comps
    gQ = contract("mk,mb->bk", g, Q)  # g(Q d_b, d_k)
    # model = T - (T with a and b swapped)
    T = contract("bk,ia->iabk", g, Q.comps - (r / 2) * delta) + contract(
        "bk,ia->iabk", gQ, delta
    )
    return TensorField(chart, 1, 3, R.comps - T + contract("ibak->iabk", T))


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
