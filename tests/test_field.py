"""The own integer-polynomial field, its printer and the exact point
evaluator, each against sympy: FracField over ZZ, sstr and N(., 50)."""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField
from sympy.polys.polyutils import _sort_gens

from paracosym.errors import PoleError
from paracosym.field import field_of_names, reduce, ring_of, sort_names, to_str
from paracosym.scalars import GeneratorDecl, PointValues, ScalarContext
from paracosym.tower import QuadraticTower

# names whose sympy order is neither alphabetical nor the order given:
# x1, x10 by their index, t before a, E last
NAMES = ("E", "a", "x10", "t", "x1")
ORDER = sort_names(NAMES)
SYMS = tuple(sp.Symbol(n) for n in ORDER)
OURS = field_of_names(ORDER)
THEIRS = FracField(SYMS, ZZ)

_TERMS = st.lists(
    st.tuples(st.integers(-4, 4), st.tuples(*[st.integers(0, 2)] * len(NAMES))),
    min_size=0,
    max_size=4,
)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def test_generator_order_is_sympys():
    assert ORDER == ("x1", "x10", "t", "a", "E")
    assert ORDER == tuple(s.name for s in _sort_gens(sp.symbols(NAMES)))
    assert sort_names(["E", "z", "x2", "x", "y", "t", "x10", "a", "x1"]) == (
        "x", "x1", "x2", "x10", "y", "z", "t", "a", "E"
    )


def _pair(terms):
    """The same polynomial in our ring and in sympy's."""
    ours, theirs = ring_of(ORDER).zero, THEIRS.ring.zero
    for c, m in terms:
        ours += ring_of(ORDER).from_dict({m: c}) if c else 0
        theirs += THEIRS.ring({m: c}) if c else 0
    return ours, theirs


def _same(p, q) -> bool:
    return dict(p) == dict(q)


@SETTINGS
@given(_TERMS, _TERMS, st.integers(0, 3), st.integers(0, len(NAMES) - 1))
def test_polynomial_arithmetic_matches_sympy(a, b, k, i):
    (p, P), (q, Q) = _pair(a), _pair(b)
    assert _same(p + q, P + Q) and _same(p - q, P - Q) and _same(p * q, P * Q)
    assert _same(p.diff(i), P.diff(THEIRS.ring.gens[i]))
    if p or k:  # sympy's rings leave 0**0 undefined
        assert _same(p**k, P**k)
    assert all(_same(u, v) for u, v in zip(p.cofactors(q), P.cofactors(Q)))
    assert p.LC == P.LC and p.is_ground == P.is_ground


@SETTINGS
@given(_TERMS, _TERMS, _TERMS)
def test_gcd_and_reduce_match_sympy(a, b, c):
    (p, P), (q, Q), (r, R) = _pair(a), _pair(b), _pair(c)
    assume(q and r)
    # a common factor r, so the gcd has work to do; asked again, the ring's
    # memo answers, also for the same operands with their terms in reverse
    # order, and the memo shares its Polys, which nothing may change
    pr, qr, want = p * r, q * r, (P * R).cofactors(Q * R)
    operands = dict(pr), dict(qr)
    first = pr.cofactors(qr)
    results = [dict(u) for u in first]
    reverse = lambda u: ring_of(ORDER).from_dict(dict(reversed(u.items())))
    for got in (first, pr.cofactors(qr), reverse(pr).cofactors(reverse(qr))):
        assert all(_same(u, v) for u, v in zip(got, want))
    assert (dict(pr), dict(qr)) == operands and [dict(u) for u in first] == results
    f, F = reduce(OURS, p * r, q * r), THEIRS.new(P * R, Q * R)
    assert _same(f.numer, F.numer) and _same(f.denom, F.denom)
    assert f.denom.LC > 0
    g, G = reduce(OURS, q, r), THEIRS.new(Q, R)
    for x, X in ((f + g, F + G), (f - g, F - G), (f * g, F * G)):
        assert _same(x.numer, X.numer) and _same(x.denom, X.denom)
    if g:
        x, X = f / g, F / G
        assert _same(x.numer, X.numer) and _same(x.denom, X.denom)
    assert sp.srepr(f.as_expr()) == sp.srepr(F.as_expr())


# --------------------------------------------------------------------
# the printer

PRINT_FIELD = field_of_names(sort_names(["x", "y", "t", "E"]))
x, y, t, E = (PRINT_FIELD.gens[PRINT_FIELD.symbols.index(n)] for n in "xytE")
HALF = Fraction(1, 2)
CASES = [
    1 - x, (1 - x) / 2, HALF - x / 2, 2 - 3 * x, 1 - x * y, 1 - x**2, x - 1,
    x / 3 + y / 3, (2 * x + 3) / 6, (x + 1) / (2 * x**2), (1 - x) / x**2,
    1 / x, -1 / x, 1 / x**2, -1 / x**2, 1 / (2 * x), 3 / (2 * x**2), 1 / (x * y),
    2 / (x * y**2), 1 / (x + 1), -1 / (x + 1), 3 / (2 * x + 2), (2 * x + 2) / y,
    x / (x + 1), -2 * x / (x + 1), (x + 1) / (x - 1), 1 / (t - x),
    E * x + t, x * E / (t + 1), -x * y / (2 * t**2 * E), E**2 - Fraction(7389, 1000),
    x**2 * y / 3, PRINT_FIELD.zero, PRINT_FIELD.one * Fraction(-7, 3),
]


@pytest.mark.parametrize("f", CASES, ids=[str(i) for i in range(len(CASES))])
def test_printer_matches_sstr_on_listed_cases(f):
    e = f.as_expr()
    assert to_str(f) == sp.sstr(e)
    assert to_str(f, lex=True) == sp.sstr(e, order="lex")


def test_printer_orders_differ_as_sympys_do():
    assert (to_str(1 - x), to_str(1 - x, lex=True)) == ("1 - x", "-x + 1")
    assert (to_str(HALF - x / 2), to_str(HALF - x / 2, lex=True)) == ("1/2 - x/2", "-x/2 + 1/2")
    assert to_str(x / 3 + y / 3) == "x/3 + y/3"
    assert to_str((x + 1) / (2 * x**2)) == "(x + 1)/(2*x**2)"
    assert to_str(1 / x**2) == "x**(-2)"


_COEFF = st.fractions(-4, 4, max_denominator=4)
_MONOM = st.tuples(*[st.integers(0, 2)] * 4)
_POLY = st.lists(st.tuples(_COEFF, _MONOM), min_size=1, max_size=3)


def _build(terms):
    out = PRINT_FIELD.zero
    for c, m in terms:
        term = PRINT_FIELD.one * c
        for g, e in zip((x, y, t, E), m):
            term = term * g**e
        out = out + term
    return out


@SETTINGS
@given(_POLY, _POLY)
def test_printer_matches_sstr(num, den):
    d = _build(den)
    assume(d)
    f = _build(num) / d
    e = f.as_expr()
    assert to_str(f) == sp.sstr(e)
    assert to_str(f, lex=True) == sp.sstr(e, order="lex")


# --------------------------------------------------------------------
# exact values and signs at a point

# E = exp(2t) and F = exp(t/3): at t = 1 they are powers of e^(1/3)
CTX = ScalarContext(("x", "t"), (GeneratorDecl("E", 1, 2), GeneratorDecl("F", 1, Fraction(1, 3))))
AT = PointValues(CTX, (Fraction(1, 2), Fraction(1)))
SE, SF, SX, ST = sp.symbols("E F x t")
SUBS = {SX: sp.Rational(1, 2), ST: 1, SE: sp.exp(2), SF: sp.exp(sp.Rational(1, 3))}
FE, FF, FX, FT = (CTX.variable(n) for n in ("E", "F", "x", "t"))


def _both(build):
    """(field element, sympy reference): build over the field's generators
    and over the sympy symbols, both in the order E, F, x, t."""
    return build(FE, FF, FX, FT), build(SE, SF, SX, ST)


def _sign(pair) -> int:
    f, expr = pair
    value = AT.value(f)
    assert bool(value) == (expr.subs(SUBS) != 0)
    return AT.sign(value)


@pytest.mark.parametrize(
    "expr",
    [
        _both(lambda E, F, x, t: E - Fraction(7389, 1000)),
        _both(lambda E, F, x, t: E - Fraction(7390, 1000)),
        _both(lambda E, F, x, t: F**6 - Fraction(7389056, 10**6)),
        _both(lambda E, F, x, t: Fraction(20085537, 10**6) - E * F**3),
        _both(lambda E, F, x, t: (E - 7) / (F - Fraction(13956, 10000))),
        _both(lambda E, F, x, t: x * E - 3),
    ],
)
def test_sign_of_near_cancellations(expr):
    assert _sign(expr) == (1 if sp.N(expr[1].subs(SUBS), 50) > 0 else -1)


@SETTINGS
@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=4))
def test_sign_matches_sympy_numerics(terms):
    pair = _both(lambda E, F, x, t: sum(c * E**i * F**j for c, i, j in terms) + Fraction(1, 3))
    num = sp.N(pair[1].subs(SUBS), 50)
    assume(abs(num) > 1e-30)
    assert _sign(pair) == (1 if num > 0 else -1)


def test_values_at_points_are_exact():
    # E - F**6 is not zero in the field, but both are e^2 at t = 1
    assert FE - FF**6 and not AT.value(FE - FF**6)
    assert AT.value(FF**6) == AT.value(FE)
    at0 = PointValues(CTX, (0, 0))
    assert not at0.value(FE - 1) and not at0.is_unit(FE - 1)
    with pytest.raises(PoleError):
        at0.value(1 / (FF - 1))
    assert AT.value(2 * FX + 1) == 2


# the sign at a point of p + q*t, t = sqrt(a) > 0, in a quadratic tower


def _sign_of(ctx, at, p, q, a) -> int:
    """The tower's sign of p + q*sqrt(a) at the point of at, sqrt(a) a level
    of its own."""
    T = QuadraticTower(ctx, at)
    return T.sign(T.base(p) + T.base(q) * T.adjoin(T.base(a)))


_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@SETTINGS
@given(_rationals, _rationals, st.fractions(min_value=0, max_value=9, max_denominator=4).filter(bool))
def test_quadratic_sign_matches_sympy_on_rationals(p, q, a):
    exact = sp.sign(sp.Rational(p) + sp.Rational(q) * sp.sqrt(sp.Rational(a)))
    assert _sign_of(CTX, AT, p, q, a) == exact


# E = exp(z) at x = y = z = 1: the values lie in QQ(E) with E = e
GCTX = ScalarContext(("x", "y", "z"), (GeneratorDecl("E", 2, 1),))
AT_E = PointValues(GCTX, (1, 1, 1))
GE = GCTX.variable("E")


@pytest.mark.parametrize(
    "p, q, a",
    [
        (GE - 1, 1, GE**2),  # p and q of one sign
        (1 - GE, 1, (GE - 1) ** 2 + 1),  # opposite signs, p**2 < a*q**2
        (3 - GE, -1, GE),  # opposite signs, p**2 > a*q**2
        (GE - 1, -1, (GE - 1) ** 2),  # zero: sqrt((E - 1)**2) is E - 1 at z = 1
        (GE, -1, Fraction(7389, 1000)),  # e - 2.71827...
        (GE, -1, Fraction(7390, 1000)),  # e - 2.71845...
        (0, -GE, GE),
    ],
)
def test_quadratic_sign_at_a_generator_value(p, q, a):
    sign = _sign_of(GCTX, AT_E, p, q, a)
    p, q, a = (GCTX.element(v).as_expr().subs(sp.Symbol("E"), sp.E) for v in (p, q, a))
    # factored, sympy proves sqrt((e - 1)**2) = e - 1
    assert sign == sp.sign(p + q * sp.sqrt(sp.factor(a)))


def test_quadratic_sign_of_a_pell_pair():
    # 768398401**2 - 2 * 543339720**2 = 1, so 768398401 - 543339720*sqrt(2)
    # is 1/(768398401 + 543339720*sqrt(2)), about 6.5e-10: its negative is
    # negative, which a test "below -1e-9" misses
    assert 768398401**2 - 2 * 543339720**2 == 1
    assert _sign_of(CTX, AT, -768398401, 543339720, 2) == -1
    assert _sign_of(CTX, AT, 768398401, -543339720, 2) == 1


def _level_two():
    """The tower QQ(x, y, z, E)(t1)(t2) at E = e, t1 = sqrt(E) and
    t2 = sqrt(E - t1), with sympy's t1 and t2 there."""
    T = QuadraticTower(GCTX, AT_E)
    t1 = T.adjoin(T.base(GE))
    t2 = T.adjoin(T.base(GE) - t1)
    return T, t1, t2, sp.sqrt(sp.E), sp.sqrt(sp.E - sp.sqrt(sp.E))


@SETTINGS
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any))
def test_tower_sign_at_level_two_matches_sympy_numerics(c):
    T, t1, t2, s1, s2 = _level_two()
    value = sp.N((c[0] + c[1] * s1) + (c[2] + c[3] * s1) * s2, 50)
    assert abs(value) > 1e-30
    assert T.sign((c[0] + c[1] * t1) + (c[2] + c[3] * t1) * t2) == (1 if value > 0 else -1)


def test_tower_sign_at_level_two_near_and_at_zero():
    T, t1, t2, s1, s2 = _level_two()
    # r within 1e-40 of t2: the sign of t2 - r comes from the norm one level
    # down, (r**2 - E)**2 - E, whose value at e is about 1e-40 too
    r = Fraction(str(sp.N(s2, 45)))
    assert T.sign(t2 - r) == (1 if sp.N(s2 - sp.Rational(r), 60) > 0 else -1)
    assert T.sign(r - t2) == -T.sign(t2 - r)
    # a level whose radicand is a square one level down: t = sqrt((t1 - 1)**2)
    # is t1 - 1 at the point, so t - t1 + 1 is zero there but not in the tower
    t = T.adjoin((t1 - 1) * (t1 - 1))
    assert not (t - t1 + 1).is_zero() and T.sign(t - t1 + 1) == 0


@pytest.mark.parametrize("c", [0, 1, -3, Fraction(1, 2)], ids=str)
def test_ground_element_hashes_as_its_number(c):
    f = PRINT_FIELD.coerce(c)
    assert f == c and hash(f) == hash(c)
    assert len({f, c}) == 1
