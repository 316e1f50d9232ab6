from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from paracosym.errors import ContextMismatchError, DivisionByZeroFieldError, PoleError
from paracosym.classify import canon
from paracosym.field import serialize
from paracosym.scalars import GeneratorDecl, ScalarContext
from support import exact_value, generator_field, numeric_eval, pdiff


@pytest.fixture
def ctx():
    return ScalarContext(("x", "y", "z"), ())


@pytest.fixture
def gctx():
    return ScalarContext(("x", "y", "z"), (GeneratorDecl("E", 2, sp.Integer(2)),))


def test_arithmetic_and_canonical_equality(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    a = (x + y) * (x - y)
    b = x * x - y * y
    assert a == b
    assert (a - b).is_zero()
    # cancellation happens in the constructor
    c = (x * x - 1) / (x - 1)
    assert c == x + 1


def test_rational_coercion(ctx):
    x = ctx.coordinate(0)
    assert x + Fraction(1, 2) == x + ctx.element(Fraction(1, 2))
    assert serialize(ctx.element(2) / 4) == "1/2"


def test_partial_plain(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    f = x * x * y + y
    assert ctx.partial_element(f, 0) == 2 * x * y
    assert ctx.partial_element(f, 1) == x * x + 1
    assert ctx.partial_element(f, 2).is_zero()


def test_partial_generator_chain_rule(gctx):
    E = generator_field(gctx, 0)
    x = gctx.coordinate(0)
    f = x * E
    # d/dz (x E) = 2 x E since E stands for exp(2 z)
    assert gctx.partial_element(f, 2) == 2 * x * E
    assert gctx.partial_element(f, 0) == E


def test_negative_powers_keep_the_denominator_positive(ctx):
    x = ctx.coordinate(0)
    assert ctx.element(Fraction(-3, 2)) ** -1 == Fraction(-2, 3)
    assert str((-x) ** -1) == "-1/x"
    assert str((2 - x) ** -1) == "-1/(x - 2)"


def test_partial_fractional_rate():
    # F stands for exp(t/2) and G for exp(-3t): dF/dt = F/2, dG/dt = -3G
    hctx = ScalarContext(("t", "x"), (GeneratorDecl("F", 0, sp.Rational(1, 2)), GeneratorDecl("G", 0, -3)))
    t, x = hctx.coordinate(0), hctx.coordinate(1)
    F, G = generator_field(hctx, 0), generator_field(hctx, 1)
    f = t * F / (x + G)
    want = F / (x + G) + t * F / (2 * (x + G)) + 3 * t * F * G / (x + G) ** 2
    assert hctx.partial_element(f, 0) == want
    assert sp.srepr(hctx.partial_element(f, 0).as_expr()) == sp.srepr(canon(pdiff(hctx, f.as_expr(), 0)))
    assert hctx.partial_element(f, 1) == -t * F / (x + G) ** 2


def test_eval_exact_and_pole(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    f = (x + y) / (x - y)
    pt = (Fraction(3), Fraction(1), Fraction(0))
    assert exact_value(ctx, f, pt) == 2
    with pytest.raises(PoleError):
        exact_value(ctx, f, (Fraction(1), Fraction(1), Fraction(0)))


def test_eval_rejects_generators(gctx):
    E = generator_field(gctx, 0)
    with pytest.raises(ValueError):
        exact_value(gctx, E, (Fraction(0), Fraction(0), Fraction(1)))


def test_numeric_eval_generator(gctx):
    import math

    E = generator_field(gctx, 0)
    val = numeric_eval(gctx, E, (Fraction(0), Fraction(0), Fraction(1, 2)))
    assert abs(val - math.e) < 1e-12


def test_context_mismatch(ctx, gctx):
    # x from (x, y, z) and E from (x, y, z) with a generator live in two
    # fields: no arithmetic mixes them, and no element of one equals one
    # of the other
    x, E = ctx.variable("x"), gctx.variable("E")
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b, lambda a, b: a / b):
        with pytest.raises(ContextMismatchError):
            op(x, E)
        with pytest.raises(ContextMismatchError):
            op(E, x)
    with pytest.raises(ContextMismatchError):
        x + gctx.coordinate(0)
    # element lifts no element of another field, smaller or larger
    for context, value in ((gctx, x), (ctx, E)):
        with pytest.raises(ContextMismatchError):
            context.element(value)
    assert x != E and not x == E and x != gctx.coordinate(0)


def test_division_by_zero_field(ctx):
    x = ctx.variable("x")
    zero = ctx.element(0)
    for divide in (lambda: x / zero, lambda: x / 0, lambda: 1 / zero, lambda: zero**-1):
        with pytest.raises(DivisionByZeroFieldError):
            divide()


def test_serialize_exact(ctx):
    assert serialize(ctx.element(Fraction(-7, 3))) == "-7/3"
    assert serialize(ctx.element(5)) == "5"
    f = ctx.coordinate(0) / (1 + ctx.coordinate(2))
    s1, s2 = serialize(f), serialize(f)
    assert s1 == s2


def test_hash_consistent_with_eq(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    a = (x + y) ** 2
    b = x * x + 2 * x * y + y * y
    assert a == b
    assert hash(a) == hash(b)
    half = ctx.element(Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))


# --------------------------------------------------------------------
# field arithmetic against canon of the same Expr step

GCTX = ScalarContext(("t", "x"), (GeneratorDecl("E", 0, 2),))  # E = exp(2t)
T, X, E = sp.symbols("t x E")
_VARIABLES = [(GCTX.variable(s.name), s) for s in (T, X, E)]

# (field element, the same value as a sympy expression) pairs
_COEFFS = st.fractions(-3, 3, max_denominator=3).map(
    lambda f: (GCTX.element(f), sp.Rational(f.numerator, f.denominator))
)
_LEAVES = st.one_of(
    st.sampled_from(_VARIABLES),
    _COEFFS,
    st.lists(_COEFFS, min_size=4, max_size=4).map(
        lambda c: (
            sum((k * v for (k, _), (v, _) in zip(c, _VARIABLES)), c[3][0]),
            sum((k * v for (_, k), (_, v) in zip(c, _VARIABLES)), c[3][1]),
        )
    ),
)


def _sum(pairs):
    return sum((f for f, _ in pairs[1:]), pairs[0][0]), sp.Add(*(e for _, e in pairs))


def _product_of(pairs):
    out = pairs[0][0]
    for f, _ in pairs[1:]:
        out = out * f
    return out, sp.Mul(*(e for _, e in pairs))


def _quotient(pair):
    (f, a), (g, b) = pair
    return (None, None) if g.is_zero() else (f / g, a / b)


def _power(pair):
    (f, a), k = pair
    return (None, None) if k < 0 and f.is_zero() else (f**k, a**k)


def _combine(sub):
    return st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(_sum),
        st.lists(sub, min_size=2, max_size=3).map(_product_of),
        st.tuples(sub, sub).map(_quotient),
        st.tuples(sub, st.integers(-2, 3)).map(_power),
    ).filter(lambda pair: pair[0] is not None)


_RATIONAL_PAIRS = st.recursive(_LEAVES, _combine, max_leaves=10)


def test_canon_orders_generators_as_sympy_does():
    # alphabetical order (t before x) would keep 1/(t - x); sympy's order
    # puts x first, so the denominator's leading coefficient is +1 on x
    out = canon(1 / (T - X))
    assert sp.srepr(out) == sp.srepr(-1 / (-T + X))
    assert str(out) == "-1/(-t + x)"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_RATIONAL_PAIRS, _RATIONAL_PAIRS, st.integers(-3, 3))
def test_scalar_field_ops_match_canon(pa, pb, k):
    (fa, a), (fb, b) = pa, pb
    assert sp.srepr(fa.as_expr()) == sp.srepr(canon(a))
    cases = [(fa + fb, a + b), (fa - fb, a - b), (fa * fb, a * b)]
    if not fb.is_zero():
        cases.append((fa / fb, a / b))
    if k >= 0 or not fa.is_zero():
        cases.append((fa**k, a**k))
    for c in range(2):
        cases.append((GCTX.partial_element(fa, c), pdiff(GCTX, a, c)))
    for got, want in cases:
        assert sp.srepr(got.as_expr()) == sp.srepr(canon(want))
