from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paracosym.errors import (
    ContextMismatchError,
    DivisionByZeroFieldError,
    GeneratorEvalError,
    NotRationalError,
    PoleError,
)
from paracosym.scalars import GeneratorDecl, ScalarContext, ScalarField, canon, pdiff
from support import generator_field


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
    assert x + Fraction(1, 2) == x + ctx.scalar(Fraction(1, 2))
    assert (ctx.scalar(2) / 4).serialize() == "1/2"


def test_partial_plain(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    f = x * x * y + y
    assert f.partial(0) == 2 * x * y
    assert f.partial(1) == x * x + 1
    assert f.partial(2).is_zero()


def test_partial_generator_chain_rule(gctx):
    E = generator_field(gctx, 0)
    x = gctx.coordinate(0)
    f = x * E
    # d/dz (x E) = 2 x E since E stands for exp(2 z)
    assert f.partial(2) == 2 * x * E
    assert f.partial(0) == E


def test_negative_powers_keep_the_denominator_positive(ctx):
    x = ctx.coordinate(0)
    assert ctx.scalar(Fraction(-3, 2)) ** -1 == Fraction(-2, 3)
    assert str((-x) ** -1) == "-1/x"
    assert str((2 - x) ** -1) == "-1/(x - 2)"


def test_partial_fractional_rate():
    # F stands for exp(t/2) and G for exp(-3t): dF/dt = F/2, dG/dt = -3G
    hctx = ScalarContext(("t", "x"), (GeneratorDecl("F", 0, sp.Rational(1, 2)), GeneratorDecl("G", 0, -3)))
    t, x = hctx.coordinate(0), hctx.coordinate(1)
    F, G = generator_field(hctx, 0), generator_field(hctx, 1)
    f = t * F / (x + G)
    want = F / (x + G) + t * F / (2 * (x + G)) + 3 * t * F * G / (x + G) ** 2
    assert f.partial(0) == want
    assert sp.srepr(f.partial(0).expr) == sp.srepr(canon(pdiff(hctx, f.expr, 0)))
    assert f.partial(1) == -t * F / (x + G) ** 2


def test_eval_exact_and_pole(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    f = (x + y) / (x - y)
    pt = (Fraction(3), Fraction(1), Fraction(0))
    assert f.eval(pt) == sp.Rational(2)
    with pytest.raises(PoleError):
        f.eval((Fraction(1), Fraction(1), Fraction(0)))


def test_eval_rejects_generators(gctx):
    E = generator_field(gctx, 0)
    with pytest.raises(GeneratorEvalError):
        E.eval((Fraction(0), Fraction(0), Fraction(1)))


def test_numeric_eval_generator(gctx):
    import math

    E = generator_field(gctx, 0)
    val = E.numeric_eval((Fraction(0), Fraction(0), Fraction(1, 2)))
    assert abs(val - math.e) < 1e-12


def test_context_mismatch(ctx, gctx):
    with pytest.raises(ContextMismatchError):
        ctx.coordinate(0) + gctx.coordinate(0)


def test_division_by_zero_field(ctx):
    with pytest.raises(DivisionByZeroFieldError):
        ctx.coordinate(0) / ctx.zero()


def test_serialize_exact(ctx):
    assert ctx.scalar(Fraction(-7, 3)).serialize() == "-7/3"
    assert ctx.scalar(5).serialize() == "5"
    f = ctx.coordinate(0) / (1 + ctx.coordinate(2))
    s1, s2 = f.serialize(), f.serialize()
    assert s1 == s2


def test_hash_consistent_with_eq(ctx):
    x, y = ctx.coordinate(0), ctx.coordinate(1)
    a = (x + y) ** 2
    b = x * x + 2 * x * y + y * y
    assert a == b
    assert hash(a) == hash(b)


# --------------------------------------------------------------------
# canon: the polynomial-ring path against sympy's cancel(together(.))

T, X, E = sp.symbols("t x E")

_COEFFS = st.fractions(-3, 3, max_denominator=3).map(lambda f: sp.Rational(f.numerator, f.denominator))
_LEAVES = st.one_of(
    st.sampled_from([T, X, E]),
    _COEFFS,
    st.lists(_COEFFS, min_size=4, max_size=4).map(lambda c: c[0] * T + c[1] * X + c[2] * E + c[3]),
)


def _combine(sub):
    return st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda a: sp.Add(*a)),
        st.lists(sub, min_size=2, max_size=3).map(lambda a: sp.Mul(*a)),
        st.tuples(sub, sub).map(lambda q: q[0] / q[1]),
        st.tuples(sub, st.integers(-2, 3)).map(lambda p: p[0] ** p[1]),
    )


_RATIONAL_EXPRS = st.recursive(_LEAVES, _combine, max_leaves=10)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_RATIONAL_EXPRS)
def test_canon_matches_cancel_together(expr):
    assert sp.srepr(canon(expr)) == sp.srepr(sp.cancel(sp.together(expr)))


def test_canon_orders_generators_as_sympy_does():
    # alphabetical order (t before x) would keep 1/(t - x); sympy's order
    # puts x first, so the denominator's leading coefficient is +1 on x
    out = canon(1 / (T - X))
    assert sp.srepr(out) == sp.srepr(-1 / (-T + X))
    assert str(out) == "-1/(-t + x)"


def test_canon_zero_denominator_gives_zoo():
    den = sp.Add(X * (X + 1), -(X**2), -X)  # identically zero, unevaluated
    assert den != 0
    assert canon(1 / den) is sp.zoo
    assert canon(T / den) is sp.zoo


def test_canon_algebraic_constants_take_the_fallback(monkeypatch):
    real_cancel = sp.cancel
    calls = []

    def counting_cancel(expr, *args, **kwargs):
        calls.append(expr)
        return real_cancel(expr, *args, **kwargs)

    monkeypatch.setattr(sp, "cancel", counting_cancel)
    w = sp.Symbol("w_fallback")  # fresh, so the memo has not seen it
    algebraic = sp.sqrt(6) * w / (w + sp.sqrt(6)) + 1 / (2 * sp.sqrt(6))
    assert canon(algebraic) == real_cancel(sp.together(algebraic))
    assert calls
    calls.clear()
    assert canon(w / (2 * w + 2) - 1 / (w + 1)) == (w - 2) / (2 * w + 2)
    assert not calls


# --------------------------------------------------------------------
# ScalarField arithmetic in the field against canon of the same Expr step

GCTX = ScalarContext(("t", "x"), (GeneratorDecl("E", 0, 2),))  # E = exp(2t)


def _in_gctx(expr) -> ScalarField:
    try:
        return ScalarField(GCTX, expr)
    except (DivisionByZeroFieldError, NotRationalError):  # a zero denominator, or zoo
        assume(False)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_RATIONAL_EXPRS, _RATIONAL_EXPRS, st.integers(-3, 3))
def test_scalar_field_ops_match_canon(a, b, k):
    fa, fb = _in_gctx(a), _in_gctx(b)
    assert sp.srepr(fa.expr) == sp.srepr(canon(a))
    cases = [(fa + fb, a + b), (fa - fb, a - b), (fa * fb, a * b)]
    if not fb.is_zero():
        cases.append((fa / fb, a / b))
    if k >= 0 or not fa.is_zero():
        cases.append((fa**k, a**k))
    for c in range(2):
        cases.append((fa.partial(c), pdiff(GCTX, a, c)))
    for got, want in cases:
        assert sp.srepr(got.expr) == sp.srepr(canon(want))
