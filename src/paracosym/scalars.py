"""Exact scalar arithmetic for chart computations.

A ScalarField is a rational function of the chart coordinates, optionally
involving declared exponential generators.  A generator E with base
coordinate c and rational rate q stands for exp(q*c): algebraically it is
an independent transcendental over the polynomial ring, so gcd reduction
and zero testing stay decidable, and the only place its analytic meaning
enters is the derivative rule dE/dc = q*E and numeric evaluation.

Every ScalarContext owns one rational function field QQ(coordinates,
generators): a cached sympy FracField of integer polynomials (the same
fractions as over QQ, with cheaper coefficient arithmetic) whose
generators are in sympy's own order (polyutils._sort_gens).  A ScalarField
holds one element of that field, and tensors store their components as
such elements too.  An element is always a reduced fraction: integer
numerator and denominator without a common factor, whose denominator has a
positive leading coefficient (lex order on the sorted generators).  That form is unique, so equality and
zero tests need no further work, and its as_expr() view is exactly the
sympy expression cancel(together(.)) gives for the same function.  The
kernels that sum many products (contractions, the connection, curvature)
add numerator/denominator pairs over the lcm of their denominators and
reduce each result once (fraction_sum).  The derivative rule
d/dc = d_c + sum(rate * E * d_E) is written once, as the derivation table
of the context, and applies to field elements and to sympy expressions.

sympy expressions appear only at the boundary: parsing lowers straight
into the field, and the Expr view of an element serves printing, JSON,
evaluation at points and classify's frame code.  Frame vectors there carry
algebraic constants (sqrt(...)) that no QQ field holds; canon() gives
such an expression the form cancel(together(.)) gives it, computing it in
a polynomial ring when the input is rational and calling sympy otherwise.
No floats on the symbolic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Tuple, Union

import sympy as sp
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

from .errors import (
    ContextMismatchError,
    DivisionByZeroFieldError,
    GeneratorEvalError,
    NotRationalError,
    PoleError,
)

RationalLike = Union[int, Fraction, sp.Rational]
Pair = Tuple[PolyElement, PolyElement]  # (numerator, denominator), not reduced


@dataclass(frozen=True)
class GeneratorDecl:
    """An exponential generator exp(rate * coord)."""

    name: str
    coord_index: int
    rate: sp.Rational

    def __post_init__(self):
        object.__setattr__(self, "rate", sp.Rational(self.rate))


class ScalarContext:
    """Shared coordinate/generator universe for a family of scalar fields,
    with its rational function field."""

    def __init__(self, coord_names: Sequence[str], generators: Sequence[GeneratorDecl] = ()):
        coord_names = tuple(coord_names)
        if len(set(coord_names)) != len(coord_names):
            raise ValueError(f"duplicate coordinate names: {coord_names}")
        for gen in generators:
            if gen.name in coord_names:
                raise ValueError(f"generator {gen.name!r} shadows a coordinate")
            if not 0 <= gen.coord_index < len(coord_names):
                raise ValueError(f"generator {gen.name!r}: bad coordinate index {gen.coord_index}")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        self.coord_names = coord_names
        self.generators = tuple(generators)
        self.coord_symbols = tuple(sp.Symbol(n) for n in coord_names)
        self.gen_symbols = tuple(sp.Symbol(g.name) for g in self.generators)
        self._sym_by_name = {s.name: s for s in self.coord_symbols + self.gen_symbols}
        self.field = _field(_sort_gens(self.coord_symbols + self.gen_symbols))
        # d/dc = sum over (symbol, factor) of factor * d/d(symbol): the
        # coordinate itself with factor 1, and every generator E based on c
        # with factor rate * E
        self.derivation = tuple(
            ((sym, sp.Integer(1)),)
            + tuple(
                (gsym, gen.rate * gsym)
                for gen, gsym in zip(self.generators, self.gen_symbols)
                if gen.coord_index == c
            )
            for c, sym in enumerate(self.coord_symbols)
        )
        # the same rule on integer polynomials: scaled by the lcm L of the
        # rates' denominators, (ring index, L * factor) per term
        ring = self.field.ring
        self._poly_derivation = []
        for rule in self.derivation:
            lcd = math.lcm(*(int(sp.fraction(factor)[1]) for _, factor in rule))
            terms = tuple(
                (ring.symbols.index(sym), None if lcd * factor == 1 else ring.from_expr(lcd * factor))
                for sym, factor in rule
            )
            self._poly_derivation.append((terms, lcd))

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def symbol(self, name: str) -> sp.Symbol:
        return self._sym_by_name[name]

    def __eq__(self, other):
        return (
            isinstance(other, ScalarContext)
            and self.coord_names == other.coord_names
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.coord_names, self.generators))

    def __repr__(self):
        return f"ScalarContext({self.coord_names}, generators={self.generators})"

    # -- field elements -----------------------------------------------

    def element(self, value) -> FracElement:
        """value as an element of this context's field: a field element,
        a ScalarField, an int, a Fraction, or a sympy expression built from
        the context's symbols and rationals by +, * and integer powers."""
        if isinstance(value, ScalarField):
            if value.context != self:
                raise ContextMismatchError(value.context, self)
            return value.value
        return to_element(self.field, value)

    def variable(self, name: str) -> FracElement:
        """The field generator of a coordinate or generator name."""
        return self.field.gens[self.field.symbols.index(self._sym_by_name[name])]

    def diff(self, f: FracElement, coord_index: int) -> Pair:
        """d f / d(coordinate), generator rule included, as an unreduced
        numerator/denominator pair (f' = (n' d - n d') / d^2)."""
        n, d = f.numer, f.denom
        terms, lcd = self._poly_derivation[coord_index]
        dn = self._diff_poly(n, terms)  # lcd * n'
        if d.is_ground:
            return dn, d * lcd
        dd = self._diff_poly(d, terms)  # lcd * d'
        if not dd:
            return dn, d * lcd
        return dn * d - n * dd, d * d * lcd

    def partial_element(self, f: FracElement, coord_index: int) -> FracElement:
        return reduce(self.field, *self.diff(f, coord_index))

    @staticmethod
    def _diff_poly(p: PolyElement, terms) -> PolyElement:
        out = p.ring.zero
        for i, factor in terms:
            dp = p.diff(i)
            if dp:
                out += dp if factor is None else dp * factor
        return out

    # -- constructors -------------------------------------------------

    def scalar(self, value) -> "ScalarField":
        """Lift a rational constant, field element or sympy expression into
        this context."""
        if isinstance(value, ScalarField):
            if value.context != self:
                raise ContextMismatchError(value.context, self)
            return value
        return ScalarField(self, value)

    def zero(self) -> "ScalarField":
        return self.scalar(0)

    def one(self) -> "ScalarField":
        return self.scalar(1)

    def coordinate(self, index: int) -> "ScalarField":
        return ScalarField(self, self.variable(self.coord_names[index]))

    def generator_field(self, index: int) -> "ScalarField":
        return ScalarField(self, self.variable(self.generators[index].name))


@lru_cache(maxsize=256)
def _field(gens: tuple) -> FracField:
    # fractions of integer polynomials: the same reduced fractions as over
    # QQ, with faster coefficient arithmetic
    return FracField(gens, ZZ)


def field_of(symbols) -> FracField:
    """QQ(symbols), with the symbols in sympy's order."""
    return _field(_sort_gens(symbols))


def to_element(field: FracField, value) -> FracElement:
    """value (a field element, int, Fraction or rational sympy expression)
    as a reduced element of field."""
    if isinstance(value, FracElement):
        return value if value.field is field else value.set_field(field)
    ring = field.ring
    if isinstance(value, int):
        return field.raw_new(ring(value), ring.one)
    if isinstance(value, Fraction):
        return reduce(field, ring(value.numerator), ring(value.denominator))
    expr = value if isinstance(value, sp.Basic) else sp.sympify(value)
    if expr.is_Rational:
        return reduce(field, ring(expr.p), ring(expr.q))
    symbols = set()
    if not _collect_symbols(expr, symbols) or not symbols <= set(field.symbols):
        raise NotRationalError(
            f"{sp.sstr(expr)} is not a rational function of {', '.join(map(str, field.symbols))}"
        )
    num, den = _fraction(expr, ring, dict(zip(ring.symbols, ring.gens)))
    if not den:
        raise DivisionByZeroFieldError(f"{sp.sstr(expr)} has an identically zero denominator")
    return reduce(field, num, den)


def reduce(field: FracField, num: PolyElement, den: PolyElement) -> FracElement:
    """num/den as a reduced field element (den not zero)."""
    if not num:
        return field.zero
    if not den.is_ground:
        return field.raw_new(*num.cancel(den))
    # a constant denominator d: divide by the gcd of d and the numerator's
    # content, which needs no gcd of polynomials
    d = den.LC
    g = math.gcd(d, *num.values())
    if d < 0:
        g = -g
    return field.raw_new(num.quo_ground(g), den.ring.ground_new(d // g))


def fraction_sum(field: FracField, pairs: Iterable[Pair], divisor: int = 1) -> FracElement:
    """The sum of numerator/denominator pairs, taken over the lcm of their
    denominators, divided by an integer divisor and reduced once."""
    ring = field.ring
    one = ring.one
    num, den = ring.zero, one
    for n, d in pairs:
        if not n:
            continue
        if d == den:
            num += n
        elif den == one:
            num, den = num * d + n, d
        elif d == one:
            num += n * den
        else:
            _, cd, cden = d.cofactors(den)  # d = g*cd, den = g*cden
            num, den = num * cd + n * cden, den * cd
    return reduce(field, num, den if divisor == 1 else den * divisor)


def combine(a: FracElement, b: FracElement, sign: int = 1) -> FracElement:
    """a + sign * b, summed over the lcm of the denominators and reduced
    once."""
    if not b:
        return a
    n = b.numer if sign == 1 else -b.numer
    if not a:
        return b if sign == 1 else b.field.raw_new(n, b.denom)
    return fraction_sum(a.field, ((a.numer, a.denom), (n, b.denom)))


def times(a: FracElement, c: FracElement) -> FracElement:
    """a * c, reduced once."""
    if not a or not c:
        return a.field.zero
    return reduce(a.field, a.numer * c.numer, a.denom * c.denom)


def power(f: FracElement, n: int) -> FracElement:
    """f**n for an integer n, with 0**0 = 1 as in sympy."""
    if n == 0:
        return f.field.one
    if n > 0:
        return f**n
    if not f:
        raise DivisionByZeroFieldError("negative power of the zero field")
    # the inverse's denominator takes the sign of the old numerator
    return reduce(f.field, f.denom ** (-n), f.numer ** (-n))


def element_key(f: FracElement) -> tuple:
    """A hashable key of a field element.  Not hash(f): sympy caches a
    polynomial's hash on first use and some of its in-place steps (square)
    change the polynomial afterwards."""
    return frozenset(f.numer.items()), frozenset(f.denom.items())


def product(c: int, *factors: FracElement) -> Pair:
    """c times the product of field elements, as an unreduced pair."""
    num, den = factors[0].numer, factors[0].denom
    one = den.ring.one
    for f in factors[1:]:
        num = num * f.numer
        if f.denom != one:
            den = f.denom if den == one else den * f.denom
    return (num if c == 1 else num * c), den


CANON_MEMO_SIZE = 8192


def canon(expr) -> sp.Expr:
    """The canonical form of a rational function: one reduced fraction,
    equal to sp.cancel(sp.together(expr))."""
    return _canon(expr if isinstance(expr, sp.Basic) else sp.sympify(expr))


@lru_cache(maxsize=CANON_MEMO_SIZE)
def _canon(expr: sp.Basic) -> sp.Expr:
    if expr.is_Number:
        return expr
    symbols = set()
    if not _collect_symbols(expr, symbols):
        return sp.cancel(sp.together(expr))
    ring = _ring(tuple(_sort_gens(symbols)))
    num, den = _fraction(expr, ring, dict(zip(ring.symbols, ring.gens)))
    p, q = num.cancel(den)
    return p.as_expr() / q.as_expr()


def _collect_symbols(expr: sp.Basic, acc: set) -> bool:
    """Add the symbols of expr to acc; False unless expr is built from
    symbols and rationals by +, * and integer powers only."""
    if expr.is_Symbol:
        acc.add(expr)
        return True
    if expr.is_Rational:
        return True
    if expr.is_Add or expr.is_Mul:
        return all(_collect_symbols(a, acc) for a in expr.args)
    if expr.is_Pow:
        return expr.exp.is_Integer and _collect_symbols(expr.base, acc)
    return False


@lru_cache(maxsize=256)
def _ring(gens: tuple) -> PolyRing:
    return PolyRing(gens, QQ)


def _fraction(expr: sp.Expr, ring: PolyRing, gen_of: dict):
    """(numerator, denominator) of a rational expression in ring; sums are
    taken over the lcm of the denominators, products and powers as they
    stand, and the gcd is left to the caller."""
    if expr.is_Symbol:
        return gen_of[expr], ring.one
    if expr.is_Rational:
        return ring(expr.p), ring(expr.q)
    if expr.is_Add:
        num, den = ring.zero, ring.one
        for arg in expr.args:
            n, d = _fraction(arg, ring, gen_of)
            if d == den:
                num += n
            else:
                _, cd, cden = d.cofactors(den)  # d = g*cd, den = g*cden
                num, den = num * cd + n * cden, den * cd
        return num, den
    if expr.is_Mul:
        num, den = ring.one, ring.one
        for arg in expr.args:
            n, d = _fraction(arg, ring, gen_of)
            num, den = num * n, den * d
        return num, den
    n, d = _fraction(expr.base, ring, gen_of)
    k = int(expr.exp)
    return (n**k, d**k) if k >= 0 else (d ** (-k), n ** (-k))


def pdiff(context: ScalarContext, expr: sp.Expr, coord_index: int) -> sp.Expr:
    """Raw partial derivative of a sympy expression by a chart coordinate,
    by the context's derivation (generator rule included)."""
    free = expr.free_symbols
    d = sp.Integer(0)
    for sym, factor in context.derivation[coord_index]:
        if sym in free:
            d = d + (sp.diff(expr, sym) if factor == 1 else factor * sp.diff(expr, sym))
    return d


def _as_rational(v) -> sp.Rational:
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    r = sp.nsimplify(v, rational=True) if isinstance(v, float) else sp.Rational(v)
    return r


class ScalarField:
    """Immutable exact rational function over a ScalarContext: one reduced
    element of the context's field, with a cached sympy view (expr)."""

    __slots__ = ("context", "value", "_expr")

    def __init__(self, context: ScalarContext, value):
        self.context = context
        self.value = context.element(value)
        self._expr = None

    @property
    def expr(self) -> sp.Expr:
        """The sympy expression of the reduced fraction."""
        if self._expr is None:
            self._expr = self.value.as_expr()
        return self._expr

    def _sympy_(self):
        return self.expr

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.value

    def is_constant(self) -> bool:
        return self.value.numer.is_ground and self.value.denom.is_ground

    def constant_value(self) -> sp.Rational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.expr}")
        return sp.Rational(self.expr)

    def has_generators(self) -> bool:
        gens = set(self.context.gen_symbols)
        return bool(self.expr.free_symbols & gens)

    def as_fraction(self):
        """(numerator, denominator) as expanded sympy polynomials."""
        return self.value.numer.as_expr(), self.value.denom.as_expr()

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """other's field element, or None for a type that is not a scalar."""
        if isinstance(other, ScalarField):
            if other.context != self.context:
                raise ContextMismatchError(self.context, other.context)
            return other.value
        if isinstance(other, (int, Fraction, sp.Rational, FracElement)):
            return self.context.element(other)
        return None

    def _new(self, value) -> "ScalarField":
        out = ScalarField.__new__(ScalarField)
        out.context, out.value, out._expr = self.context, value, None
        return out

    def __add__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else self._new(self.value + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else self._new(self.value - v)

    def __rsub__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else self._new(v - self.value)

    def __mul__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else self._new(self.value * v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        if not v:
            raise DivisionByZeroFieldError("division by the zero scalar field")
        return self._new(self.value / v)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        return NotImplemented if v is None else self._new(v) / self

    def __neg__(self):
        return self._new(-self.value)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        return self._new(power(self.value, n))

    def __eq__(self, other):
        if isinstance(other, ScalarField) and other.context != self.context:
            return False
        v = self._coerce(other)
        return NotImplemented if v is None else self.value == v

    def __hash__(self):
        return hash((self.context, element_key(self.value)))

    # -- calculus -----------------------------------------------------

    def partial(self, coord_index: int) -> "ScalarField":
        """Partial derivative by chart coordinate, with the generator rule."""
        return self._new(self.context.partial_element(self.value, coord_index))

    # -- evaluation ---------------------------------------------------

    def eval(self, point: Sequence) -> sp.Rational:
        """Exact value at a rational point; generator-free fields only."""
        ctx = self.context
        if len(point) != ctx.dim:
            raise ValueError(f"point has {len(point)} entries, chart has {ctx.dim}")
        if self.has_generators():
            raise GeneratorEvalError(
                "exact eval undefined for generator-bearing fields; use numeric_eval"
            )
        subs = {s: _as_rational(v) for s, v in zip(ctx.coord_symbols, point)}
        num, den = self.as_fraction()
        den_val = den.subs(subs)
        if den_val == 0:
            raise PoleError(tuple(point))
        return sp.Rational(num.subs(subs)) / sp.Rational(den_val)

    def numeric_eval(self, point: Sequence) -> float:
        """Float value at a point; generators evaluate as exp(rate*coord)."""
        ctx = self.context
        if len(point) != ctx.dim:
            raise ValueError(f"point has {len(point)} entries, chart has {ctx.dim}")
        pt = [_as_rational(v) for v in point]
        subs = {s: v for s, v in zip(ctx.coord_symbols, pt)}
        for gen, gsym in zip(ctx.generators, ctx.gen_symbols):
            subs[gsym] = sp.exp(gen.rate * pt[gen.coord_index])
        num, den = self.as_fraction()
        den_val = float(den.subs(subs))
        if den_val == 0.0 or math.isnan(den_val):
            raise PoleError(tuple(point))
        return float(num.subs(subs)) / den_val

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"ScalarField({sp.sstr(self.expr)})"

    def __str__(self):
        return sp.sstr(self.expr)

    def serialize(self) -> str:
        """Deterministic exact string; constants render as p or p/q."""
        if self.is_constant():
            return str(sp.Rational(self.expr))
        return sp.sstr(self.expr, order="lex")
