"""Exact scalar arithmetic for chart computations.

A ScalarField is a rational function of the chart coordinates, optionally
involving declared exponential generators.  A generator E with base
coordinate c and rational rate q stands for exp(q*c): algebraically it is
an independent transcendental over the polynomial ring, so gcd reduction
and zero testing stay decidable, and the only place its analytic meaning
enters is the derivative rule dE/dc = q*E and numeric evaluation.

All coefficients are exact rationals.  The canonical form of an expression
is the one sympy's cancel(together(.)) gives: one reduced fraction with
expanded numerator and denominator, integer coefficients without a common
factor, and a denominator whose leading coefficient (lex order on the
generators in sympy's own order, polyutils._sort_gens) is positive.
canon() is the only canonicaliser.  An expression built from symbols and
rationals by +, * and integer powers is converted once into a numerator
and denominator in a polynomial ring over QQ (sums over the lcm of the
denominators) and reduced by one gcd, which skips sympy's Expr-level
together/factor_terms passes; anything else (an algebraic constant such as
sqrt(6) in classify's frame code) goes to cancel(together(.)) itself.  A
per-process memo of CANON_MEMO_SIZE entries maps each input to its
canonical form.  No floats on the symbolic path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyRing

from .errors import (
    ContextMismatchError,
    DivisionByZeroFieldError,
    GeneratorEvalError,
    PoleError,
)

RationalLike = Union[int, Fraction, sp.Rational]


@dataclass(frozen=True)
class GeneratorDecl:
    """An exponential generator exp(rate * coord)."""

    name: str
    coord_index: int
    rate: sp.Rational

    def __post_init__(self):
        object.__setattr__(self, "rate", sp.Rational(self.rate))


class ScalarContext:
    """Shared coordinate/generator universe for a family of scalar fields."""

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

    # -- constructors -------------------------------------------------

    def scalar(self, value) -> "ScalarField":
        """Lift a rational constant or raw sympy expression into this context."""
        if isinstance(value, ScalarField):
            if value.context != self:
                raise ContextMismatchError(value.context, self)
            return value
        if isinstance(value, Fraction):
            value = sp.Rational(value.numerator, value.denominator)
        return ScalarField(self, sp.sympify(value))

    def zero(self) -> "ScalarField":
        return self.scalar(0)

    def one(self) -> "ScalarField":
        return self.scalar(1)

    def coordinate(self, index: int) -> "ScalarField":
        return ScalarField(self, self.coord_symbols[index])

    def generator_field(self, index: int) -> "ScalarField":
        return ScalarField(self, self.gen_symbols[index])


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
        return ring.ground_new(QQ(expr.p, expr.q)), ring.one
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
    """Raw partial derivative by a chart coordinate, with the generator rule
    dE/dc = rate * E for every generator E based on that coordinate."""
    d = sp.diff(expr, context.coord_symbols[coord_index])
    for gen, gsym in zip(context.generators, context.gen_symbols):
        if gen.coord_index == coord_index and gsym in expr.free_symbols:
            d = d + gen.rate * gsym * sp.diff(expr, gsym)
    return d


def _as_rational(v) -> sp.Rational:
    if isinstance(v, Fraction):
        return sp.Rational(v.numerator, v.denominator)
    r = sp.nsimplify(v, rational=True) if isinstance(v, float) else sp.Rational(v)
    return r


class ScalarField:
    """Immutable exact rational function over a ScalarContext."""

    __slots__ = ("context", "expr", "_hash")

    def __init__(self, context: ScalarContext, expr: sp.Expr):
        self.context = context
        self.expr = canon(expr)
        self._hash = None

    # -- basic predicates ---------------------------------------------

    def is_zero(self) -> bool:
        return self.expr == 0

    def is_constant(self) -> bool:
        return not self.expr.free_symbols

    def constant_value(self) -> sp.Rational:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self.expr}")
        return sp.Rational(self.expr)

    def has_generators(self) -> bool:
        gens = set(self.context.gen_symbols)
        return bool(self.expr.free_symbols & gens)

    def as_fraction(self):
        """(numerator, denominator) as expanded sympy polynomials."""
        num, den = sp.fraction(self.expr)
        return sp.expand(num), sp.expand(den)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "ScalarField":
        if isinstance(other, ScalarField):
            if other.context != self.context:
                raise ContextMismatchError(self.context, other.context)
            return other
        return self.context.scalar(other)

    def __add__(self, other):
        other = self._coerce(other)
        return ScalarField(self.context, self.expr + other.expr)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return ScalarField(self.context, self.expr - other.expr)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return ScalarField(self.context, self.expr * other.expr)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DivisionByZeroFieldError("division by the zero scalar field")
        return ScalarField(self.context, self.expr / other.expr)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __neg__(self):
        return ScalarField(self.context, -self.expr)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("exponent must be an int")
        if n < 0:
            if self.is_zero():
                raise DivisionByZeroFieldError("negative power of the zero field")
            return ScalarField(self.context, self.expr ** n)
        return ScalarField(self.context, self.expr ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, sp.Rational)):
            other = self.context.scalar(other)
        if not isinstance(other, ScalarField):
            return NotImplemented
        if other.context != self.context:
            return False
        return canon(self.expr - other.expr) == 0

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.context, self.expr))
        return self._hash

    # -- calculus -----------------------------------------------------

    def partial(self, coord_index: int) -> "ScalarField":
        """Partial derivative by chart coordinate, with the generator rule."""
        return ScalarField(self.context, pdiff(self.context, self.expr, coord_index))

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
