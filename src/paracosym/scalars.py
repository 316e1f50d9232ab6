"""Exact scalar arithmetic for chart computations.

A scalar is a rational function of the chart coordinates, optionally
involving declared exponential generators.  A generator E with base
coordinate c and nonzero rational rate q stands for exp(q*c):
algebraically it is an independent transcendental over the polynomial
ring, so gcd reduction and zero testing stay decidable, and the only place
its analytic meaning enters is the derivative rule dE/dc = q*E and
evaluation at points.  A rate of 0 is refused: exp(0*c) = 1 is no
transcendental.

Every ScalarContext owns one rational function field QQ(coordinates,
generators): a cached field.FracField of integer polynomials (the same
fractions as over QQ, with cheaper coefficient arithmetic) whose
generators are in sympy's order (field.sort_names).  Every scalar, and
every tensor component, is one element of that field (field.Frac).  An
element is always a reduced fraction: integer numerator and denominator
without a common factor, whose denominator has a positive leading
coefficient (lex order on the sorted generators).  That form is unique, so
equality and zero tests need no further work; it is the form sympy's
cancel(together(.)) gives, and str() prints what sympy's sstr prints for
it.  The arithmetic of elements, their one sum (fraction_sum) and the
one rule for meeting a value of another field (FracField.coerce, which
element applies to lift a number) live in field; geometry lifts the
numbers of a tensor's array once, where it enters.  The context keeps
what needs the generators' rates: the derivative rule
d/dc = d_c + sum(rate * E * d_E), written once as its derivation table
and applied by partial_element, and has_generators.  partial_element
returns the field's zero for a constant (numerator and denominator both
ground) before any derivation: most entries whose partials an analysis
takes are constants (1,900 of 2,095 for five_dim_alpha_z).

Values at a rational point are exact too (PointValues): there every
generator exp(r*c) is a power E**k of E = e^(1/N) for one integer N, so a
value is an element of QQ(E).  E is transcendental (Hermite-Lindemann), so
a value is zero exactly when its numerator polynomial in E is, and the
sign of a nonzero value comes from integer fixed-point enclosures of each
term, refined until their sum excludes 0.  The sign of p + q*sqrt(a) over
such values follows from the signs of p, q and p**2 - a*q**2
(quadratic_sign).  A point where some |k| is above MAX_GENERATOR_POWER is
refused.  No floats on any path.

Field elements are the only scalar representation here: a value enters as
an element of the context's field or a rational number, and this module
never imports sympy.  The one sympy view of an element is Frac.as_expr (field), which
classify and the tests read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Sequence, Tuple

from .errors import DefinitionError, PoleError
from .field import Frac, Poly, field_of_names, reduce, sort_names

# the largest |k| of a generator E**k at a point (PointValues): a sign
# there raises enclosures of e^(1/N) to powers of that size
MAX_GENERATOR_POWER = 10000


class _Generator(NamedTuple):
    name: str
    coord_index: int
    rate: Fraction


class GeneratorDecl(_Generator):
    """An exponential generator exp(rate * coord); rate is taken as a
    Fraction whatever rational number it is given as."""

    __slots__ = ()

    def __new__(cls, name: str, coord_index: int, rate) -> "GeneratorDecl":
        return super().__new__(cls, name, coord_index, Fraction(rate))


class ScalarContext:
    """Shared coordinate/generator universe for the scalars of a chart,
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
            if not gen.rate:
                # exp(0*c) = 1 is no transcendental: as an independent
                # symbol it would make E - 1 a nonzero element
                raise ValueError(f"generator {gen.name!r}: rate 0 makes it the constant 1")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator names: {names}")
        self.coord_names = coord_names
        self.generators = tuple(generators)
        self.field = field_of_names(sort_names(coord_names + tuple(names)))
        # d/dc = sum over (symbol, factor) of factor * d/d(symbol): the
        # coordinate itself with factor 1, and every generator E based on c
        # with factor rate * E; on integer polynomials, scaled by the lcm L
        # of the rates' denominators: (ring index, L * factor) per term
        ring = self.field.ring
        index = self.field.symbols.index
        self._poly_derivation = []
        for c, name in enumerate(coord_names):
            based = [g for g in self.generators if g.coord_index == c]
            lcd = math.lcm(*(g.rate.denominator for g in based))
            terms = [(index(name), None if lcd == 1 else ring(lcd))]
            for g in based:
                k = index(g.name)
                terms.append((k, ring.gens[k] * int(lcd * g.rate)))
            self._poly_derivation.append((tuple(terms), lcd))

    @property
    def dim(self) -> int:
        return len(self.coord_names)

    def __repr__(self):
        return f"ScalarContext({self.coord_names}, generators={self.generators})"

    # -- field elements -----------------------------------------------

    def element(self, value) -> Frac:
        """value, an element of this context's field or a rational number,
        as an element of the field (FracField.coerce)."""
        return self.field.coerce(value)

    def has_generators(self, f: Frac) -> bool:
        """f, an element of this context's field, involves a generator."""
        gens = [self.field.symbols.index(g.name) for g in self.generators]
        return any(m[i] for p in (f.numer, f.denom) for m in p for i in gens)

    def variable(self, name: str) -> Frac:
        """The field generator of a coordinate or generator name."""
        return self.field.gens[self.field.symbols.index(name)]

    def coordinate(self, index: int) -> Frac:
        """The field generator of coordinate number index."""
        return self.variable(self.coord_names[index])

    def partial_element(self, f: Frac, coord_index: int) -> Frac:
        """d f / d(coordinate), generator rule included, reduced from
        (n' d - n d') / d^2; the field's zero for a constant f, with no
        derivation."""
        if f.is_constant():
            return self.field.zero
        n, d = f.numer, f.denom
        terms, lcd = self._poly_derivation[coord_index]
        dn = self._diff_poly(n, terms)  # lcd * n'
        dd = None if d.is_ground else self._diff_poly(d, terms)  # lcd * d'
        if not dd:
            return reduce(self.field, dn, d * lcd)
        return reduce(self.field, dn * d - n * dd, d * d * lcd)

    @staticmethod
    def _diff_poly(p: Poly, terms) -> Poly:
        out = p.ring.zero
        for i, factor in terms:
            dp = p.diff(i)
            if dp:
                out += dp if factor is None else dp * factor
        return out


# --------------------------------------------------------------------
# exact values at a rational point


class PointValues:
    """Values of a context's field elements at a rational point, as
    elements of QQ(E) with E = e^(1/N) (field, N): a generator
    exp(rate * c) is E**k there, with k = rate * c * N an integer."""

    field = field_of_names(("E",))

    def __init__(self, context: ScalarContext, point: Sequence):
        if len(point) != context.dim:
            raise ValueError(f"point has {len(point)} entries, chart has {context.dim}")
        self.point = tuple(Fraction(p) for p in point)
        logs = [g.rate * self.point[g.coord_index] for g in context.generators]
        self.N = math.lcm(*(r.denominator for r in logs))
        powers = [int(r * self.N) for r in logs]
        top = max(powers, key=abs, default=0)
        if abs(top) > MAX_GENERATOR_POWER:
            raise DefinitionError(
                f"a generator is E**{top} with E = e^(1/{self.N}) at point "
                f"({', '.join(map(str, self.point))}), above the maximum power {MAX_GENERATOR_POWER}"
            )
        # per field generator: (coordinate value, None) or (None, power of E)
        at = dict(zip(context.coord_names, ((p, None) for p in self.point)))
        at.update((g.name, (None, k)) for g, k in zip(context.generators, powers))
        self._at = [at[name] for name in context.field.symbols]

    def _laurent(self, p: Poly) -> dict:
        """p at the point: {power of E: rational coefficient}."""
        out = {}
        for m, c in p.items():
            v, k = Fraction(c), 0
            for e, (x, g) in zip(m, self._at):
                if e:
                    if g is None:
                        v *= x**e
                    else:
                        k += g * e
            if v:
                out[k] = out.get(k, 0) + v
        return {k: v for k, v in out.items() if v}

    def value(self, f: Frac) -> Frac:
        """f at the point; PoleError when its denominator vanishes there."""
        num, den = self._laurent(f.numer), self._laurent(f.denom)
        if not den:
            raise PoleError(self.point)
        shift = min(list(num) + list(den))
        scale = math.lcm(*(v.denominator for v in (*num.values(), *den.values())))
        ring = self.field.ring

        def poly(terms):
            return ring.from_dict({(k - shift,): int(v * scale) for k, v in terms.items()})

        return reduce(self.field, poly(num), poly(den))

    def is_unit(self, f: Frac) -> bool:
        """f is defined and nonzero at the point."""
        return bool(self._laurent(f.numer)) and bool(self._laurent(f.denom))

    def sign(self, v: Frac) -> int:
        """The sign of a value (an element of self.field): -1, 0 or 1."""
        return _sign_at(v.numer, self.N) * _sign_at(v.denom, self.N)

    def quadratic_sign(self, p: Frac, q: Frac, a: Frac) -> int:
        """The sign of p + q*sqrt(a) for values p, q and a > 0: the sign of
        p or q when the other is 0 or of the same sign, otherwise
        sign(p) * sign(p**2 - a*q**2) (Basu, Pollack, Roy, Algorithms in
        Real Algebraic Geometry)."""
        sign_p, sign_q = self.sign(p), self.sign(q)
        if sign_p == sign_q or not sign_q:
            return sign_p
        if not sign_p:
            return sign_q
        return sign_p * self.sign(p * p - a * q * q)


@lru_cache(maxsize=256)
def _exp_bounds(N: int, bits: int) -> Tuple[int, int]:
    """Integers lo < 2**bits * e^(1/N) < hi: the Taylor sum of e^x, x = 1/N,
    to the first degree m whose next term is below 2**-bits, and that sum
    plus twice the next term, which bounds the remainder for x <= 1."""
    x = Fraction(1, N)
    term = s = Fraction(1)
    m = 0
    while term * x / (m + 1) * 2**bits >= 1:
        m += 1
        term = term * x / m
        s += term
    tail = 2 * term * x / (m + 1)
    return math.floor(s * 2**bits), math.ceil((s + tail) * 2**bits)


def _fixed_power(x: int, e: int, bits: int, up: bool) -> int:
    """2**bits * (x / 2**bits)**e for x >= 0, by squaring, each product
    rounded down, or up if up: a bound on the power of any number that x
    bounds the same way."""
    out = 1 << bits
    while e:
        if e & 1:
            out = -(-out * x >> bits) if up else out * x >> bits
        x = -(-x * x >> bits) if up else x * x >> bits
        e >>= 1
    return out


def _sign_at(p: Poly, N: int) -> int:
    """The sign of a polynomial in one generator at E = e^(1/N); it is
    nonzero unless p is, so doubling the fixed-point precision of the
    enclosure of each term ends."""
    if p.is_ground:
        c = p.LC
        return (c > 0) - (c < 0)
    terms = [(m[0], c) for m, c in p.items()]
    bits = 64
    while True:
        lo, hi = _exp_bounds(N, bits)
        low = {e: _fixed_power(lo, e, bits, False) for e, _ in terms}
        high = {e: _fixed_power(hi, e, bits, True) for e, _ in terms}
        if sum(c * (low[e] if c > 0 else high[e]) for e, c in terms) > 0:
            return 1
        if sum(c * (high[e] if c > 0 else low[e]) for e, c in terms) < 0:
            return -1
        bits *= 2
