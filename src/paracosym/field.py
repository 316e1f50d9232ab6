"""The rational function field of a chart, on sparse integer polynomials.

A Poly is a dict from exponent tuples to nonzero ints over a PolyRing of
named generators, ordered lex by generator position; it is never changed
after it is built.  A Frac is an element of the FracField of a ring: a
numerator and a denominator Poly.  Every Frac the engine keeps is reduced
(reduce): no common factor, integer content included, and a denominator
whose leading coefficient is positive.  That form is unique, so equality
and zero tests need no further work; and a Frac is a square exactly when
its numerator and denominator are, which Poly.sqrt decides.

A Frac is the engine's one scalar type, and this module owns its
arithmetic.  There is one sum, fraction_sum: numerator/denominator pairs
(a product of two elements is one, unreduced) added over the lcm of their
denominators, the gcd cofactors giving each pair's multiplier (Henrici's
rational addition, Knuth TAOCP Vol. 2, 4.5.1), and reduced once.  Frac's
+ and - take it with two pairs, and geometry.contract with every product
of an output entry.  There is one rule for meeting another value,
FracField.coerce: an int or a Fraction is lifted, an element of a field
of the same symbols kept (field_of_names is a bounded cache), and one of
another field raises ContextMismatchError; == is then False.  geometry
applies it where an array enters and once per contract operand.  The one
lift between fields is Frac.set_field, into a field whose generators
include ours.  A division by zero or a negative power of zero raises
DivisionByZeroFieldError.

The generators are kept in sympy's order (sort_names, after
polyutils._sort_gens: x, x1, x2, x10, y, z, t, a, E) and the gcd is the
heuristic gcd of Char, Geddes and Gonnet (1989), ported from sympy's
heuristicgcd.heugcd, so every reduced fraction is the one sympy's
FracField over ZZ gives; as_expr() is its sympy view, built on first use
(the only place this module imports sympy).  Poly.cofactors is the one gcd
that reduce (through cancel) and fraction_sum (for the lcm) call, and an
analysis asks for the same gcd many times (five_dim_alpha_z: 129 gcds of
multi-term operands, 11 distinct).  So each ring's gcd_memo keeps those
gcds, keyed on each operand's set of terms, and is emptied when it holds
GCD_MEMO_SIZE of them; the Polys it hands out are shared, which is safe
because no Poly is changed after it is built.

to_str prints a reduced fraction exactly as sympy's StrPrinter prints that
view: sstr(f.as_expr()) and, with lex=True, sstr(f.as_expr(), order="lex"),
which serialize gives the JSON report.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from operator import sub
from typing import Iterable, Optional, Tuple

from .errors import ContextMismatchError, DivisionByZeroFieldError

HEU_GCD_MAX = 6
# the most gcds a ring's memo holds before it is emptied (Poly.cofactors):
# five_dim_alpha_z in a dense linear chart computes 2,745 gcds with this
# bound against 2,423 with none, and peaks about 18 MB lower
GCD_MEMO_SIZE = 1024

# polyutils._gens_order and _max_order: the rank of a generator's name
# without its trailing digits
_GENS_ORDER = dict(zip("abcdefghijklmno", range(301, 316)))
_GENS_ORDER.update(zip("pqrstuvw", range(216, 224)))
_GENS_ORDER.update(zip("xyz", range(124, 127)))
_RE_GEN = re.compile(r"^(.*?)(\d*)$", re.MULTILINE)


class HeuristicGCDFailed(ArithmeticError):
    """The heuristic gcd found no gcd in HEU_GCD_MAX evaluation points."""


def sort_names(names) -> Tuple[str, ...]:
    """Generator names in sympy's order (polyutils._sort_gens)."""

    def key(name):
        base, index = _RE_GEN.match(name).groups()
        return _GENS_ORDER.get(base, 1000), base, int(index) if index else 0

    return tuple(sorted(names, key=key))


# --------------------------------------------------------------------
# polynomials


@lru_cache(maxsize=None)
def _monomial_mul(n: int):
    body = "".join(f"a[{i}] + b[{i}], " for i in range(n))
    return eval(f"lambda a, b: ({body})")  # one tuple display: the fast path


def _monomial_div(a: tuple, b: tuple) -> Optional[tuple]:
    d = tuple(map(sub, a, b))
    return d if min(d, default=0) >= 0 else None


class PolyRing:
    """ZZ[symbols]; use ring_of() for the cached instance."""

    def __init__(self, symbols: Tuple[str, ...]):
        self.symbols = symbols
        self.ngens = n = len(symbols)
        self.zero_monom = (0,) * n
        self.monomial_mul = _monomial_mul(n)
        self.gcd_memo = {}  # Poly.cofactors of multi-term operands
        self.zero = _poly(self, {})
        self.one = _poly(self, {self.zero_monom: 1})
        self.gens = tuple(
            _poly(self, {tuple(int(i == j) for j in range(n)): 1}) for i in range(n)
        )

    def __call__(self, c: int) -> "Poly":
        return _poly(self, {self.zero_monom: c} if c else {})

    def from_dict(self, terms: dict) -> "Poly":
        """The polynomial of {exponent tuple: nonzero int}."""
        return _poly(self, terms)

    @property
    def tail(self) -> "PolyRing":
        """The ring without its first generator."""
        return ring_of(self.symbols[1:])

    def __repr__(self):
        return f"PolyRing({self.symbols})"


@lru_cache(maxsize=256)
def ring_of(symbols: Tuple[str, ...]) -> PolyRing:
    return PolyRing(tuple(symbols))


def _poly(ring: PolyRing, terms) -> "Poly":
    p = Poly(terms)
    p.ring = ring
    return p


class Poly(dict):
    """A polynomial with int coefficients: {exponent tuple: coefficient}."""

    __slots__ = ("ring",)

    # -- predicates and leading terms ---------------------------------

    @property
    def is_ground(self) -> bool:
        return not self or (len(self) == 1 and self.ring.zero_monom in self)

    @property
    def LC(self) -> int:
        """The leading coefficient in lex order (0 for the zero poly)."""
        return self[max(self)] if self else 0

    def __eq__(self, other):
        if isinstance(other, int):
            return dict.__eq__(self, {self.ring.zero_monom: other} if other else {})
        return dict.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = None

    # -- arithmetic ---------------------------------------------------

    def _other(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return self.ring(other)
        return None

    def __neg__(self) -> "Poly":
        return _poly(self.ring, {m: -c for m, c in self.items()})

    def __add__(self, other) -> "Poly":
        q = self._other(other)
        if q is None:
            return NotImplemented
        if not q:
            return self
        if not self:
            return q
        out = dict(self)
        get = out.get
        for m, c in q.items():
            v = get(m, 0) + c
            if v:
                out[m] = v
            else:
                del out[m]
        return _poly(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        q = self._other(other)
        if q is None:
            return NotImplemented
        if not q:
            return self
        out = dict(self)
        get = out.get
        for m, c in q.items():
            v = get(m, 0) - c
            if v:
                out[m] = v
            else:
                del out[m]
        return _poly(self.ring, out)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, int):
            return self.mul_ground(other)
        if not isinstance(other, Poly):
            return NotImplemented
        ring = self.ring
        if not self or not other:
            return ring.zero
        mul = ring.monomial_mul
        if len(other) == 1:
            ((m2, c2),) = other.items()
            return _poly(ring, {mul(m, m2): c * c2 for m, c in self.items()})
        if len(self) == 1:
            ((m1, c1),) = self.items()
            return _poly(ring, {mul(m1, m): c1 * c for m, c in other.items()})
        out = {}
        get = out.get
        items = list(other.items())
        for m1, c1 in self.items():
            for m2, c2 in items:
                m = mul(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        for m in [m for m, c in out.items() if not c]:
            del out[m]
        return _poly(ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        ring = self.ring
        if n == 0:
            return ring.one
        if len(self) == 1:
            ((m, c),) = self.items()
            return _poly(ring, {tuple(e * n for e in m): c**n})
        out, base = ring.one, self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def mul_ground(self, c: int) -> "Poly":
        if not c:
            return self.ring.zero
        return self if c == 1 else _poly(self.ring, {m: v * c for m, v in self.items()})

    def quo_ground(self, c: int) -> "Poly":
        """Division of every coefficient by c, which divides them all."""
        return self if c == 1 else _poly(self.ring, {m: v // c for m, v in self.items()})

    def diff(self, i: int) -> "Poly":
        """d/d(generator i)."""
        out = {}
        for m, c in self.items():
            e = m[i]
            if e:
                out[m[:i] + (e - 1,) + m[i + 1 :]] = c * e
        return _poly(self.ring, out)

    # -- division, content, gcd ---------------------------------------

    def content(self) -> int:
        return math.gcd(*self.values())

    def primitive(self) -> Tuple[int, "Poly"]:
        c = self.content()
        return c, self.quo_ground(c) if c else self

    def max_norm(self) -> int:
        return max(map(abs, self.values()))

    def cofactors(self, g: "Poly") -> Tuple["Poly", "Poly", "Poly"]:
        """(h, f/h, g/h) with h = gcd(f, g), as rings.PolyElement.cofactors
        computes them over ZZ; for two multi-term operands, remembered in
        the ring's gcd_memo."""
        f, ring = self, self.ring
        if not f and not g:
            return ring.zero, ring.zero, ring.zero
        if not f:
            return (g, ring.zero, ring.one) if g.LC >= 0 else (-g, ring.zero, -ring.one)
        if not g:
            return (f, ring.one, ring.zero) if f.LC >= 0 else (-f, -ring.one, ring.zero)
        if len(f) == 1:
            return _gcd_monom(f, g)
        if len(g) == 1:
            h, cfg, cff = _gcd_monom(g, f)
            return h, cff, cfg
        # the same two polynomials in any term order are one key
        key = frozenset(f.items()), frozenset(g.items())
        memo = ring.gcd_memo
        out = memo.get(key)
        if out is None:
            J, f, g = _deflate(f, g)
            h, cff, cfg = heugcd(f, g)
            if len(memo) >= GCD_MEMO_SIZE:
                memo.clear()
            out = memo[key] = _inflate(h, J), _inflate(cff, J), _inflate(cfg, J)
        return out

    def cancel(self, g: "Poly") -> Tuple["Poly", "Poly"]:
        """f/g in lowest terms, with the denominator's LC positive."""
        if not self:
            return self, self.ring.one
        _, p, q = self.cofactors(g)
        return (-p, -q) if q.LC < 0 else (p, q)

    def sqrt(self) -> Optional["Poly"]:
        """The root with a positive LC of a square of an integer polynomial,
        else None.  Schoolbook: each next term cancels the leading term of
        the rest, and no term of a root has more than half self's degree."""
        if not self:
            return self
        lm, lc = max(self), self.LC
        r, top = math.isqrt(max(lc, 0)), max(map(sum, self)) // 2
        if r * r != lc or any(e % 2 for e in lm):
            return None
        half = tuple(e // 2 for e in lm)
        root = _poly(self.ring, {half: r})
        rest = self - root * root
        while rest:
            m = max(rest)
            d = _monomial_div(m, half)
            if d is None or rest[m] % (2 * r) or sum(d) > top:
                return None
            t = _poly(self.ring, {d: rest[m] // (2 * r)})
            rest, root = rest - (root * 2 + t) * t, root + t
        return root

    # -- views --------------------------------------------------------

    def as_expr(self):
        """The sympy expression of the polynomial (sympy is imported here)."""
        return _expr_of(self, _sympy_symbols(self.ring.symbols))

    def __repr__(self):
        return f"Poly({dict.__repr__(self)})"


def _div_exact(f: Poly, g: Poly) -> Optional[Poly]:
    """f / g when g divides f over ZZ, otherwise None."""
    ring = f.ring
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if not f:
        return ring.zero
    if len(g) == 1:
        ((mg, cg),) = g.items()
        out = {}
        for m, c in f.items():
            md = _monomial_div(m, mg)
            if md is None or c % cg:
                return None
            out[md] = c // cg
        return _poly(ring, out)
    mul = ring.monomial_mul
    lm_g = max(g)
    lc_g = g[lm_g]
    rest = [(m, c) for m, c in g.items() if m != lm_g]
    p = dict(f)
    get = p.get
    q = {}
    while p:
        lm = max(p)
        c = p.pop(lm)
        md = _monomial_div(lm, lm_g)
        if md is None or c % lc_g:
            return None
        cq = c // lc_g
        q[md] = cq
        for m, cm in rest:
            mm = mul(md, m)
            v = get(mm, 0) - cq * cm
            if v:
                p[mm] = v
            else:
                del p[mm]
    return _poly(ring, q)


def _gcd_monom(f: Poly, g: Poly):
    """gcd and cofactors of a one-term f and any g."""
    ring = f.ring
    ((mf, cf),) = f.items()
    mgcd, cgcd = mf, cf
    for mg, cg in g.items():
        mgcd = tuple(map(min, mgcd, mg))
        cgcd = math.gcd(cgcd, cg)
    h = _poly(ring, {mgcd: cgcd})
    cff = _poly(ring, {_monomial_div(mf, mgcd): cf // cgcd})
    cfg = _poly(ring, {_monomial_div(mg, mgcd): cg // cgcd for mg, cg in g.items()})
    return h, cff, cfg


def _deflate(f: Poly, g: Poly):
    """Divide each generator's exponents by their common gcd in f and g."""
    J = [0] * f.ring.ngens
    for p in (f, g):
        for m in p:
            J = [math.gcd(j, e) for j, e in zip(J, m)]
    J = tuple(j or 1 for j in J)
    if all(j == 1 for j in J):
        return J, f, g
    shrink = lambda p: _poly(p.ring, {tuple(e // j for e, j in zip(m, J)): c for m, c in p.items()})
    return J, shrink(f), shrink(g)


def _inflate(p: Poly, J: tuple) -> Poly:
    if all(j == 1 for j in J):
        return p
    return _poly(p.ring, {tuple(e * j for e, j in zip(m, J)): c for m, c in p.items()})


def _evaluate_first(f: Poly, a: int):
    """f with its first generator set to a: an int in one generator, a
    Poly over the ring's tail otherwise."""
    ring = f.ring
    if ring.ngens == 1:
        return sum(c * a ** m[0] for m, c in f.items())
    out = {}
    get = out.get
    for m, c in f.items():
        rest = m[1:]
        v = get(rest, 0) + c * a ** m[0]
        if v:
            out[rest] = v
        else:
            out.pop(rest, None)
    return _poly(ring.tail, out)


def heugcd(f: Poly, g: Poly) -> Tuple[Poly, Poly, Poly]:
    """Heuristic gcd in ZZ[X] (heuristicgcd.heugcd): (h, f/h, g/h), or
    HeuristicGCDFailed after HEU_GCD_MAX evaluation points."""
    ring = f.ring
    fc, gc = f.content(), g.content()
    gcd = math.gcd(fc, gc)
    f, g = f.quo_ground(gcd), g.quo_ground(gcd)
    f_norm, g_norm = f.max_norm(), g.max_norm()
    B = 2 * min(f_norm, g_norm) + 29
    x = max(min(B, 99 * math.isqrt(B)), 2 * min(f_norm // abs(f.LC), g_norm // abs(g.LC)) + 4)
    for _ in range(HEU_GCD_MAX):
        ff, gg = _evaluate_first(f, x), _evaluate_first(g, x)
        if ff and gg:
            if ring.ngens == 1:
                h = math.gcd(ff, gg)
                cff, cfg = ff // h, gg // h
            else:
                h, cff, cfg = heugcd(ff, gg)
            h = _gcd_interpolate(h, x, ring).primitive()[1]
            cff_ = _div_exact(f, h)
            if cff_ is not None:
                cfg_ = _div_exact(g, h)
                if cfg_ is not None:
                    return h.mul_ground(gcd), cff_, cfg_
            cff = _gcd_interpolate(cff, x, ring)
            h = _div_exact(f, cff)
            if h is not None:
                cfg_ = _div_exact(g, h)
                if cfg_ is not None:
                    return h.mul_ground(gcd), cff, cfg_
            cfg = _gcd_interpolate(cfg, x, ring)
            h = _div_exact(g, cfg)
            if h is not None:
                cff_ = _div_exact(f, h)
                if cff_ is not None:
                    return h.mul_ground(gcd), cff_, cfg
        x = 73794 * x * math.isqrt(math.isqrt(x)) // 27011
    raise HeuristicGCDFailed("no luck")


def _gcd_interpolate(h, x: int, ring: PolyRing) -> Poly:
    """The polynomial whose value at the first generator = x is h, with
    coefficients in the symmetric range mod x."""
    out, i = {}, 0
    if ring.ngens == 1:
        while h:
            c = h % x
            if c > x // 2:
                c -= x
            h = (h - c) // x
            if c:
                out[(i,)] = c
            i += 1
    else:
        while h:
            g = {}
            for m, c in h.items():
                c %= x
                if c > x // 2:
                    c -= x
                if c:
                    g[m] = c
            h = _poly(h.ring, {m: (c - g.get(m, 0)) // x for m, c in h.items() if c != g.get(m, 0)})
            for m, c in g.items():
                out[(i,) + m] = c
            i += 1
    p = _poly(ring, out)
    return -p if p.LC < 0 else p


# --------------------------------------------------------------------
# the fraction field


class FracField:
    """QQ(symbols) as fractions over ZZ[symbols]; use field_of_names() for
    the cached instance."""

    def __init__(self, symbols: Tuple[str, ...]):
        self.symbols = symbols
        self.ring = ring = ring_of(symbols)
        self.zero = Frac(self, ring.zero, ring.one)
        self.one = Frac(self, ring.one, ring.one)
        self.gens = tuple(Frac(self, g, ring.one) for g in ring.gens)

    def coerce(self, x) -> "Frac":
        """x as an element of this field: an element of it is itself, an int
        or Fraction is lifted, an element of another field raises
        ContextMismatchError and anything else TypeError."""
        if isinstance(x, Frac):
            if x.field is self or x.field.symbols == self.symbols:
                return x
            raise ContextMismatchError(x.field, self)
        if isinstance(x, int):
            return Frac(self, self.ring(x), self.ring.one)
        if isinstance(x, Fraction):
            return Frac(self, self.ring(x.numerator), self.ring(x.denominator))
        raise TypeError(f"{x!r} is not an element of {self}")

    def __repr__(self):
        return f"FracField({self.symbols})"


@lru_cache(maxsize=256)
def field_of_names(symbols: Tuple[str, ...]) -> FracField:
    return FracField(tuple(symbols))


def reduce(field: FracField, num: Poly, den: Poly) -> "Frac":
    """num/den as a reduced field element (den not zero)."""
    if not num:
        return field.zero
    if not den.is_ground:
        return Frac(field, *num.cancel(den))
    # a constant denominator d: divide by the gcd of d and the numerator's
    # content, which needs no gcd of polynomials
    d = den.LC
    g = math.gcd(d, *num.values())
    if d < 0:
        g = -g
    return Frac(field, num.quo_ground(g), field.ring(d // g))


Pair = Tuple[Poly, Poly]  # (numerator, denominator), not reduced


def fraction_sum(field: FracField, pairs: Iterable[Pair]) -> "Frac":
    """The sum of numerator/denominator pairs, taken over the lcm of their
    denominators and reduced once: the one sum of the field."""
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
    return reduce(field, num, den)


def product(a: "Frac", b: "Frac") -> Pair:
    """a * b as an unreduced pair."""
    one = a.field.ring.one
    den = b.denom if a.denom == one else a.denom if b.denom == one else a.denom * b.denom
    return a.numer * b.numer, den


class Frac:
    """numer/denom in a FracField, reduced."""

    __slots__ = ("field", "numer", "denom")

    def __init__(self, field: FracField, numer: Poly, denom: Poly):
        self.field, self.numer, self.denom = field, numer, denom

    def __bool__(self):
        return bool(self.numer)

    def is_zero(self) -> bool:
        return not self.numer

    def is_constant(self) -> bool:
        return self.numer.is_ground and self.denom.is_ground

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.numer.LC, self.denom.LC)

    def _other(self, other) -> Optional["Frac"]:
        """other as an element of our field (FracField.coerce), or None for
        a type that is not a scalar."""
        if isinstance(other, Frac) and other.field is self.field:
            return other
        if isinstance(other, (Frac, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __eq__(self, other):
        if isinstance(other, Frac) and other.field.symbols != self.field.symbols:
            return False
        g = self._other(other)
        if g is None:
            return NotImplemented
        return dict.__eq__(self.numer, g.numer) and dict.__eq__(self.denom, g.denom)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        # a ground element equals its int or Fraction, so it hashes as one
        if self.numer.is_ground and self.denom.is_ground:
            return hash(Fraction(self.numer.LC, self.denom.LC))
        return hash((frozenset(self.numer.items()), frozenset(self.denom.items())))

    def __neg__(self) -> "Frac":
        return Frac(self.field, -self.numer, self.denom)

    def _plus(self, numer: Poly, denom: Poly) -> "Frac":
        """self + numer/denom, a reduced fraction of our field."""
        if not numer:
            return self
        if not self.numer:
            return Frac(self.field, numer, denom)
        return fraction_sum(self.field, ((self.numer, self.denom), (numer, denom)))

    def __add__(self, other) -> "Frac":
        g = self._other(other)
        return NotImplemented if g is None else self._plus(g.numer, g.denom)

    __radd__ = __add__

    def __sub__(self, other) -> "Frac":
        g = self._other(other)
        if g is None:
            return NotImplemented
        return self._plus(-g.numer, g.denom) if g.numer else self

    def __rsub__(self, other) -> "Frac":
        g = self._other(other)
        return NotImplemented if g is None else g._plus(-self.numer, self.denom)

    def __mul__(self, other) -> "Frac":
        g = self._other(other)
        if g is None:
            return NotImplemented
        if not self.numer or not g.numer:
            return self.field.zero
        return reduce(self.field, self.numer * g.numer, self.denom * g.denom)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Frac":
        g = self._other(other)
        if g is None:
            return NotImplemented
        if not g.numer:
            raise DivisionByZeroFieldError("division by the zero scalar field")
        if not self.numer:
            return self
        return reduce(self.field, self.numer * g.denom, self.denom * g.numer)

    def __rtruediv__(self, other) -> "Frac":
        g = self._other(other)
        return NotImplemented if g is None else g / self

    def __pow__(self, n: int) -> "Frac":
        """f**n for an integer n, with 0**0 = 1."""
        if n >= 0:
            return Frac(self.field, self.numer**n, self.denom**n)
        if not self.numer:
            raise DivisionByZeroFieldError("negative power of the zero field")
        # the inverse's denominator takes the sign of the old numerator
        return reduce(self.field, self.denom ** (-n), self.numer ** (-n))

    def set_field(self, field: FracField) -> "Frac":
        """The same fraction in a field whose generators include ours; for
        any other field, ContextMismatchError."""
        if field is self.field:
            return self
        if not set(self.field.symbols) <= set(field.symbols):
            raise ContextMismatchError(self.field, field)
        pos = [field.symbols.index(s) for s in self.field.symbols]
        n = field.ring.ngens

        def move(p: Poly) -> Poly:
            out = {}
            for m, c in p.items():
                e = [0] * n
                for i, k in zip(pos, m):
                    e[i] = k
                out[tuple(e)] = c
            return _poly(field.ring, out)

        return Frac(field, move(self.numer), move(self.denom))

    def as_expr(self):
        """The sympy expression numer/denom (sympy is imported here)."""
        syms = _sympy_symbols(self.field.symbols)
        return _expr_of(self.numer, syms) / _expr_of(self.denom, syms)

    def __str__(self):
        return to_str(self)

    __repr__ = __str__


# --------------------------------------------------------------------
# the sympy view


@lru_cache(maxsize=256)
def _sympy_symbols(names: Tuple[str, ...]) -> tuple:
    import sympy as sp

    return tuple(sp.Symbol(n) for n in names)


def _expr_of(p: Poly, syms: tuple):
    """The Add of Muls that rings.PolyElement.as_expr builds."""
    import sympy as sp

    return sp.Add(
        *(
            sp.Mul(sp.Integer(c), *(sp.Pow(s, e) for s, e in zip(syms, m) if e))
            for m, c in p.items()
        )
    )


# --------------------------------------------------------------------
# the exact printer
#
# sympy's StrPrinter on the view numer/denom: a constant denominator is
# distributed over the numerator's terms (x/3 + y/3), any other stays a
# quotient; factors print in name order, terms in descending lex order on
# the names, and only the default order turns a two-term "c - q*x" with
# c > 0 (Add.as_ordered_terms' special case) into "c - q*x" rather than
# "-q*x + c".


def _factors(names, m) -> list:
    """The printed symbol powers of a monomial, in name order."""
    return [n if e == 1 else f"{n}**{e}" for n, e in sorted(zip(names, m)) if e]


def _mul_str(c: Fraction, num: list, den: list) -> str:
    """A Mul: coefficient c, numerator and denominator factor strings."""
    sign = "-" if c < 0 else ""
    p, q = abs(c.numerator), c.denominator
    a = ([str(p)] if p != 1 else []) + num or ["1"]
    b = ([str(q)] if q != 1 else []) + den
    out = sign + "*".join(a)
    if not b:
        return out
    return out + ("/" + b[0] if len(b) == 1 else "/(" + "*".join(b) + ")")


def _term_str(names, m, c: Fraction) -> str:
    num = _factors(names, m)
    return _mul_str(c, num, []) if num else str(c)


def _add_str(names, terms, lex: bool) -> str:
    """An Add of (monomial, Fraction) terms."""
    if not lex and len(terms) == 2:
        (m1, c1), (m2, c2) = sorted(terms, key=lambda t: any(t[0]))
        if not any(m1) and c1 > 0 and c2 < 0 and sum(1 for e in m2 if e) == 1:
            return _join([_term_str(names, m1, c1), _term_str(names, m2, c2)])
    order = sorted(range(len(names)), key=lambda i: names[i])
    terms = sorted(terms, key=lambda t: tuple(-t[0][i] for i in order))
    return _join([_term_str(names, m, c) for m, c in terms])


def _join(strs: list) -> str:
    out = strs[0]
    for t in strs[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _poly_str(names, p: Poly, lex: bool, scale: int = 1) -> str:
    """p / scale, printed as sympy prints its evaluated form."""
    terms = [(m, Fraction(c, scale)) for m, c in p.items()]
    if len(terms) == 1:
        return _term_str(names, *terms[0])
    return _add_str(names, terms, lex)


def serialize(f: Frac) -> str:
    """The exact string of the JSON report: sstr(f.as_expr(), order="lex"),
    so a constant prints as p or p/q."""
    return to_str(f, lex=True)


def to_str(f: Frac, lex: bool = False) -> str:
    """sstr(f.as_expr()), or sstr(f.as_expr(), order="lex") when lex."""
    names = f.field.symbols
    num, den = f.numer, f.denom
    if not num:
        return "0"
    if den.is_ground:
        return _poly_str(names, num, lex, den.LC)
    if len(den) == 1:
        ((md, k),) = den.items()
        den_factors = _factors(names, md)
        if len(num) > 1:
            return _mul_str(Fraction(1, k), ["(" + _poly_str(names, num, lex) + ")"], den_factors)
        ((mn, c),) = num.items()
        if c == k and not any(mn) and len(den_factors) == 1 and "**" in den_factors[0]:
            base, e = den_factors[0].split("**")
            return f"{base}**(-{e})"  # a lone Pow(x, -e), e > 1
        return _mul_str(Fraction(c, k), _factors(names, mn), den_factors)
    den_str = "(" + _poly_str(names, den, lex) + ")"
    if len(num) > 1:
        return _mul_str(Fraction(1), ["(" + _poly_str(names, num, lex) + ")"], [den_str])
    ((mn, c),) = num.items()
    return _mul_str(Fraction(c), _factors(names, mn), [den_str])
