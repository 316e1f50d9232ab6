"""Exact arithmetic in a tower of quadratic extensions of a chart's field.

A QuadraticTower over a ScalarContext with field K is K(t1)...(tk): level
j adjoins tj with tj**2 = a_j, where a_j is an element of a lower level.
An element of level j is a pair p + q*tj over the levels below (q not
zero; an element whose q vanishes lives one level down), and level 0 holds
one element of K.  The tower is the ring K[t1, ..., tk] modulo
tj**2 = a_j: it has zero divisors when some a_j is a square below, so an
inverse, taken by the conjugate, raises ZeroDivisorError when the norm
p**2 - a_j q**2 vanishes.  An element is zero exactly when every
coefficient is, so a value computed with true inverses only and found zero
is zero for either sign of every root.

The chart derivation extends by d(tj) = (d a_j / (2 a_j)) tj, which keeps
the tower closed under partial derivatives (generator rule included, from
ScalarContext.partial_element).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Tuple

from sympy.polys.fields import FracElement

from .errors import ZeroDivisorError
from .scalars import ScalarContext, reduce


class QuadraticTower:
    """K(t1)...(tk) over one context's field, grown by adjoin()."""

    def __init__(self, context: ScalarContext):
        self.context = context
        self.field = context.field
        self.radicands: List["Quad"] = []
        self._dlog: Dict[Tuple[int, int], "Quad"] = {}
        self.zero = self.base(self.field.zero)

    def base(self, f) -> "Quad":
        """A field element, int or Fraction as a level-0 element."""
        if not isinstance(f, FracElement):
            f = self.context.element(f)
        return Quad(self, 0, f, None)

    def sqrt(self, a: "Quad") -> "Quad":
        """The square root of a: the positive rational root of a positive
        rational square (the root sympy's sqrt gives), otherwise a new
        level."""
        if a.level == 0 and a.p.numer.is_ground and a.p.denom.is_ground:
            n, d = int(a.p.numer.LC), int(a.p.denom.LC)
            rn, rd = math.isqrt(max(n, 0)), math.isqrt(d)
            if n > 0 and rn * rn == n and rd * rd == d:
                return self.base(Fraction(rn, rd))
        return self.adjoin(a)

    def adjoin(self, a: "Quad") -> "Quad":
        """A new top level with t**2 = a; returns t."""
        self.radicands.append(a)
        k = len(self.radicands)
        return Quad(self, k, self.zero, self.base(1))

    def dlog(self, k: int, coord_index: int) -> "Quad":
        """d a_k / (2 a_k): the coefficient of d(t_k) = dlog * t_k."""
        key = (k, coord_index)
        if key not in self._dlog:
            a = self.radicands[k - 1]
            self._dlog[key] = a.diff(coord_index) * (2 * a).inverse()
        return self._dlog[key]


def _make(tower: QuadraticTower, k: int, p: "Quad", q: "Quad") -> "Quad":
    return p if q.is_zero() else Quad(tower, k, p, q)


class Quad:
    """An element p + q*t_level of a QuadraticTower; at level 0, p is a
    field element and q is None."""

    __slots__ = ("tower", "level", "p", "q", "_inv")

    def __init__(self, tower: QuadraticTower, level: int, p, q):
        self.tower, self.level, self.p, self.q = tower, level, p, q
        self._inv = None

    def is_zero(self) -> bool:
        return self.level == 0 and not self.p

    def _coerce(self, other) -> "Quad":
        return other if isinstance(other, Quad) else self.tower.base(other)

    def __add__(self, other) -> "Quad":
        y = self._coerce(other)
        x, t = self, self.tower
        if x.level == 0 and y.level == 0:
            return Quad(t, 0, x.p + y.p, None)
        if x.level < y.level:
            x, y = y, x
        k = x.level
        if y.level < k:
            return Quad(t, k, x.p + y, x.q)
        return _make(t, k, x.p + y.p, x.q + y.q)

    __radd__ = __add__

    def __neg__(self) -> "Quad":
        if self.level == 0:
            return Quad(self.tower, 0, -self.p, None)
        return Quad(self.tower, self.level, -self.p, -self.q)

    def __sub__(self, other) -> "Quad":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Quad":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Quad":
        y = self._coerce(other)
        x, t = self, self.tower
        if x.is_zero() or y.is_zero():
            return t.zero
        if x.level == 0 and y.level == 0:
            return Quad(t, 0, x.p * y.p, None)
        if x.level < y.level:
            x, y = y, x
        k = x.level
        if y.level < k:
            return _make(t, k, x.p * y, x.q * y)
        a = t.radicands[k - 1]
        return _make(t, k, x.p * y.p + a * (x.q * y.q), x.p * y.q + x.q * y.p)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Quad":
        if not isinstance(n, int) or n < 0:
            raise TypeError("exponent must be a non-negative int")
        out = self.tower.base(1)
        for _ in range(n):
            out = out * self
        return out

    def inverse(self) -> "Quad":
        """1/self by the conjugate, computed once; ZeroDivisorError on a
        zero divisor."""
        if self._inv is None:
            self._inv = self._inverse()
        return self._inv

    def _inverse(self) -> "Quad":
        t = self.tower
        if self.level == 0:
            if not self.p:
                raise ZeroDivisorError("inverse of zero in a quadratic tower")
            return Quad(t, 0, reduce(t.field, self.p.denom, self.p.numer), None)
        p, q = self.p, self.q
        norm = p * p - t.radicands[self.level - 1] * (q * q)
        if norm.is_zero():
            raise ZeroDivisorError("inverse of a zero divisor in a quadratic tower")
        n_inv = norm.inverse()
        return Quad(t, self.level, p * n_inv, -(q * n_inv))

    def __truediv__(self, other) -> "Quad":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "Quad":
        return self._coerce(other) * self.inverse()

    def diff(self, coord_index: int) -> "Quad":
        """Partial derivative by a chart coordinate."""
        t = self.tower
        if self.level == 0:
            return Quad(t, 0, t.context.partial_element(self.p, coord_index), None)
        p, q, k = self.p, self.q, self.level
        dq = q.diff(coord_index) + q * t.dlog(k, coord_index)
        return _make(t, k, p.diff(coord_index), dq)

    def __repr__(self):
        if self.level == 0:
            return f"Quad({self.p})"
        return f"({self.p!r} + {self.q!r}*t{self.level})"

