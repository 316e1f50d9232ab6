"""Coordinate-chart tensor calculus.

Conventions used throughout the package:

- TensorField of valence (r, s) stores components with the r contravariant
  indices first, then the s covariant ones.
- Curvature: R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
  stored as a (1,3) field R[l, i, j, k] = (R(d_i, d_j) d_k)^l.
- Ricci tensor S_jk = sum_i R[i, i, j, k]; Ricci operator Q = g^{-1} S;
  scalar curvature r = tr Q.  This sign choice is the one for which the
  three-dimensional decomposition of R through Q holds identically, which
  the test suite pins down empirically.
- Covariant derivative appends its direction index as a trailing covariant
  slot: (nabla T)[..., c].

Components are elements of the chart's rational function field (see
scalars): reduced fractions in the coordinates and any declared
exponential generators.  Every tensor, connection and contraction result
stores them in one Components value: the dimension n, the rank and a flat
row-major tuple of the n**rank entries, so the entry at (i_1, ..., i_k)
sits at offset ((i_1 n + i_2) n + ...) n + i_k.  TensorField.array (and
ConnectionCoefficients.array) is the sympy view of the same entries, built
once on first use, for printing, evaluation at points and classify's frame
code; the kernels here never read it.

Algebraic contractions go through one primitive, contract(spec,
*operands), an exact einsum.  The spec names the slots of each operand
with one letter per index, e.g. "imab,m->iab" for (R(xi, d_a) d_b)^i; a
letter that is not in the output is summed.  The operands are contracted
in pairs in the order written, so the caller stages the cheapest
contraction first (R with xi before phi and g).  Each stage sums every
output entry over the lcm of its denominators and reduces it once
(scalars.fraction_sum); the differential operators below (the connection,
covariant and Lie derivatives, d, wedge, Riemann) build each output entry
the same way from numerator/denominator pairs.  Callers combine the
results by entrywise field arithmetic into one residual per check.
"""

from __future__ import annotations

import itertools
import string
from collections import defaultdict
from fractions import Fraction
from math import factorial
from typing import Dict, Optional, Sequence, Tuple

import sympy as sp
from sympy.polys.fields import FracElement

from .errors import (
    DegenerateMetricError,
    DivisionByZeroFieldError,
    PoleError,
    SingularMetricError,
    UndecidedSignError,
    ValenceError,
)
from .scalars import (
    ScalarContext,
    ScalarField,
    combine,
    element_key,
    field_of,
    fraction_sum,
    product,
    times,
    to_element,
)


class Chart:
    """An odd-dimensional coordinate chart with a rational base point."""

    def __init__(self, context: ScalarContext, base_point: Sequence):
        if len(base_point) != context.dim:
            raise ValueError("base point dimension mismatch")
        self.context = context
        self.base_point = tuple(Fraction(p) for p in base_point)

    @property
    def dim(self) -> int:
        return self.context.dim

    def __eq__(self, other):
        return (
            isinstance(other, Chart)
            and self.context == other.context
            and self.base_point == other.base_point
        )

    def __hash__(self):
        return hash((self.context, self.base_point))

    def point_subs(self, point: Optional[Sequence] = None) -> dict:
        pt = self.base_point if point is None else [Fraction(p) for p in point]
        subs = {
            s: sp.Rational(Fraction(p).numerator, Fraction(p).denominator)
            for s, p in zip(self.context.coord_symbols, pt)
        }
        return subs


def _entry(x):
    """A component as stored: a field element, or a sympy expression."""
    if isinstance(x, FracElement):
        return x
    if isinstance(x, ScalarField):
        return x.value
    return sp.sympify(x)


class Components:
    """Components of a rank-k array over range(n)**k: a flat row-major tuple
    of n**k field elements (or sympy expressions).  Immutable; +, - and
    unary - act entrywise on two arrays of the same n and rank, * and / by
    a scalar."""

    __slots__ = ("n", "rank", "flat")

    def __init__(self, n: int, rank: int, flat):
        flat = tuple(flat)
        if len(flat) != n**rank:
            raise ValenceError(f"{len(flat)} components for rank {rank} in dimension {n}")
        self.n = n
        self.rank = rank
        self.flat = flat

    @staticmethod
    def of(x) -> "Components":
        """x as Components: a Components, a sympy array or matrix, a nested
        list of equal-length rows, or a scalar (rank 0, no dimension)."""
        if isinstance(x, Components):
            return x
        if hasattr(x, "tolist"):
            x = x.tolist()
        if not isinstance(x, (list, tuple)):
            return Components(0, 0, (_entry(x),))
        rows = [Components.of(row) for row in x]
        rank = rows[0].rank if rows else 0
        if any(row.rank != rank or (rank and row.n != len(x)) for row in rows):
            raise ValenceError("component array is ragged or not square")
        return Components(len(x), rank + 1, [e for row in rows for e in row.flat])

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) != self.rank:
            raise IndexError(f"index {idx} for an array of rank {self.rank}")
        n = self.n
        offset = 0
        for i in idx:
            if not 0 <= i < n:
                raise IndexError(f"index {idx} out of range in dimension {n}")
            offset = offset * n + i
        return self.flat[offset]

    def __iter__(self):
        return iter(self.flat)

    def applyfunc(self, f) -> "Components":
        return Components(self.n, self.rank, map(f, self.flat))

    def _zip(self, other) -> zip:
        if not isinstance(other, Components) or (other.n, other.rank) != (self.n, self.rank):
            shape = (other.n, other.rank) if isinstance(other, Components) else type(other)
            raise ValenceError(f"entrywise operation on (n, rank) {(self.n, self.rank)} and {shape}")
        return zip(self.flat, other.flat)

    def _in_field(self) -> bool:
        return bool(self.flat) and isinstance(self.flat[0], FracElement)

    def __add__(self, other) -> "Components":
        pairs = self._zip(other)
        if self._in_field():
            return Components(self.n, self.rank, [combine(a, b) for a, b in pairs])
        return Components(self.n, self.rank, [a + b for a, b in pairs])

    def __sub__(self, other) -> "Components":
        pairs = self._zip(other)
        if self._in_field():
            return Components(self.n, self.rank, [combine(a, b, -1) for a, b in pairs])
        return Components(self.n, self.rank, [a - b for a, b in pairs])

    def __neg__(self) -> "Components":
        return Components(self.n, self.rank, [-a for a in self.flat])

    def _times(self, c, invert: bool = False) -> "Components":
        """Every entry times c, or divided by c; c is a ScalarField, a field
        element or a number (or any sympy expression, for sympy entries)."""
        if isinstance(c, ScalarField):
            c = c.value
        if self._in_field():
            c = to_element(self.flat[0].field, c)
            if invert:
                if not c:
                    raise DivisionByZeroFieldError("division by the zero scalar field")
                c = c.field.raw_new(c.denom, c.numer)  # times() fixes the sign
            return Components(self.n, self.rank, [times(a, c) for a in self.flat])
        c = sp.sympify(c, strict=True)
        return Components(self.n, self.rank, [a / c if invert else a * c for a in self.flat])

    def __mul__(self, c) -> "Components":
        return self._times(c)

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Components":
        return self._times(c, invert=True)

    def __eq__(self, other):
        if hasattr(other, "tolist"):  # a sympy array or matrix compares by value
            other = Components.of(other)
            field = next((e.field for e in self.flat if isinstance(e, FracElement)), None)
            if field is not None and (other.n, other.rank) == (self.n, self.rank):
                return self.flat == tuple(to_element(field, e) for e in other.flat)
        if not isinstance(other, Components):
            return NotImplemented
        return (self.n, self.rank, self.flat) == (other.n, other.rank, other.flat)

    def __hash__(self):
        keys = (element_key(e) if isinstance(e, FracElement) else e for e in self.flat)
        return hash((self.n, self.rank, tuple(keys)))

    def __repr__(self):
        return f"Components({self.n}, {self.rank}, {self.flat!r})"


def _elements(context: ScalarContext, flat) -> tuple:
    """The entries as elements of the context's field."""
    field = context.field
    return tuple(
        e if isinstance(e, FracElement) and e.field is field else context.element(e) for e in flat
    )


def _expr_view(comps: Components) -> Components:
    return Components(comps.n, comps.rank, [e.as_expr() for e in comps.flat])


class TensorField:
    """Componentwise exact (r,s)-tensor field on a chart: comps holds the
    field elements, array their sympy view."""

    __slots__ = ("chart", "r", "s", "comps", "_array")

    def __init__(self, chart: Chart, r: int, s: int, array):
        self.chart = chart
        self.r = r
        self.s = s
        n = chart.dim
        arr = Components.of(array)
        if arr.rank != r + s or (arr.rank and arr.n != n):
            raise ValenceError(
                f"component array of rank {arr.rank} in dimension {arr.n} does not "
                f"match valence ({r},{s}) in dimension {n}"
            )
        self.comps = Components(n, r + s, _elements(chart.context, arr.flat))
        self._array = None

    @property
    def array(self) -> Components:
        """The components as sympy expressions (reduced fractions)."""
        if self._array is None:
            self._array = _expr_view(self.comps)
        return self._array

    def __getitem__(self, idx):
        if self.rank == 0:
            return self.array.flat[0]
        return self.array[idx]

    @property
    def rank(self) -> int:
        return self.r + self.s

    def indices(self):
        return itertools.product(range(self.chart.dim), repeat=self.rank)

    # -- algebra -------------------------------------------------------

    def _check_same_valence(self, other: "TensorField"):
        if self.chart != other.chart:
            raise ValenceError("tensors live on different charts")
        if (self.r, self.s) != (other.r, other.s):
            raise ValenceError(
                f"valence mismatch: ({self.r},{self.s}) vs ({other.r},{other.s})"
            )

    def __add__(self, other):
        self._check_same_valence(other)
        return TensorField(self.chart, self.r, self.s, self.comps + other.comps)

    def __sub__(self, other):
        self._check_same_valence(other)
        return TensorField(self.chart, self.r, self.s, self.comps - other.comps)

    def __neg__(self):
        return TensorField(self.chart, self.r, self.s, -self.comps)

    def scale(self, f) -> "TensorField":
        return TensorField(self.chart, self.r, self.s, self.comps * self.chart.context.element(f))

    def is_zero(self) -> bool:
        return not any(self.comps.flat)

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.chart != other.chart or (self.r, self.s) != (other.r, other.s):
            return False
        return self.comps == other.comps

    def __hash__(self):
        return hash((self.chart, self.r, self.s, self.comps))

    def first_nonzero(self) -> Optional[Tuple[Tuple[int, ...], sp.Expr]]:
        """Witness component for a failed identity, or None if zero."""
        for idx, e in zip(self.indices(), self.comps):
            if e:
                return idx, e.as_expr()
        return None

    # -- evaluation ----------------------------------------------------

    def eval_at(self, point: Optional[Sequence] = None):
        """Exact value at a rational point (generator-free only): Components,
        or one Rational for a scalar."""
        subs = self.chart.point_subs(point)
        gens = set(self.chart.context.gen_symbols)

        def value(e):
            num, den = e.numer.as_expr(), e.denom.as_expr()
            if (num.free_symbols | den.free_symbols) & gens:
                raise ValueError("exact evaluation of a generator-bearing tensor")
            d = den.subs(subs)
            if d == 0:
                raise PoleError(tuple(subs.values()))
            return sp.Rational(num.subs(subs)) / sp.Rational(d)

        if self.rank == 0:
            return value(self.comps.flat[0])
        return self.comps.applyfunc(value)


# --------------------------------------------------------------------
# the contraction primitive

Entries = Dict[Tuple[int, ...], FracElement]


def _parse_spec(spec: str, count: int) -> Tuple[list, str]:
    inputs, arrow, output = spec.partition("->")
    inputs = inputs.split(",")
    if not arrow or len(inputs) != count:
        raise ValenceError(f"contraction spec {spec!r} does not match {count} operands")
    seen = "".join(inputs)
    if not all(c in string.ascii_letters for c in seen + output):
        raise ValenceError(f"contraction spec {spec!r}: index labels must be letters")
    if len(set(output)) != len(output) or not set(output) <= set(seen):
        raise ValenceError(f"contraction spec {spec!r}: bad output labels {output!r}")
    return inputs, output


def _components(x, labels: str) -> Tuple[Optional[int], tuple]:
    """(dimension, row-major component tuple) of one operand; a scalar that
    is not a TensorField has no dimension."""
    if isinstance(x, TensorField):
        n, arr = x.chart.dim, x.comps
    else:
        arr = Components.of(x)
        n = arr.n if arr.rank else None
    if arr.rank != len(labels):
        raise ValenceError(f"operand of rank {arr.rank} labelled {labels!r}")
    return n, arr.flat


def _entries(flat: tuple, labels: str, n: int) -> Tuple[str, Entries]:
    """Nonzero entries keyed by the distinct labels; a label repeated within
    one operand takes its diagonal."""
    distinct = "".join(dict.fromkeys(labels))
    first = [labels.index(c) for c in labels]
    keep = [labels.index(c) for c in distinct]
    out: Entries = {}
    for idx, v in zip(itertools.product(range(n), repeat=len(labels)), flat):
        if v and all(idx[p] == idx[f] for p, f in enumerate(first)):
            out[tuple(idx[p] for p in keep)] = v
    return distinct, out


def _stage(la: str, ea: Entries, lb: str, eb: Entries, keep, field) -> Tuple[str, Entries]:
    """Multiply two labelled operands, sum the labels not in keep, and
    reduce every output entry once."""
    shared = [c for c in lb if c in la]
    extra = "".join(c for c in lb if c not in la)
    pa = [la.index(c) for c in shared]
    pb = [lb.index(c) for c in shared]
    pe = [lb.index(c) for c in extra]
    by_shared = defaultdict(list)
    for ib, vb in eb.items():
        by_shared[tuple(ib[p] for p in pb)].append((tuple(ib[p] for p in pe), vb))
    joint = la + extra
    kept = "".join(c for c in joint if c in keep)
    pos = [joint.index(c) for c in kept]
    terms = defaultdict(list)
    for ia, va in ea.items():
        for ie, vb in by_shared.get(tuple(ia[p] for p in pa), ()):
            full = ia + ie
            terms[tuple(full[p] for p in pos)].append((va, vb))
    out: Entries = {}
    one = field.one
    for key, pairs in terms.items():
        if len(pairs) == 1 and pairs[0][0] is one:  # the first operand as it stands
            value = pairs[0][1]
        else:
            value = fraction_sum(field, (product(1, a, b) for a, b in pairs))
        if value:
            out[key] = value
    return kept, out


def contract(spec: str, *operands):
    """Exact einsum over TensorFields or component arrays.

    The operands are contracted in pairs, left to right in the order given,
    skipping zero entries; every stage reduces each of its entries once.
    Returns Components of field elements indexed by the output labels, or,
    for an empty output, one ScalarField (one field element when no operand
    is a TensorField).  Operands that are all sympy arrays are contracted in
    the field of their symbols and give sympy expressions back.  A
    malformed spec, or an operand whose rank or dimension does not match
    its labels, raises ValenceError.
    """
    inputs, output = _parse_spec(spec, len(operands))
    parts = [_components(x, labels) for x, labels in zip(operands, inputs)]
    dims = {d for d, _ in parts if d is not None}
    if len(dims) > 1:
        raise ValenceError(f"operands of different dimensions {sorted(dims)}")
    n = dims.pop() if dims else 0
    context = next((x.chart.context for x in operands if isinstance(x, TensorField)), None)
    flats = [flat for _, flat in parts]
    field = context.field if context is not None else next(
        (e.field for flat in flats for e in flat if isinstance(e, FracElement)), None
    )
    plain = field is None
    if plain:
        field = field_of(set().union(*(e.free_symbols for flat in flats for e in flat)))
    flats = [[to_element(field, e) for e in flat] for flat in flats]
    labels, entries = "", {(): field.one}
    for k, (labels_k, flat) in enumerate(zip(inputs, flats)):
        keep = set(output).union(*inputs[k + 1 :])
        lb, eb = _entries(flat, labels_k, n)
        labels, entries = _stage(labels, entries, lb, eb, keep, field)
    if not output:
        value = entries.get((), field.zero)
        if plain:
            return value.as_expr()
        return ScalarField(context, value) if context is not None else value
    order = [output.index(c) for c in labels]
    zero = field.zero
    flat = [
        entries.get(tuple(idx[p] for p in order), zero)
        for idx in itertools.product(range(n), repeat=len(output))
    ]
    out = Components(n, len(output), flat)
    return _expr_view(out) if plain else out


def _letters(k: int, skip: str = "") -> str:
    return "".join(c for c in string.ascii_letters if c not in skip)[:k]


# --------------------------------------------------------------------
# pointwise linear algebra helpers


def tensor_product(a: TensorField, b: TensorField) -> TensorField:
    """Outer product; index order (a-upper, b-upper, a-lower, b-lower)."""
    if a.chart != b.chart:
        raise ValenceError("tensors live on different charts")
    la = _letters(a.rank)
    lb = _letters(b.rank, skip=la)
    out = la[: a.r] + lb[: b.r] + la[a.r :] + lb[b.r :]
    return TensorField(a.chart, a.r + b.r, a.s + b.s, contract(f"{la},{lb}->{out}", a, b))


def compose11(a: TensorField, b: TensorField) -> TensorField:
    """(a . b)^i_j = a^i_k b^k_j for (1,1)-tensors."""
    for t in (a, b):
        if (t.r, t.s) != (1, 1):
            raise ValenceError("compose11 needs (1,1)-tensors")
    return TensorField(a.chart, 1, 1, contract("ik,kj->ij", a, b))


def apply11(a: TensorField, v: TensorField) -> TensorField:
    """(a v)^i = a^i_k v^k."""
    if (a.r, a.s) != (1, 1) or (v.r, v.s) != (1, 0):
        raise ValenceError("apply11 needs a (1,1)-tensor and a vector")
    return TensorField(a.chart, 1, 0, contract("ik,k->i", a, v))


def trace11(t: TensorField) -> ScalarField:
    if (t.r, t.s) != (1, 1):
        raise ValenceError("trace11 needs a (1,1)-tensor")
    return contract("ii->", t)


def identity_tensor(chart: Chart) -> TensorField:
    n = chart.dim
    field = chart.context.field
    flat = [field.one if i == j else field.zero for i in range(n) for j in range(n)]
    return TensorField(chart, 1, 1, Components(n, 2, flat))


# --------------------------------------------------------------------
# metric machinery


def _det_and_adjugate(rows: list) -> Tuple[object, list]:
    """Determinant and adjugate (row-major) of a square matrix of
    polynomials, by Laplace expansion over column subsets: exact, with no
    division."""
    n = len(rows)

    def minors(kept_rows):
        # det of kept_rows[:k] x (columns in mask, ascending) for |mask| = k,
        # expanding along the last of those rows
        dets = {0: rows[0][0].ring.one}
        for k, row in enumerate(kept_rows, start=1):
            for mask in range(1 << n):
                if bin(mask).count("1") != k:
                    continue
                acc = row[0].ring.zero
                for j in range(n):
                    if mask >> j & 1 and row[j]:
                        sub = dets[mask ^ (1 << j)]
                        if sub:
                            pos = bin(mask & ((1 << j) - 1)).count("1")
                            term = row[j] * sub
                            acc = acc + term if (k - 1 + pos) % 2 == 0 else acc - term
                dets[mask] = acc
        return dets

    full = (1 << n) - 1
    adj = [None] * (n * n)
    for i in range(n):
        dets = minors(rows[:i] + rows[i + 1 :])
        for j in range(n):
            minor = dets[full ^ (1 << j)]
            adj[j * n + i] = minor if (i + j) % 2 == 0 else -minor
    det = sum((rows[0][j] * adj[j * n] for j in range(n)), rows[0][0].ring.zero)
    return det, adj


def metric_inverse(g: TensorField) -> TensorField:
    """g^{-1} = L adj(L g) / det(L g), with L the lcm of the denominators of
    g, so the determinant and adjugate are taken over polynomials."""
    n = g.chart.dim
    field = g.chart.context.field
    lcm = field.ring.one
    for e in g.comps.flat:
        lcm = lcm.lcm(e.denom)
    rows = [
        [e.numer * lcm.exquo(e.denom) for e in g.comps.flat[i * n : (i + 1) * n]]
        for i in range(n)
    ]
    det, adj = _det_and_adjugate(rows)
    if not det:
        raise SingularMetricError("metric determinant is identically zero")
    inv = [field.new(a * lcm, det) for a in adj]
    return TensorField(g.chart, 2, 0, Components(n, 2, inv))


def christoffel(g: TensorField) -> "ConnectionCoefficients":
    return ConnectionCoefficients.from_metric(g)


class ConnectionCoefficients:
    """Levi-Civita connection coefficients Gamma^k_ij on a chart, stored as
    Components of field elements with Gamma^k_ij at offset (k n + i) n + j;
    array is their sympy view."""

    def __init__(self, chart: Chart, gamma):
        self.chart = chart
        arr = Components.of(gamma)
        self.gamma = Components(arr.n, arr.rank, _elements(chart.context, arr.flat))
        self._array = None

    @property
    def array(self) -> Components:
        if self._array is None:
            self._array = _expr_view(self.gamma)
        return self._array

    @staticmethod
    def from_metric(g: TensorField) -> "ConnectionCoefficients":
        """Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij)."""
        chart = g.chart
        ctx = chart.context
        n = chart.dim
        G = g.comps.flat
        ginv = metric_inverse(g).comps.flat
        # dg[k][i * n + j] = d_k g_ij
        dg = [[ctx.partial_element(e, k) for e in G] for k in range(n)]
        gamma = [ctx.field.zero] * n**3
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    pairs = []
                    for l in range(n):
                        gkl = ginv[k * n + l]
                        if not gkl:
                            continue
                        for c, d in ((1, dg[i][j * n + l]), (1, dg[j][i * n + l]), (-1, dg[l][i * n + j])):
                            if d:
                                pairs.append(product(c, gkl, d))
                    val = fraction_sum(ctx.field, pairs, divisor=2)
                    gamma[(k * n + i) * n + j] = val
                    gamma[(k * n + j) * n + i] = val
        return ConnectionCoefficients(chart, Components(n, 3, gamma))

    def __getitem__(self, idx):
        return self.array[idx]


def _strides(n: int, rank: int) -> list:
    """Offset step of each slot of a row-major rank-`rank` array."""
    return [n ** (rank - 1 - p) for p in range(rank)]


def _times(f: FracElement, pair) -> tuple:
    """f times an unreduced numerator/denominator pair."""
    return f.numer * pair[0], f.denom * pair[1]


def covariant_derivative(t: TensorField, conn: ConnectionCoefficients) -> TensorField:
    """nabla T with the direction index appended as the last covariant slot."""
    chart = t.chart
    ctx = chart.context
    n = chart.dim
    r, s = t.r, t.s
    T, G = t.comps.flat, conn.gamma.flat
    if r + s == 0:
        return TensorField(chart, 0, 1, [ctx.partial_element(T[0], c) for c in range(n)])
    strides = _strides(n, r + s)
    out = []  # (nabla T)[idx, c] at offset off * n + c: appended in that order
    for off, idx in enumerate(t.indices()):
        for c in range(n):
            pairs = [ctx.diff(T[off], c)]
            for p, (i, step) in enumerate(zip(idx, strides)):
                base = off - i * step
                for m in range(n):
                    Tm = T[base + m * step]
                    if not Tm:
                        continue
                    if p < r:  # + Gamma^{i}_{c m} T[.. m ..]
                        gam, sign = G[(i * n + c) * n + m], 1
                    else:  # - Gamma^{m}_{c i} T[.. m ..]
                        gam, sign = G[(m * n + c) * n + i], -1
                    if gam:
                        pairs.append(product(sign, gam, Tm))
            out.append(fraction_sum(ctx.field, pairs))
    return TensorField(chart, r, s + 1, Components(n, r + s + 1, out))


def lie_derivative(v: TensorField, t: TensorField) -> TensorField:
    """Connection-free Lie derivative along the vector field v."""
    if (v.r, v.s) != (1, 0):
        raise ValenceError("lie_derivative direction must be a vector field")
    chart = t.chart
    ctx = chart.context
    n = chart.dim
    r, s = t.r, t.s
    V, T = v.comps.flat, t.comps.flat

    def along_v(f):  # v(f) as pairs
        return [_times(V[c], ctx.diff(f, c)) for c in range(n) if V[c]]

    if r + s == 0:
        return TensorField(chart, 0, 0, fraction_sum(ctx.field, along_v(T[0])))
    dv = [[ctx.partial_element(V[i], m) for m in range(n)] for i in range(n)]  # d_m v^i
    strides = _strides(n, r + s)
    out = []
    for off, idx in enumerate(t.indices()):
        pairs = along_v(T[off])
        for p, (i, step) in enumerate(zip(idx, strides)):
            base = off - i * step
            for m in range(n):
                Tm = T[base + m * step]
                if not Tm:
                    continue
                if p < r:  # - (d_m v^i) T[.. m ..]
                    d, sign = dv[i][m], -1
                else:  # + (d_i v^m) T[.. m ..]
                    d, sign = dv[m][i], 1
                if d:
                    pairs.append(product(sign, d, Tm))
        out.append(fraction_sum(ctx.field, pairs))
    return TensorField(chart, r, s, Components(n, r + s, out))


def bracket(v: TensorField, w: TensorField) -> TensorField:
    """[v, w] = L_v w."""
    return lie_derivative(v, w)


def is_antisymmetric(t: TensorField) -> bool:
    if t.r != 0:
        return False
    k = t.s
    if k <= 1:
        return True
    for idx, e in zip(t.indices(), t.comps):
        for a in range(k - 1):
            swapped = list(idx)
            swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
            if e != -t.comps[tuple(swapped)]:
                return False
    return True


def exterior_derivative(omega: TensorField) -> TensorField:
    """d of an antisymmetric (0,k) field, shuffle-normalized."""
    if omega.r != 0:
        raise ValenceError("exterior derivative needs a (0,k) field")
    if not is_antisymmetric(omega):
        raise ValenceError("exterior derivative input must be antisymmetric")
    chart = omega.chart
    ctx = chart.context
    n = chart.dim
    k = omega.s
    W = omega.comps.flat
    if k == 0:
        return TensorField(chart, 0, 1, [ctx.partial_element(W[0], c) for c in range(n)])
    dW = [[ctx.diff(e, c) for c in range(n)] for e in W]  # d_c of each entry
    strides = _strides(n, k)
    out = []
    for idx in itertools.product(range(n), repeat=k + 1):
        pairs = []
        for j in range(k + 1):
            rest = idx[:j] + idx[j + 1 :]
            num, den = dW[sum(i * st for i, st in zip(rest, strides))][idx[j]]
            pairs.append((-num if j % 2 else num, den))
        out.append(fraction_sum(ctx.field, pairs))
    return TensorField(chart, 0, k + 1, Components(n, k + 1, out))


def _permutation_sign(perm: Sequence[int]) -> int:
    """(-1) ** (number of inversions of perm)."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


def wedge(a: TensorField, b: TensorField) -> TensorField:
    """Wedge of antisymmetric forms with (dx^dy)(d_x, d_y) = 1 normalization."""
    if a.r != 0 or b.r != 0:
        raise ValenceError("wedge needs (0,k) fields")
    if not is_antisymmetric(a) or not is_antisymmetric(b):
        raise ValenceError("wedge inputs must be antisymmetric")
    chart = a.chart
    field = chart.context.field
    n = chart.dim
    k1, k2 = a.s, b.s
    if k1 == 0 or k2 == 0:
        return tensor_product(a, b)
    k = k1 + k2
    signed = [(_permutation_sign(perm), perm) for perm in itertools.permutations(range(k))]
    out = []
    for idx in itertools.product(range(n), repeat=k):
        if len(set(idx)) < k:
            out.append(field.zero)
            continue
        pairs = []
        for c, perm in signed:
            p = tuple(idx[perm[t]] for t in range(k))
            fa, fb = a.comps[p[:k1]], b.comps[p[k1:]]
            if fa and fb:
                pairs.append(product(c, fa, fb))
        out.append(fraction_sum(field, pairs, divisor=factorial(k1) * factorial(k2)))
    return TensorField(chart, 0, k, Components(n, k, out))


# --------------------------------------------------------------------
# curvature


def riemann(conn: ConnectionCoefficients) -> TensorField:
    """R[l, i, j, k] = component of R(d_i, d_j) d_k along d_l."""
    chart = conn.chart
    ctx = chart.context
    n = chart.dim
    G = conn.gamma.flat
    dG = {}  # (offset, coordinate) -> d Gamma, as a pair

    def d_gamma(off, c):
        if (off, c) not in dG:
            dG[off, c] = ctx.diff(G[off], c)
        return dG[off, c]

    out = [ctx.field.zero] * n**4
    for l in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    num, den = d_gamma((l * n + i) * n + k, j)
                    pairs = [d_gamma((l * n + j) * n + k, i), (-num, den)]
                    for m in range(n):
                        a, b = G[(l * n + i) * n + m], G[(m * n + j) * n + k]
                        if a and b:
                            pairs.append(product(1, a, b))
                        a, b = G[(l * n + j) * n + m], G[(m * n + i) * n + k]
                        if a and b:
                            pairs.append(product(-1, a, b))
                    val = fraction_sum(ctx.field, pairs)
                    out[((l * n + i) * n + j) * n + k] = val
                    out[((l * n + j) * n + i) * n + k] = -val
    return TensorField(chart, 1, 3, Components(n, 4, out))


def ricci_tensor(R: TensorField) -> TensorField:
    return TensorField(R.chart, 0, 2, contract("iijk->jk", R))


def ricci_operator(S: TensorField, g: TensorField) -> TensorField:
    return TensorField(g.chart, 1, 1, contract("ik,kj->ij", metric_inverse(g), S))


def scalar_curvature(S: TensorField, g: TensorField) -> ScalarField:
    return trace11(ricci_operator(S, g))


# --------------------------------------------------------------------
# signature


def signature_at(g: TensorField, point: Optional[Sequence] = None) -> Tuple[int, int]:
    """(positive, negative) inertia of g at a rational point.

    Exact symmetric congruence diagonalization over the rationals; never
    touches eigenvalues, so no irrationals appear.  Generator symbols are
    substituted by their exact exp(rate*coord) values at the point, which
    keeps the elimination symbolic but still decidable; without generators
    every value is a Rational and nothing needs simplifying.  An entry whose
    denominator vanishes at the point raises PoleError; that test is exact:
    at a rational point the denominator becomes a sum of rational multiples
    of exp(r) for distinct rationals r, which by Lindemann-Weierstrass
    vanishes only when sympy's expanded form is 0.  A pivot whose sign no
    exact test and no numeric evaluation decides raises UndecidedSignError.
    """
    n = g.chart.dim
    subs = g.chart.point_subs(point)
    ctx = g.chart.context
    coords = tuple(subs[s] for s in ctx.coord_symbols)
    for gen, gsym in zip(ctx.generators, ctx.gen_symbols):
        coord_val = subs[ctx.coord_symbols[gen.coord_index]]
        subs[gsym] = sp.exp(gen.rate * coord_val)
    for e in g.comps.flat:
        if sp.expand(e.denom.as_expr().subs(subs)) == 0:
            raise PoleError(coords)
    simplify = sp.simplify if ctx.generators else (lambda e: e)
    work = sp.Matrix(n, n, lambda i, j: simplify(g.array[i, j].subs(subs)))
    pos = neg = 0
    size = n
    while size > 0:
        work = work.applyfunc(simplify)
        # find a nonzero diagonal pivot
        piv = next((i for i in range(size) if work[i, i] != 0), None)
        if piv is None:
            ij = next(
                (
                    (i, j)
                    for i in range(size)
                    for j in range(i + 1, size)
                    if work[i, j] != 0
                ),
                None,
            )
            if ij is None:
                raise DegenerateMetricError(
                    f"metric degenerate at point {point if point is not None else g.chart.base_point}"
                )
            i, j = ij
            # congruence: add row/col j to row/col i to surface a diagonal entry
            work[i, :] = work[i, :] + work[j, :]
            work[:, i] = work[:, i] + work[:, j]
            piv = i
        d = work[piv, piv]
        is_pos = d.is_positive
        if is_pos is None:
            try:
                is_pos = float(d.evalf(30)) > 0
            except TypeError as exc:
                raise UndecidedSignError(f"sign of pivot {sp.sstr(d)} at point {coords}") from exc
        if is_pos:
            pos += 1
        else:
            neg += 1
        # eliminate the pivot row/column symmetrically (E m E^T)
        keep = [i for i in range(size) if i != piv]
        factors = {i: work[i, piv] / d for i in keep}
        for i in keep:
            if factors[i] != 0:
                work[i, :] = work[i, :] - factors[i] * work[piv, :]
        for i in keep:
            if factors[i] != 0:
                work[:, i] = work[:, i] - factors[i] * work[:, piv]
        work = work.extract(keep, keep)
        size -= 1
    if pos + neg < n:
        raise DegenerateMetricError("metric degenerate at point")
    return pos, neg
