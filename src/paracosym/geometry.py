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

Components are raw sympy expressions in the canonical form scalars.canon
(one reduced fraction); they are exact rational functions of the
coordinates and any declared exponential generators (see scalars.pdiff for
the derivative rule).  Every tensor, connection and contraction result
stores them in one Components value: the dimension n, the rank and a flat
row-major tuple of the n**rank entries, so the entry at (i_1, ..., i_k) sits
at offset ((i_1 n + i_2) n + ...) n + i_k.  The differential operators
below read and write those tuples by offset.

Algebraic contractions go through one primitive, contract(spec,
*operands), an exact einsum (the differential operators below keep their
own index loops).  The spec names the slots of each operand with
one letter per index, e.g. "imab,m->iab" for (R(xi, d_a) d_b)^i; a letter
that is not in the output is summed.  The operands are contracted in pairs
in the order written, so the caller stages the cheapest contraction first
(R with xi before phi and g).  An intermediate stage that summed over an
index is canonicalised once per entry; the final stage is returned raw.
Callers combine such raw arrays by entrywise arithmetic into a residual and
canonicalise it once per output entry, by wrapping it in a TensorField:
summing separately canonicalised tensors costs one canonicalisation per
term instead.
"""

from __future__ import annotations

import itertools
import string
from collections import defaultdict
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import sympy as sp

from .errors import (
    DegenerateMetricError,
    SingularMetricError,
    ValenceError,
)
from .scalars import ScalarContext, ScalarField, canon, pdiff


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


class Components:
    """Components of a rank-k array over range(n)**k: a flat row-major tuple
    of n**k sympy expressions.  Immutable; +, - and unary - act entrywise
    on two arrays of the same n and rank, * and / by a scalar."""

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
            return Components(0, 0, (sp.sympify(x),))
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

    def __add__(self, other) -> "Components":
        return Components(self.n, self.rank, [a + b for a, b in self._zip(other)])

    def __sub__(self, other) -> "Components":
        return Components(self.n, self.rank, [a - b for a, b in self._zip(other)])

    def __neg__(self) -> "Components":
        return Components(self.n, self.rank, [-a for a in self.flat])

    def __mul__(self, c) -> "Components":
        c = sp.sympify(c, strict=True)
        return Components(self.n, self.rank, [a * c for a in self.flat])

    def __rmul__(self, c) -> "Components":
        c = sp.sympify(c, strict=True)
        return Components(self.n, self.rank, [c * a for a in self.flat])

    def __truediv__(self, c) -> "Components":
        c = sp.sympify(c, strict=True)
        return Components(self.n, self.rank, [a / c for a in self.flat])

    def __eq__(self, other):
        if hasattr(other, "tolist"):  # a sympy array or matrix compares by value
            other = Components.of(other)
        if not isinstance(other, Components):
            return NotImplemented
        return (self.n, self.rank, self.flat) == (other.n, other.rank, other.flat)

    def __hash__(self):
        return hash((self.n, self.rank, self.flat))

    def __repr__(self):
        return f"Components({self.n}, {self.rank}, {self.flat!r})"


class TensorField:
    """Componentwise exact (r,s)-tensor field on a chart."""

    __slots__ = ("chart", "r", "s", "array")

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
        self.array = Components(n, r + s, [canon(e) for e in arr.flat])

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
        return TensorField(self.chart, self.r, self.s, self.array + other.array)

    def __sub__(self, other):
        self._check_same_valence(other)
        return TensorField(self.chart, self.r, self.s, self.array - other.array)

    def __neg__(self):
        return TensorField(self.chart, self.r, self.s, -self.array)

    def scale(self, f) -> "TensorField":
        expr = f.expr if isinstance(f, ScalarField) else sp.sympify(f)
        return TensorField(self.chart, self.r, self.s, self.array * expr)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.array)

    def __eq__(self, other):
        if not isinstance(other, TensorField):
            return NotImplemented
        if self.chart != other.chart or (self.r, self.s) != (other.r, other.s):
            return False
        return (self - other).is_zero()

    def __hash__(self):
        return hash((self.chart, self.r, self.s, self.array))

    def first_nonzero(self) -> Optional[Tuple[Tuple[int, ...], sp.Expr]]:
        """Witness component for a failed identity, or None if zero."""
        for idx, e in zip(self.indices(), self.array):
            if e != 0:
                return idx, e
        return None

    # -- evaluation ----------------------------------------------------

    def eval_at(self, point: Optional[Sequence] = None):
        """Exact value at a rational point (generator-free only): Components,
        or one Rational for a scalar."""
        subs = self.chart.point_subs(point)
        gens = set(self.chart.context.gen_symbols)

        def value(e):
            if e.free_symbols & gens:
                raise ValueError("exact evaluation of a generator-bearing tensor")
            num, den = sp.fraction(canon(e))
            d = den.subs(subs)
            if d == 0:
                from .errors import PoleError

                raise PoleError(tuple(subs.values()))
            return sp.Rational(num.subs(subs)) / sp.Rational(d)

        if self.rank == 0:
            return value(self.array.flat[0])
        return self.array.applyfunc(value)

    def numeric_at(self, point: Optional[Sequence] = None):
        """Float value (Components, or one float for a scalar); generators
        evaluate as exp(rate*coord)."""
        subs = self.chart.point_subs(point)
        pt = self.chart.base_point if point is None else [Fraction(p) for p in point]
        for gen, gsym in zip(self.chart.context.generators, self.chart.context.gen_symbols):
            p = Fraction(pt[gen.coord_index])
            subs[gsym] = sp.exp(gen.rate * sp.Rational(p.numerator, p.denominator))
        if self.rank == 0:
            return float(self.array.flat[0].subs(subs))
        return self.array.applyfunc(lambda e: sp.Float(e.subs(subs), 30))


# --------------------------------------------------------------------
# the contraction primitive

Entries = Dict[Tuple[int, ...], sp.Expr]


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
        n, arr = x.chart.dim, x.array
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
        if v != 0 and all(idx[p] == idx[f] for p, f in enumerate(first)):
            out[tuple(idx[p] for p in keep)] = v
    return distinct, out


def _stage(la: str, ea: Entries, lb: str, eb: Entries, keep) -> Tuple[str, Entries, bool]:
    """Multiply two labelled operands and sum the labels not in keep."""
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
            terms[tuple(full[p] for p in pos)].append(va * vb)
    return kept, {k: sp.Add(*v) for k, v in terms.items()}, len(kept) < len(joint)


def contract(spec: str, *operands):
    """Exact einsum over TensorFields or component arrays.

    The operands are contracted in pairs, left to right in the order given,
    skipping zero entries; an intermediate stage that summed over an index
    is canonicalised once per entry.  Returns the final stage raw:
    Components indexed by the output labels, or one expression when the
    output is empty.  A malformed spec, or an operand whose rank or dimension does
    not match its labels, raises ValenceError.
    """
    inputs, output = _parse_spec(spec, len(operands))
    parts = [_components(x, labels) for x, labels in zip(operands, inputs)]
    dims = {d for d, _ in parts if d is not None}
    if len(dims) > 1:
        raise ValenceError(f"operands of different dimensions {sorted(dims)}")
    n = dims.pop() if dims else 0
    labels, entries = "", {(): sp.Integer(1)}
    summed = False
    for k, (labels_k, (_, flat)) in enumerate(zip(inputs, parts)):
        if summed:
            entries = {i: c for i, v in entries.items() if (c := canon(v)) != 0}
        keep = set(output).union(*inputs[k + 1 :])
        lb, eb = _entries(flat, labels_k, n)
        labels, entries, summed = _stage(labels, entries, lb, eb, keep)
    if not output:
        return entries.get((), sp.Integer(0))
    order = [output.index(c) for c in labels]
    flat = [
        entries.get(tuple(idx[p] for p in order), sp.Integer(0))
        for idx in itertools.product(range(n), repeat=len(output))
    ]
    return Components(n, len(output), flat)


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
    return ScalarField(t.chart.context, contract("ii->", t))


def identity_tensor(chart: Chart) -> TensorField:
    n = chart.dim
    flat = [sp.Integer(1 if i == j else 0) for i in range(n) for j in range(n)]
    return TensorField(chart, 1, 1, Components(n, 2, flat))


# --------------------------------------------------------------------
# metric machinery


def metric_matrix(g: TensorField) -> sp.Matrix:
    n = g.chart.dim
    return sp.Matrix(n, n, lambda i, j: g.array[i, j])


def metric_inverse(g: TensorField) -> TensorField:
    n = g.chart.dim
    m = metric_matrix(g)
    det = canon(m.det())
    if det == 0:
        raise SingularMetricError(f"metric determinant is identically zero")
    inv = [canon(e / det) for e in m.adjugate()]
    return TensorField(g.chart, 2, 0, Components(n, 2, inv))


def christoffel(g: TensorField) -> "ConnectionCoefficients":
    return ConnectionCoefficients.from_metric(g)


class ConnectionCoefficients:
    """Levi-Civita connection coefficients Gamma^k_ij on a chart, stored as
    Components with Gamma^k_ij at offset (k n + i) n + j."""

    def __init__(self, chart: Chart, gamma):
        self.chart = chart
        self.gamma = Components.of(gamma).applyfunc(canon)

    @staticmethod
    def from_metric(g: TensorField) -> "ConnectionCoefficients":
        chart = g.chart
        n = chart.dim
        ginv = metric_inverse(g)
        dg = [
            [[pdiff(chart.context, g.array[i, j], k) for j in range(n)] for i in range(n)]
            for k in range(n)
        ]
        gamma = [sp.Integer(0)] * n**3
        for k in range(n):
            for i in range(n):
                for j in range(i, n):
                    val = sum(
                        ginv.array[k, l]
                        * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                        for l in range(n)
                    ) / 2
                    gamma[(k * n + i) * n + j] = val
                    gamma[(k * n + j) * n + i] = val
        return ConnectionCoefficients(chart, Components(n, 3, gamma))

    def __getitem__(self, idx):
        return self.gamma[idx]


def _strides(n: int, rank: int) -> list:
    """Offset step of each slot of a row-major rank-`rank` array."""
    return [n ** (rank - 1 - p) for p in range(rank)]


def covariant_derivative(t: TensorField, conn: ConnectionCoefficients) -> TensorField:
    """nabla T with the direction index appended as the last covariant slot."""
    chart = t.chart
    n = chart.dim
    r, s = t.r, t.s
    T, G = t.array.flat, conn.gamma.flat
    if r + s == 0:
        return TensorField(chart, 0, 1, [pdiff(chart.context, T[0], c) for c in range(n)])
    strides = _strides(n, r + s)
    out = []  # (nabla T)[idx, c] at offset off * n + c: appended in that order
    for off, idx in enumerate(t.indices()):
        for c in range(n):
            val = pdiff(chart.context, T[off], c)
            for p, (i, step) in enumerate(zip(idx, strides)):
                base = off - i * step
                for m in range(n):
                    if p < r:  # + Gamma^{i}_{c m} T[.. m ..]
                        val += G[(i * n + c) * n + m] * T[base + m * step]
                    else:  # - Gamma^{m}_{c i} T[.. m ..]
                        val -= G[(m * n + c) * n + i] * T[base + m * step]
            out.append(val)
    return TensorField(chart, r, s + 1, Components(n, r + s + 1, out))


def lie_derivative(v: TensorField, t: TensorField) -> TensorField:
    """Connection-free Lie derivative along the vector field v."""
    if (v.r, v.s) != (1, 0):
        raise ValenceError("lie_derivative direction must be a vector field")
    chart = t.chart
    n = chart.dim
    r, s = t.r, t.s
    V, T = v.array.flat, t.array.flat
    if r + s == 0:
        return TensorField(
            chart, 0, 0, sum(V[c] * pdiff(chart.context, T[0], c) for c in range(n))
        )
    dv = [[pdiff(chart.context, V[i], m) for m in range(n)] for i in range(n)]  # d_m v^i
    strides = _strides(n, r + s)
    out = []
    for off, idx in enumerate(t.indices()):
        val = sum(V[c] * pdiff(chart.context, T[off], c) for c in range(n))
        for p, (i, step) in enumerate(zip(idx, strides)):
            base = off - i * step
            for m in range(n):
                if p < r:  # - (d_m v^i) T[.. m ..]
                    val -= dv[i][m] * T[base + m * step]
                else:  # + (d_i v^m) T[.. m ..]
                    val += dv[m][i] * T[base + m * step]
        out.append(val)
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
    for idx, e in zip(t.indices(), t.array):
        for a in range(k - 1):
            swapped = list(idx)
            swapped[a], swapped[a + 1] = swapped[a + 1], swapped[a]
            if canon(e + t.array[tuple(swapped)]) != 0:
                return False
    return True


def exterior_derivative(omega: TensorField) -> TensorField:
    """d of an antisymmetric (0,k) field, shuffle-normalized."""
    if omega.r != 0:
        raise ValenceError("exterior derivative needs a (0,k) field")
    if not is_antisymmetric(omega):
        raise ValenceError("exterior derivative input must be antisymmetric")
    chart = omega.chart
    n = chart.dim
    k = omega.s
    if k == 0:
        return TensorField(
            chart, 0, 1, [pdiff(chart.context, omega.array.flat[0], c) for c in range(n)]
        )
    out = []
    for idx in itertools.product(range(n), repeat=k + 1):
        val = sp.Integer(0)
        for j in range(k + 1):
            rest = idx[:j] + idx[j + 1 :]
            val += (-1) ** j * pdiff(chart.context, omega.array[rest], idx[j])
        out.append(val)
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
    n = chart.dim
    k1, k2 = a.s, b.s
    if k1 == 0 or k2 == 0:
        return tensor_product(a, b)
    k = k1 + k2
    norm = sp.Rational(1, sp.factorial(k1) * sp.factorial(k2))
    signed = [(_permutation_sign(perm), perm) for perm in itertools.permutations(range(k))]
    out = []
    for idx in itertools.product(range(n), repeat=k):
        if len(set(idx)) < k:
            out.append(sp.Integer(0))
            continue
        val = sp.Integer(0)
        for sign, perm in signed:
            p = tuple(idx[perm[t]] for t in range(k))
            val += sign * a.array[p[:k1]] * b.array[p[k1:]]
        out.append(val * norm)
    return TensorField(chart, 0, k, Components(n, k, out))


# --------------------------------------------------------------------
# curvature


def riemann(conn: ConnectionCoefficients) -> TensorField:
    """R[l, i, j, k] = component of R(d_i, d_j) d_k along d_l."""
    chart = conn.chart
    n = chart.dim
    G = conn.gamma
    out = [sp.Integer(0)] * n**4
    for l in range(n):
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    val = pdiff(chart.context, G[l, j, k], i) - pdiff(
                        chart.context, G[l, i, k], j
                    )
                    val += sum(
                        G[l, i, m] * G[m, j, k] - G[l, j, m] * G[m, i, k]
                        for m in range(n)
                    )
                    val = canon(val)
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
    keeps the elimination symbolic but still decidable.
    """
    n = g.chart.dim
    subs = g.chart.point_subs(point)
    ctx = g.chart.context
    for gen, gsym in zip(ctx.generators, ctx.gen_symbols):
        coord_val = subs[ctx.coord_symbols[gen.coord_index]]
        subs[gsym] = sp.exp(gen.rate * coord_val)
    m = sp.Matrix(n, n, lambda i, j: sp.simplify(g.array[i, j].subs(subs)))
    pos = neg = 0
    work = m[:, :]
    size = n
    while size > 0:
        work = work.applyfunc(sp.simplify)
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
            is_pos = float(d.evalf(30)) > 0
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
