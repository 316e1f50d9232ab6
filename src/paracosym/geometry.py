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

There is one tensor type, Components: the dimension n, the rank, a map
from index tuple to entry that holds only the nonzero ones of its n**rank
entries, and the field's zero, which every other index reads.  The map is
the one representation: indexing reads it, and iteration yields all
n**rank entries from it in row-major order, zeros included, building
nothing.  A TensorField is Components that also carries its chart and its
valence (r, s), which partials, the derivatives, wedge and eval_at read;
arithmetic on either returns Components, and a contraction to no index
returns one field element.

Every entry of a Components is an element of one field, a chart's
rational function field (see scalars), set where an array enters:
Components.of lifts the numbers of a nested list once into the field of
its first field element (ValenceError if it has none), TensorField into
its chart's field, and the kernels compute in their operands' field.
Entrywise arithmetic touches the nonzero entries only and leaves the
field to Frac's operators, which lift a number and raise
ContextMismatchError for an element of another field; it checks the
operands' fields once (their zeros), as contract does once per operand,
in any operand order.  The one lift between fields is
TensorField(chart, r, s, t), into a chart whose field contains t's
(Frac.set_field), which deform.conformal_deform takes; TensorField.array,
the entries' sympy view (Frac.as_expr), is for reading from outside the
engine.  Values at the chart's base point (eval_at, signature_at) are
exact elements of QQ(E) (scalars.PointValues).

Every algebraic and differential operator is built from two primitives:
partials, the coordinate partials of every non-constant entry as one more
trailing slot, and contract(spec, *operands), an exact einsum.  The spec
names the slots of each operand with one letter per index, e.g.
"imab,m->iab" for (R(xi, d_a) d_b)^i; a letter that is not in the output
is summed.  The operands are contracted in pairs in the order written, so
the caller stages the cheapest contraction first (R with xi before phi and
g).  Each stage joins the nonzero maps of its two operands, sums every
output entry over the lcm of its denominators and reduces it once
(field.fraction_sum, the field's one sum).  The index plan of a stage (the
positions of its shared, extra and kept labels, as itemgetters) is
computed once per pair of labellings, and the last stage's map, with its
keys put in output order, is the result.  On top of them:

- the connection (christoffel) is g^{-1}/2 contracted with a sum of
  permutations of the partials of g;
- nabla T is partials(T) plus one contraction with the connection per
  slot, L_v T is v contracted with partials(T) plus one contraction with
  partials(v) per slot;
- Riemann is X - X(i<->j) for X = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk,
  one field.fraction_sum per entry with i < j (its own kernel);
- the exterior derivative and the wedge with a 1-form are alternating
  sums of index permutations of partials and of a (x) b.

Callers combine the results by entrywise field arithmetic into one
residual Components per check.  The metric inverse is row_reduce of
[g | Id], the one elimination over the field.

The kernels here take their inputs and recompute nothing: a tensor that
more than one check reads (g^{-1}, the connection, R, Q, h^2, R(.,.)xi,
N^1, ...) is a cached property of structures.StructureAnalysis, built
there once per structure.
"""

from __future__ import annotations

import functools
import itertools
import operator
import string
from collections import defaultdict
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

from .errors import (
    DegenerateMetricError,
    DivisionByZeroFieldError,
    SingularMetricError,
    ValenceError,
)
from .field import Frac, fraction_sum, product
from .scalars import PointValues, ScalarContext


class Chart:
    """An odd-dimensional coordinate chart with a rational base point."""

    def __init__(self, context: ScalarContext, base_point: Sequence):
        if len(base_point) != context.dim:
            raise ValueError("base point dimension mismatch")
        self.context = context
        self.base_point = tuple(Fraction(p) for p in base_point)
        self._base_values = None

    @property
    def dim(self) -> int:
        return self.context.dim

    def values_at(self, point: Optional[Sequence] = None) -> PointValues:
        """Exact values at a rational point (the base point by default)."""
        if point is not None:
            return PointValues(self.context, point)
        if self._base_values is None:
            self._base_values = PointValues(self.context, self.base_point)
        return self._base_values


Entries = Dict[Tuple[int, ...], Frac]


def _nested(x) -> Tuple[int, int, dict]:
    """(n, rank, index -> entry, zeros included) of a nested list of
    equal-length rows, or of a scalar (rank 0, no dimension)."""
    if not isinstance(x, (list, tuple)):
        if not isinstance(x, (Frac, int, Fraction)):
            raise ValenceError(f"component {x!r} is not a field element, an int or a Fraction")
        return 0, 0, {(): x}
    rows = [_nested(row) for row in x]
    rank = rows[0][1] if rows else 0
    if any(r != rank or (rank and n != len(x)) for n, r, _ in rows):
        raise ValenceError("component array is ragged or not square")
    return len(x), rank + 1, {(i, *idx): e for i, (_, _, row) in enumerate(rows) for idx, e in row.items()}


class Components:
    """Components of a rank-k array over range(n)**k, elements of one field
    taken as they are (Components.of lifts an outside array's numbers).

    The representation is entries, a dict from index tuple to entry that
    holds the nonzero entries only, and zero, the field's zero that every
    other index reads; iteration yields every entry in row-major order,
    zeros included.  Immutable; +, - and unary - act entrywise on two
    arrays of the same n and rank, * and / by a field element or a number,
    with Frac's own operators, and each touches the nonzero entries only."""

    __slots__ = ("n", "rank", "entries", "zero")

    def __init__(self, n: int, rank: int, entries: Entries, zero):
        """Components whose nonzero entries are the map entries, taken as it
        is (not copied, and no entry of it may be zero)."""
        self.n, self.rank, self.entries, self.zero = n, rank, entries, zero

    @staticmethod
    def of(x, field=None) -> "Components":
        """x as Components: a Components, or a nested list of equal-length
        rows or a scalar (rank 0, no dimension) whose ints and Fractions are
        lifted into the field of its first field element, or into field if
        it has none (ValenceError if neither, FracField.coerce's
        ContextMismatchError for an element of another field)."""
        if isinstance(x, Components):
            return x
        n, rank, nested = _nested(x)
        field = next((e.field for e in nested.values() if isinstance(e, Frac)), field)
        if field is None:
            raise ValenceError("component array has no entry in a chart's field")
        lifted = ((idx, field.coerce(e)) for idx, e in nested.items())
        return Components(n, rank, {idx: e for idx, e in lifted if e}, field.zero)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if len(idx) != self.rank:
            raise IndexError(f"index {idx} for an array of rank {self.rank}")
        if not all(0 <= i < self.n for i in idx):
            raise IndexError(f"index {idx} out of range in dimension {self.n}")
        return self.entries.get(idx, self.zero)

    def __iter__(self):
        """The n**rank entries in row-major order, zeros included."""
        keys = itertools.product(range(self.n), repeat=self.rank)
        return map(self.entries.get, keys, itertools.repeat(self.zero))

    def is_zero(self) -> bool:
        return not self.entries

    def first_nonzero(self) -> Optional[Tuple[Tuple[int, ...], Frac]]:
        """(index, entry) of the first nonzero entry in row-major order, the
        least index, the witness of a failed identity; or None if every
        entry is zero."""
        if not self.entries:
            return None
        idx = min(self.entries)
        return idx, self.entries[idx]

    def applyfunc(self, f) -> "Components":
        """f of every nonzero entry, for an f that takes zero to zero
        (ValenceError otherwise)."""
        zero = f(self.zero)
        if zero:
            raise ValenceError(f"applyfunc of a function that takes zero to {zero}")
        out = {}
        for idx, e in self.entries.items():
            v = f(e)
            if v:
                out[idx] = v
        return Components(self.n, self.rank, out, zero)

    def _like(self, entries: Entries) -> "Components":
        return Components(self.n, self.rank, entries, self.zero)

    def _merge(self, other, op, alone) -> "Components":
        """op of the entries at each index where either side is nonzero,
        alone(b) where only other's entry b is.  ValenceError unless other
        has our n and rank; ContextMismatchError if its entries lie in
        another field, checked once on the zeros."""
        if not isinstance(other, Components) or (other.n, other.rank) != (self.n, self.rank):
            shape = (other.n, other.rank) if isinstance(other, Components) else type(other)
            raise ValenceError(f"entrywise operation on (n, rank) {(self.n, self.rank)} and {shape}")
        a, b = self.zero, other.zero
        if isinstance(a, Frac) and isinstance(b, Frac) and a.field is not b.field:
            a.field.coerce(b)
        out = dict(self.entries)
        for idx, b in other.entries.items():
            a = out.get(idx)
            if a is None:
                out[idx] = alone(b)
            elif v := op(a, b):
                out[idx] = v
            else:
                del out[idx]
        return self._like(out)

    def __add__(self, other) -> "Components":
        return self._merge(other, operator.add, lambda b: b)

    def __sub__(self, other) -> "Components":
        return self._merge(other, operator.sub, operator.neg)

    def __neg__(self) -> "Components":
        return self._like({idx: -a for idx, a in self.entries.items()})

    def __mul__(self, c) -> "Components":
        if not isinstance(c, (Frac, int, Fraction)):
            return NotImplemented
        c = self.zero.field.coerce(c)  # lifted or checked once, not per entry
        if not c:
            return self._like({})
        return self._like({idx: a * c for idx, a in self.entries.items()})

    __rmul__ = __mul__

    def __truediv__(self, c) -> "Components":
        if not isinstance(c, (Frac, int, Fraction)):
            return NotImplemented
        c = self.zero.field.coerce(c)
        if not c:
            raise DivisionByZeroFieldError("division by the zero scalar field")
        return self._like({idx: a / c for idx, a in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, Components):
            return NotImplemented
        return (self.n, self.rank) == (other.n, other.rank) and self.entries == other.entries

    def __hash__(self):
        return hash((self.n, self.rank, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Components({self.n}, {self.rank}, {self.entries!r}, {self.zero!r})"


class TensorField(Components):
    """An exact (r,s)-tensor field on a chart: Components in the chart's
    field, r contravariant slots first, with the chart and the valence that
    partials, the derivatives, wedge and eval_at read.  Arithmetic is
    Components': it returns Components, and a caller wraps a result only
    where one of those kernels takes it.  Numbers are lifted into the
    chart's field, and so are components of a field that the chart's
    contains (Frac.set_field); components of any other field raise
    ContextMismatchError."""

    __slots__ = ("chart", "r", "s", "_array")

    def __init__(self, chart: Chart, r: int, s: int, array):
        n = chart.dim
        field = chart.context.field
        arr = Components.of(array, field)
        if arr.rank != r + s or (arr.rank and arr.n != n):
            raise ValenceError(
                f"component array of rank {arr.rank} in dimension {arr.n} does not "
                f"match valence ({r},{s}) in dimension {n}"
            )
        entries, zero = arr.entries, arr.zero
        if zero.field.symbols != field.symbols:
            zero.set_field(field)  # ContextMismatchError unless field contains zero's
            entries = {idx: e.set_field(field) for idx, e in entries.items()}
            zero = field.zero
        self.n, self.rank, self.entries, self.zero = n, r + s, entries, zero
        self.chart = chart
        self.r = r
        self.s = s
        self._array = None

    @property
    def array(self) -> Components:
        """The components as sympy expressions (Frac.as_expr, which imports
        sympy), built once; the engine never reads them."""
        if self._array is None:
            self._array = self.applyfunc(Frac.as_expr)
        return self._array

    def eval_at(self) -> Components:
        """Exact values at the base point, in QQ(E) (scalars.PointValues);
        PoleError at a pole."""
        return self.applyfunc(self.chart.values_at().value)


# --------------------------------------------------------------------
# the contraction primitive


def _getter(positions) -> operator.itemgetter:
    """An itemgetter that takes an index tuple to the tuple of its entries
    at positions (a slice where they are consecutive)."""
    p = tuple(positions)
    start = p[0] if p else 0
    if p == tuple(range(start, start + len(p))):
        return operator.itemgetter(slice(start, start + len(p)))
    return operator.itemgetter(*p)


@functools.cache
def _parse_spec(spec: str, count: int) -> Tuple[Tuple[str, ...], str, Tuple[frozenset, ...]]:
    """(the labels of each operand, the output labels, the labels each
    stage keeps: the output's and those of every later operand)."""
    inputs, arrow, output = spec.partition("->")
    inputs = tuple(inputs.split(","))
    if not arrow or len(inputs) != count:
        raise ValenceError(f"contraction spec {spec!r} does not match {count} operands")
    seen = "".join(inputs)
    if not all(c in string.ascii_letters for c in seen + output):
        raise ValenceError(f"contraction spec {spec!r}: index labels must be letters")
    if len(set(output)) != len(output) or not set(output) <= set(seen):
        raise ValenceError(f"contraction spec {spec!r}: bad output labels {output!r}")
    keeps = tuple(frozenset(output).union(*inputs[k + 1 :]) for k in range(count))
    return inputs, output, keeps


def _labelled(entries: Entries, labels: str) -> Tuple[str, Entries]:
    """An operand's nonzero entries keyed by its distinct labels: the map
    itself, or its diagonal where a label repeats within the operand."""
    distinct = "".join(dict.fromkeys(labels))
    if distinct == labels:
        return labels, entries
    first = [labels.index(c) for c in labels]
    keep = _getter(labels.index(c) for c in distinct)
    return distinct, {
        keep(idx): v for idx, v in entries.items() if all(idx[p] == idx[f] for p, f in enumerate(first))
    }


@functools.cache
def _plan(la: str, lb: str, keep: frozenset):
    """How a stage joins operands labelled la and lb: getters of the
    shared labels' positions in a and in b, of b's other labels, and of the
    kept positions of a's index followed by b's other labels (None when
    every one is kept, in order); and the kept labels."""
    shared = [c for c in lb if c in la]
    extra = "".join(c for c in lb if c not in la)
    joint = la + extra
    kept = "".join(c for c in joint if c in keep)
    return (
        _getter(la.index(c) for c in shared),
        _getter(lb.index(c) for c in shared),
        _getter(lb.index(c) for c in extra),
        None if kept == joint else _getter(joint.index(c) for c in kept),
        kept,
    )


def _stage(la: str, ea: Entries, lb: str, eb: Entries, keep, field) -> Tuple[str, Entries]:
    """Multiply two labelled operands, sum the labels not in keep, and
    reduce every output entry once."""
    get_a, get_b, get_extra, get_kept, kept = _plan(la, lb, keep)
    by_shared = defaultdict(list)
    for ib, vb in eb.items():
        by_shared[get_b(ib)].append((get_extra(ib), vb))
    terms = defaultdict(list)
    for ia, va in ea.items():
        for ie, vb in by_shared.get(get_a(ia), ()):
            full = ia + ie
            terms[full if get_kept is None else get_kept(full)].append((va, vb))
    out: Entries = {}
    one = field.one
    for key, pairs in terms.items():
        if len(pairs) == 1 and pairs[0][0] is one:  # the first operand as it stands
            value = pairs[0][1]
        else:
            value = fraction_sum(field, (product(a, b) for a, b in pairs))
        if value:
            out[key] = value
    return kept, out


@functools.cache
def _move(labels: str, output: str) -> operator.itemgetter:
    """The getter that reorders an index labelled labels to output."""
    return _getter(labels.index(c) for c in output)


def contract(spec: str, *operands):
    """Exact einsum over TensorFields or component arrays.

    The operands are contracted in pairs, left to right in the order given,
    over their nonzero entries; every stage reduces each of its entries
    once.  Returns Components of field elements indexed by the output
    labels, or, for an empty output, one field element.  A malformed spec,
    an operand whose rank or dimension does not match its labels, or
    operands without an entry raise ValenceError; an operand in a field
    other than the first operand's raises ContextMismatchError
    (FracField.coerce on its zero, once per operand).
    """
    inputs, output, keeps = _parse_spec(spec, len(operands))
    arrs = [Components.of(x) for x in operands]
    for arr, labels in zip(arrs, inputs):
        if arr.rank != len(labels):
            raise ValenceError(f"operand of rank {arr.rank} labelled {labels!r}")
    # a scalar has a dimension only as a TensorField, from its chart
    dims = {a.n for a in arrs if a.rank or isinstance(a, TensorField)}
    if len(dims) > 1:
        raise ValenceError(f"operands of different dimensions {sorted(dims)}")
    n = dims.pop() if dims else 0
    zeros = [a.zero for a in arrs if a.zero is not None]
    if not zeros:
        raise ValenceError(f"contraction {spec!r} has no entry in a chart's field")
    field = zeros[0].field
    for zero in zeros[1:]:
        if zero.field is not field:
            field.coerce(zero)
    labels, entries = "", {(): field.one}
    for k, (labels_k, arr) in enumerate(zip(inputs, arrs)):
        lb, eb = _labelled(arr.entries, labels_k)
        if k == 0 and keeps[0].issuperset(lb):  # nothing summed: the operand as it stands
            labels, entries = lb, eb
        else:
            labels, entries = _stage(labels, entries, lb, eb, keeps[k], field)
    if not output:
        return entries.get((), field.zero)
    # the last stage keeps exactly the output labels, in its own order
    if labels != output:
        move = _move(labels, output)
        entries = {move(key): value for key, value in entries.items()}
    return Components(n, len(output), entries, field.zero)


def _letters(k: int, skip: str = "") -> str:
    return "".join(c for c in string.ascii_letters if c not in skip)[:k]


# --------------------------------------------------------------------
# pointwise linear algebra helpers


def identity_tensor(chart: Chart) -> TensorField:
    field = chart.context.field
    entries = {(i, i): field.one for i in range(chart.dim)}
    return TensorField(chart, 1, 1, Components(chart.dim, 2, entries, field.zero))


# --------------------------------------------------------------------
# metric machinery


def row_reduce(rows: list) -> Tuple[list, list]:
    """The reduced row echelon form of a matrix over a field with exact zero
    tests, and its pivot columns: the nonzero rows, each with a 1 in its
    pivot column and 0 in every other pivot column."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        p = [a / rows[piv][col] for a in rows[piv]]
        rows[piv], rows[rank] = rows[rank], p
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != rank:
                rows[r] = [a - f * b for a, b in zip(row, p)]
        pivots.append(col)
    return rows[: len(pivots)], pivots


def metric_inverse(g: TensorField) -> TensorField:
    """g^{-1}: row_reduce takes [g | Id] to [Id | g^{-1}].  When g is
    singular, a pivot of [g | Id] lies in Id's columns."""
    n = g.n
    field = g.chart.context.field
    rows = [[g[i, j] for j in range(n)] + [field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    reduced, pivots = row_reduce(rows)
    if pivots[n - 1] != n - 1:
        raise SingularMetricError("metric determinant is identically zero")
    return TensorField(g.chart, 2, 0, [row[n:] for row in reduced])


def christoffel(g: TensorField, ginv: TensorField) -> TensorField:
    """The Levi-Civita connection of g, with ginv = metric_inverse(g):
    Gamma^k_ij = (1/2) g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) at [k, i, j].
    The TensorField(chart, 1, 2) is storage for the coefficients, not a
    tensor: they do not transform as one under a change of chart."""
    dg = partials(g)  # [i, j, l] = d_l g_ij
    first = contract("jli->ijl", dg) + contract("ilj->ijl", dg) - dg
    return TensorField(g.chart, 1, 2, contract("kl,ijl->kij", ginv / 2, first))


def covariant_derivative(t: TensorField, conn: TensorField) -> TensorField:
    """nabla T with the direction index appended as the last covariant
    slot: d_c T[..] plus Gamma^a_cm T[.. m ..] for each upper slot a and
    minus Gamma^m_ca T[.. m ..] for each lower one, with conn the
    christoffel coefficients."""
    idx = _letters(t.rank, skip="cm")
    out = partials(t)
    for p, a in enumerate(idx):
        moved = idx[:p] + "m" + idx[p + 1 :]
        if p < t.r:
            out = out + contract(f"{a}cm,{moved}->{idx}c", conn, t)
        else:
            out = out - contract(f"mc{a},{moved}->{idx}c", conn, t)
    return TensorField(t.chart, t.r, t.s + 1, out)


def lie_derivative(v: TensorField, t: TensorField) -> TensorField:
    """Connection-free Lie derivative along the vector field v:
    v^c d_c T[..] minus (d_m v^a) T[.. m ..] for each upper slot a and plus
    (d_a v^m) T[.. m ..] for each lower one."""
    if (v.r, v.s) != (1, 0):
        raise ValenceError("lie_derivative direction must be a vector field")
    idx = _letters(t.rank, skip="cm")
    dv = partials(v)  # [a, m] = d_m v^a
    out = contract(f"{idx}c,c->{idx}", partials(t), v)
    for p, a in enumerate(idx):
        moved = idx[:p] + "m" + idx[p + 1 :]
        if p < t.r:
            out = out - contract(f"{a}m,{moved}->{idx}", dv, t)
        else:
            out = out + contract(f"m{a},{moved}->{idx}", dv, t)
    return TensorField(t.chart, t.r, t.s, out)


def partials(t: TensorField) -> Components:
    """The coordinate partials d_c T[idx] at [idx, c]: one more trailing
    slot, derived for the non-constant nonzero entries only."""
    ctx = t.chart.context
    out: Entries = {}
    for idx, e in t.entries.items():
        if e.is_constant():
            continue
        for c in range(t.n):
            d = ctx.partial_element(e, c)
            if d:
                out[idx + (c,)] = d
    return Components(t.n, t.rank + 1, out, ctx.field.zero)


def _alternate(t: Components) -> Components:
    """sum_j (-1)^j T with its last slot moved to position j, for
    T[i_1, ..., i_k, c] antisymmetric in its first k slots."""
    k = t.rank - 1
    rest = _letters(k, skip="c")
    moved = [contract(f"{rest}c->{rest[:j]}c{rest[j:]}", t) for j in range(k)] + [t]
    out = moved[0]
    for j in range(1, k + 1):
        out = out - moved[j] if j % 2 else out + moved[j]
    return out


def exterior_derivative(omega: TensorField) -> TensorField:
    """d of an antisymmetric (0,k) field, shuffle-normalized:
    (d omega)[i_0, ..., i_k] = sum_j (-1)^j d_{i_j} omega[..., i_j omitted, ...]."""
    if omega.r != 0:
        raise ValenceError("exterior derivative needs a (0,k) field")
    return TensorField(omega.chart, 0, omega.s + 1, _alternate(partials(omega)))


def wedge(a: TensorField, b: TensorField) -> TensorField:
    """a ^ b for a 1-form a and an antisymmetric (0,k) field b, with
    (dx ^ dy)(d_x, d_y) = 1: the alternation of a (x) b."""
    if (a.r, a.s) != (0, 1) or b.r != 0:
        raise ValenceError("wedge needs a 1-form and a (0,k) field")
    rest = _letters(b.s, skip="c")
    return TensorField(a.chart, 0, b.s + 1, _alternate(contract(f"c,{rest}->{rest}c", a, b)))


# --------------------------------------------------------------------
# curvature


def riemann(conn: TensorField) -> TensorField:
    """R[l, i, j, k] = component of R(d_i, d_j) d_k along d_l:
    X[l, i, j, k] - X[l, j, i, k] with X = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk.

    R is antisymmetric in i, j, so each entry with i < j is one
    field.fraction_sum of its d(Gamma) and Gamma.Gamma terms, reduced once;
    the entry with i and j swapped is its negation, and i = j is zero."""
    terms = defaultdict(list)  # (l, i, j, k) with i < j -> (numer, denom) pairs

    def add(l, i, j, k, numer, denom):
        if i < j:
            terms[l, i, j, k].append((numer, denom))
        elif i > j:
            terms[l, j, i, k].append((-numer, denom))

    for (l, j, k, i), d in partials(conn).entries.items():  # d_i Gamma^l_jk
        add(l, i, j, k, d.numer, d.denom)
    by_upper = defaultdict(list)  # m -> [(j, k, Gamma^m_jk)]
    for (m, j, k), b in conn.entries.items():
        by_upper[m].append((j, k, b))
    for (l, i, m), a in conn.entries.items():
        for j, k, b in by_upper[m]:
            add(l, i, j, k, *product(a, b))
    field = conn.chart.context.field
    out: Entries = {}
    for (l, i, j, k), pairs in terms.items():
        value = fraction_sum(field, pairs)
        if value:
            out[l, i, j, k] = value
            out[l, j, i, k] = -value
    return TensorField(conn.chart, 1, 3, Components(conn.n, 4, out, field.zero))


def ricci_tensor(R: TensorField) -> TensorField:
    return TensorField(R.chart, 0, 2, contract("iijk->jk", R))


# --------------------------------------------------------------------
# signature


def signature_at(g: TensorField) -> Tuple[int, int]:
    """(positive, negative) inertia of g at the chart's base point.

    Exact symmetric congruence diagonalization of g's values there,
    which lie in QQ(E) (scalars.PointValues): every zero test there is
    exact and every pivot sign is decided by refining integer enclosures
    of E, so no irrationals and no floats appear.  An entry whose
    denominator vanishes at the point raises PoleError, a metric with no
    nonzero pivot left DegenerateMetricError.
    """
    n = g.n
    at = g.chart.values_at()
    work = [[at.value(g[i, j]) for j in range(n)] for i in range(n)]
    pos = neg = 0
    while work:
        size = len(work)
        # find a nonzero diagonal pivot
        piv = next((i for i in range(size) if work[i][i]), None)
        if piv is None:
            ij = next(
                ((i, j) for i in range(size) for j in range(i + 1, size) if work[i][j]), None
            )
            if ij is None:
                raise DegenerateMetricError(
                    f"metric degenerate at point ({', '.join(map(str, at.point))})"
                )
            i, j = ij
            # congruence: add row/col j to row/col i to surface a diagonal entry
            work[i] = [a + b for a, b in zip(work[i], work[j])]
            for row in work:
                row[i] = row[i] + row[j]
            piv = i
        d = work[piv][piv]
        if at.sign(d) > 0:
            pos += 1
        else:
            neg += 1
        # eliminate the pivot row/column symmetrically (E m E^T)
        keep = [i for i in range(size) if i != piv]
        prow = work[piv]
        work = [
            [work[a][b] - work[a][piv] * prow[b] / d if work[a][piv] else work[a][b] for b in keep]
            for a in keep
        ]
    return pos, neg
