import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from paracosym.errors import ContextMismatchError, DivisionByZeroFieldError, SingularMetricError, ValenceError
from paracosym.geometry import (
    Chart,
    Components,
    TensorField,
    contract,
    covariant_derivative,
    exterior_derivative,
    lie_derivative,
    metric_inverse,
    partials,
    riemann,
    ricci_tensor,
    signature_at,
    wedge,
)
from paracosym import field
from paracosym.classify import canon
from paracosym.field import Frac, FracField, field_of_names
from paracosym.report import run_analyze
from paracosym.scalars import GeneratorDecl, ScalarContext
from support import christoffel, exact_value, scalar_curvature, symbols

CTX = ScalarContext(("x", "y", "z"), ())
CHART = Chart(CTX, (Fraction(0), Fraction(0), Fraction(0)))
FIELD = CTX.field
X, Y, Z = symbols(CTX)  # the sympy references
x, y, z = (CTX.coordinate(i) for i in range(3))


def _metric(rows):
    return TensorField(CHART, 0, 2, rows)


def _random_metric(rng):
    """Random symmetric perturbation of diag(1, -1, 1), degree <= 2."""
    def poly():
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3)) * Fraction(1, 4) * (
            rng.choice([x, y, z]) * rng.choice([1, x, y, z])
        )

    base = [[CTX.element(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            p = poly()
            base[i][j] = base[i][j] + p
            base[j][i] = base[i][j]
    base[0][0] = base[0][0] + 1
    base[1][1] = base[1][1] - 1
    base[2][2] = base[2][2] + 1
    return _metric(base)


def test_christoffel_metric_compatible_and_symmetric():
    rng = random.Random(7)
    g = _random_metric(rng)
    conn = christoffel(g)
    for metric in (g, metric_inverse(g)):  # nabla g = 0 and nabla g^{-1} = 0
        assert covariant_derivative(metric, conn).is_zero()
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert conn[k, i, j] == conn[k, j, i]


@pytest.fixture(scope="module")
def seed11():
    """The seed-11 random metric and its curvature, computed once."""
    g = _random_metric(random.Random(11))
    return g, riemann(christoffel(g))


def _points(count, seed):
    """Random rational points as sympy substitutions of the coordinates."""
    rng = random.Random(seed)
    return [
        {c: sp.Rational(rng.randint(-40, 40), rng.randint(1, 40)) for c in (X, Y, Z)}
        for _ in range(count)
    ]


# two rational functions that agree at three random rational points are
# equal but for a degenerate choice of points; the sympy references below
# are compared with the engine's results there, exactly
POINTS = _points(3, seed=5)


def _at(t, p):
    """The entries at a point of a TensorField's sympy view, or of
    Components of sympy expressions, as a sympy array."""
    comps = t.array if isinstance(t, TensorField) else t
    vals = [e.xreplace(p) for e in comps]
    assert all(v.is_Rational for v in vals)  # no pole at p
    return sp.ImmutableDenseNDimArray(vals, (comps.n,) * comps.rank)


def test_christoffel_and_riemann_match_expr_sums(seed11):
    # the same formulas as nested sums over the sympy metric: the connection
    # with each entry canonicalised once, which the field kernel must give
    # as expressions; the curvature from sympy's derivatives of that
    # connection and nested sums of its values at rational points, which
    # the fused kernel must match there
    g, R = seed11
    gm = sp.Matrix(3, 3, lambda i, j: g[i, j].as_expr())
    det, adj = canon(gm.det()), gm.adjugate()
    ginv = [[canon(adj[k, l] / det) for l in RNG3] for k in RNG3]
    coords = (X, Y, Z)
    dg = [[[sp.diff(gm[i, j], coords[k]) for j in RNG3] for i in RNG3] for k in RNG3]
    gamma = [
        [
            [
                canon(
                    sum(ginv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j]) for l in RNG3) / 2
                )
                for j in RNG3
            ]
            for i in RNG3
        ]
        for k in RNG3
    ]
    G = christoffel(g)
    for k, i, j in itertools.product(RNG3, repeat=3):
        assert G[k, i, j].as_expr() == gamma[k][i][j]
    dgamma = {
        (c, k, i, j): sp.diff(gamma[k][i][j], coords[c])
        for c, k, i, j in itertools.product(RNG3, repeat=4)
    }
    for p in POINTS:
        Gp = [[[gamma[k][i][j].xreplace(p) for j in RNG3] for i in RNG3] for k in RNG3]
        dGp = {key: e.xreplace(p) for key, e in dgamma.items()}
        Rp = _at(R, p)
        for l, i, j, k in itertools.product(RNG3, repeat=4):
            want = (
                dGp[i, l, j, k]
                - dGp[j, l, i, k]
                + sum(Gp[l][i][m] * Gp[m][j][k] - Gp[l][j][m] * Gp[m][i][k] for m in RNG3)
            )
            assert Rp[l, i, j, k] == want


def test_riemann_first_bianchi_random(seed11):
    R = seed11[1].array
    for i in range(3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    cyc = R[i, a, b, c] + R[i, b, c, a] + R[i, c, a, b]
                    assert sp.cancel(cyc) == 0


def test_riemann_antisymmetry():
    rng = random.Random(13)
    g = _random_metric(rng)
    R = riemann(christoffel(g)).array
    for idx in range(3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    assert sp.cancel(R[idx, a, b, c] + R[idx, b, a, c]) == 0


def test_exterior_derivative_squares_to_zero():
    f = x * y + z**3
    df = TensorField(CHART, 0, 1, [CTX.partial_element(f, c) for c in range(3)])
    ddf = exterior_derivative(df)
    assert ddf.is_zero()
    omega = TensorField(CHART, 0, 1, [x * y, y * z, x + z**2])
    ddo = exterior_derivative(exterior_derivative(omega))
    assert ddo.is_zero()


def test_wedge_antisymmetry():
    a = TensorField(CHART, 0, 1, [x, 0, 1])
    b = TensorField(CHART, 0, 1, [0, y, 2])
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).is_zero()
    assert wedge(a, a).is_zero()


def test_bracket_jacobi_identity():
    u = TensorField(CHART, 1, 0, [y, -x, 0])
    v = TensorField(CHART, 1, 0, [x * z, 1, y])
    w = TensorField(CHART, 1, 0, [1, z, x])
    total = (
        lie_derivative(u, lie_derivative(v, w))
        + lie_derivative(v, lie_derivative(w, u))
        + lie_derivative(w, lie_derivative(u, v))
    )
    assert total.is_zero()


def test_lie_derivative_of_function_free_bracket():
    # L_v w = [v, w] on vector fields: [v, w]^i = v^j d_j w^i - w^j d_j v^i
    vc = [x, y * z, CTX.element(1)]
    wc = [z, CTX.element(0), x * y]
    v = TensorField(CHART, 1, 0, vc)
    w = TensorField(CHART, 1, 0, wc)
    bracket = [
        sum(vc[j] * CTX.partial_element(wc[i], j) - wc[j] * CTX.partial_element(vc[i], j) for j in range(3))
        for i in range(3)
    ]
    assert (lie_derivative(v, w) - TensorField(CHART, 1, 0, bracket)).is_zero()


def _five_dim_metric():
    ctx = ScalarContext(tuple(f"u{i}" for i in range(5)), ())
    u = [ctx.coordinate(i) for i in range(5)]
    rows = [[0] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = (-1) ** i + (i == 2) * u[0] * u[1]
        if i < 4:
            rows[i][i + 1] = rows[i + 1][i] = u[i] + i
    rows[0][4] = rows[4][0] = 2
    return TensorField(Chart(ctx, (0,) * 5), 0, 2, rows)


def _generator_metric():
    ctx = ScalarContext(("x", "y", "z"), (GeneratorDecl("E", 2, 1),))
    E, x = ctx.variable("E"), ctx.coordinate(0)
    rows = [[E, x, 0], [x, -1, E / (1 + x**2)], [0, E / (1 + x**2), E**2 - x]]
    return TensorField(Chart(ctx, (0, 0, 0)), 0, 2, rows)


def test_metric_inverse_exact():
    for g in (_random_metric(random.Random(17)), _five_dim_metric(), _generator_metric()):
        n = g.n
        ginv = metric_inverse(g)
        assert (ginv.r, ginv.s) == (2, 0)
        for i in range(n):
            for j in range(n):
                val = sp.cancel(sum(ginv.array[i, k] * g.array[k, j] for k in range(n)))
                assert val == (1 if i == j else 0)


@pytest.mark.parametrize(
    "rows",
    [[[1, x, 0], [x, x**2, 0], [0, 0, 1]], [[1, 2, 3], [2, 4, 6], [0, 1, y]], [[0, 0, 0], [0, 1, 0], [0, 0, 1]]],
    ids=["rank-2", "proportional-rows", "zero-row"],
)
def test_singular_metric_raises(rows):
    with pytest.raises(SingularMetricError):
        metric_inverse(_metric(rows))


def test_signature_lorentzian():
    g = _metric([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert signature_at(g) == (2, 1)


def test_scalar_curvature_sphere_like():
    # metric dx^2 + sin^2-free analogue: conformal factor (1+ (x^2+y^2+z^2)/4)^-2
    # use a simpler exact check: flat metric has r = 0
    g = _metric([[1, 0, 0], [0, -1, 0], [0, 0, 1]])
    R = riemann(christoffel(g))
    assert R.is_zero()
    S = ricci_tensor(R)
    assert scalar_curvature(S, g).is_zero()


def test_finite_difference_partials():
    rng = random.Random(23)
    f = x**2 * y + z**3 / 2
    for _ in range(10):
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
        for c in range(3):
            step = Fraction(1, 10**6)
            up = list(pt)
            dn = list(pt)
            up[c] += step
            dn[c] -= step
            fd = (exact_value(CTX, f, tuple(up)) - exact_value(CTX, f, tuple(dn))) / (2 * step)
            exact = exact_value(CTX, CTX.partial_element(f, c), tuple(pt))
            denom = max(1.0, abs(float(exact)))
            assert abs(float(fd - exact)) / denom < 1e-6


# --------------------------------------------------------------------
# Components against sympy's dense arrays


# an adapted chart's tensors are mostly zero: draw dense, mostly-zero and
# all-zero arrays
_DENSITIES = [
    st.integers(-3, 3),
    st.sampled_from([0] * 6 + [-2, -1, 1, 2]),
    st.just(0),
]


@st.composite
def _component_pairs(draw):
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(0, 4))

    def entries():
        values = draw(st.sampled_from(_DENSITIES))
        return draw(st.lists(values, min_size=n**rank, max_size=n**rank))

    return n, rank, entries(), entries()


def _ground(vals) -> list:
    return [FIELD.coerce(v) for v in vals]


def _dense(n, rank, vals, zero=FIELD.zero) -> Components:
    """Components of the n**rank entries vals in row-major order."""
    vals = list(vals)
    assert len(vals) == n**rank
    keys = itertools.product(range(n), repeat=rank)
    return Components(n, rank, {idx: v for idx, v in zip(keys, vals) if v}, zero)


# a scalar as a field element and as the sympy reference
_SCALARS = [(2, 2), (-3, -3), (Fraction(1, 2), sp.Rational(1, 2)), (CTX.variable("x"), X)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_component_pairs(), st.sampled_from(_SCALARS))
def test_components_match_sympy_arrays(case, scalar):
    n, rank, a_vals, b_vals = case
    c, C = scalar
    shape = (n,) * rank
    a, b = _dense(n, rank, _ground(a_vals)), _dense(n, rank, _ground(b_vals))
    A, B = (sp.ImmutableDenseNDimArray(vals, shape) for vals in (a_vals, b_vals))
    indices = list(itertools.product(range(n), repeat=rank))

    def flat(oracle):
        return tuple(oracle[i] for i in indices)

    def exprs(comps):
        return tuple(e.as_expr() for e in comps)

    assert [a[i].as_expr() for i in indices] == list(flat(A))
    if rank == 1:
        assert [a[i].as_expr() for i in range(n)] == [A[i] for i in range(n)]
    assert tuple(e.as_expr() for e in a) == flat(A)  # iteration is row-major
    assert (a == b) == (a_vals == b_vals)
    with pytest.raises(ValenceError):  # applyfunc maps the nonzero entries only
        a.applyfunc(lambda e: e**2 - 1)
    cases = [
        (a + b, A + B),
        (a - b, A - B),
        (-a, -A),
        (a * c, A * C),
        (c * a, C * A),
        (a / c, A / C),
        (a.applyfunc(lambda e: 3 * e), 3 * A),
    ]
    for got, want in cases:
        want = flat(want)
        assert (got.n, got.rank, exprs(got)) == (n, rank, want)
        # the nonzero map against the dense reference
        assert got.is_zero() == (not any(want))
        witness = got.first_nonzero()
        first = next(((i, w) for i, w in zip(indices, want) if w), None)
        assert (witness and (witness[0], witness[1].as_expr())) == first
        dense = _dense(n, rank, tuple(got))
        assert got == dense and hash(got) == hash(dense)


def test_components_divided_by_the_zero_scalar_raise():
    a = _dense(2, 1, _ground([1, 2]))
    for zero in (0, FIELD.zero):
        with pytest.raises(DivisionByZeroFieldError):
            a / zero


def test_components_shape_mismatch_raises():
    a = _dense(3, 2, _ground(range(9)))
    others = [
        _dense(3, 1, _ground(range(3))),  # other rank
        _dense(2, 2, _ground(range(4))),  # other dimension
        [[0] * 3] * 3,  # not Components
    ]
    for other in others:
        with pytest.raises(ValenceError):
            a + other
        with pytest.raises(ValenceError):
            a - other
    with pytest.raises(ValenceError):  # a sympy expression is not a component
        Components.of([X, 1])
    with pytest.raises(ValenceError):  # no field element to compute in
        Components.of([[1, 0], [0, 1]])
    with pytest.raises(TypeError):  # * and / take a scalar, not an array
        a * a
    # ints next to a field element are lifted into its field
    mixed = Components.of([[x, 0], [0, 1]])
    two = Components.of([[2 * x, CTX.element(0)], [CTX.element(0), CTX.element(2)]])
    assert mixed + mixed == two and 2 * mixed == two and two - mixed == mixed / 1


def test_tensor_field_arithmetic_returns_components():
    t = TensorField(CHART, 1, 1, [[x, 0, 1], [0, y, 0], [z, 0, 2]])
    c = Components.of([[1, x, 0], [0, 0, y], [0, z, 0]])
    got = [t + c, c + t, t - c, c - t, -t, t * x, x * t, t / 2]
    want = [
        [[x + 1, x, 1], [0, y, y], [z, z, 2]],
        [[x + 1, x, 1], [0, y, y], [z, z, 2]],
        [[x - 1, -x, 1], [0, y, -y], [z, -z, 2]],
        [[1 - x, x, -1], [0, -y, y], [-z, z, -2]],
        [[-x, 0, -1], [0, -y, 0], [-z, 0, -2]],
        [[x * x, 0, x], [0, x * y, 0], [x * z, 0, 2 * x]],
        [[x * x, 0, x], [0, x * y, 0], [x * z, 0, 2 * x]],
        [[x / 2, 0, Fraction(1, 2)], [0, y / 2, 0], [z / 2, 0, 1]],
    ]
    for result, rows in zip(got, want):
        assert type(result) is Components
        assert result == TensorField(CHART, 1, 1, rows)
    # a TensorField is Components: equal entries are equal, whatever the valence
    assert t == _dense(3, 2, tuple(t)) and TensorField(CHART, 0, 2, t) == t


def test_components_of_two_fields_do_not_mix():
    gctx = ScalarContext(("x", "y", "z"), (GeneratorDecl("E", 2, 1),))
    E = gctx.variable("E")
    t = TensorField(CHART, 1, 0, [x, y, z])
    u = TensorField(Chart(gctx, (0, 0, 0)), 1, 0, [E, 0, 1])
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(ContextMismatchError):
            op(t, u)
        with pytest.raises(ContextMismatchError):
            op(u, t)
    for op in (lambda: t * E, lambda: E * t, lambda: t / E):
        with pytest.raises(ContextMismatchError):
            op()
    # contract meets the two fields the same way in either order, with the
    # other field's operand in any position
    for a, b in ((t, u), (u, t)):
        with pytest.raises(ContextMismatchError):
            contract("i,i->", a, b)
    for ops in ((u, t, t), (t, u, t), (t, t, u)):
        with pytest.raises(ContextMismatchError):
            contract("i,j,k->ijk", *ops)
    # TensorField lifts only into a chart whose field contains the entries'
    with pytest.raises(ContextMismatchError):
        TensorField(CHART, 1, 0, u)
    # field_of_names is a bounded cache, so two FracField objects may stand
    # for one field: elements meet by their symbols, not by identity
    other = FracField(FIELD.symbols)
    assert FIELD is field_of_names(FIELD.symbols) and other is not FIELD
    ox, oy, _ = other.gens
    c = Components.of([ox, oy, 1])
    assert t + c == t - c + 2 * c == Components.of([2 * x, 2 * y, z + 1])
    assert c * x == Components.of([x * x, x * y, x]) and t / ox == t / x
    assert contract("i,i->", t, c) == contract("i,i->", c, t) == x * x + y * y + z
    assert TensorField(CHART, 1, 0, c) == Components.of([x, y, 1])


def test_contract_and_arithmetic_check_fields_once_per_operand(monkeypatch, analyses):
    # every entry of a Components is an element of one field, so contract
    # checks each operand's field once and entrywise arithmetic leaves the
    # check to Frac's operators: no FracField.coerce call per entry
    an = analyses("five_dim_non_pk_leaves")
    R, xi, g = an.R, an.structure.xi, an.structure.g
    calls = []
    coerce = FracField.coerce
    monkeypatch.setattr(FracField, "coerce", lambda self, v: calls.append(v) or coerce(self, v))
    contract("imab,m,in->nab", R, xi, g)
    assert len(calls) <= 3
    calls.clear()
    R - R
    assert len(calls) <= 2


def test_sparse_arithmetic_and_partials_touch_nonzero_entries_only(monkeypatch, analyses):
    # five_dim_alpha_z's R has 24 nonzero entries of 625: R - R subtracts
    # only where an entry of either side is nonzero, and partials derives
    # only phi's non-constant nonzero entries
    an = analyses("five_dim_alpha_z")
    R, phi = an.R, an.structure.phi
    subs = []
    sub = Frac.__sub__
    monkeypatch.setattr(Frac, "__sub__", lambda a, b: subs.append(a) or sub(a, b))
    assert (R - R).is_zero()
    assert len(subs) == len(R.entries) < R.n**4
    derived = []
    ctx = an.chart.context
    partial_element = ctx.partial_element
    monkeypatch.setattr(ctx, "partial_element", lambda f, c: derived.append(f) or partial_element(f, c))
    d = partials(phi)
    moving = [e for e in phi.entries.values() if not e.is_constant()]
    assert len(derived) == phi.n * len(moving) < phi.n**3
    # the dense definition: every entry's partials, in row-major order
    assert tuple(d) == tuple(partial_element(e, c) for e in phi for c in range(phi.n))


def test_riemann_reduces_each_independent_entry_once(monkeypatch, analyses):
    # R[l, i, j, k] with i < j is one fraction_sum of its d(Gamma) and
    # Gamma.Gamma terms; i > j is its negation and i = j zero, so the
    # field reduces at most n * n(n-1)/2 * n entries
    for name in ("example_e", "five_dim_alpha_z"):
        conn = analyses(name).conn
        n = conn.n
        calls = []
        reduce = field.reduce
        monkeypatch.setattr(field, "reduce", lambda *args: calls.append(args) or reduce(*args))
        R = riemann(conn)
        monkeypatch.setattr(field, "reduce", reduce)
        assert 0 < len(calls) <= n * n * (n - 1) // 2 * n
        assert all(not R[l, i, i, k] for l in range(n) for i in range(n) for k in range(n))


def test_each_gcd_once_and_no_derivation_of_a_constant(monkeypatch, entries):
    # five_dim_alpha_z's analysis asks for 129 gcds of multi-term
    # polynomials but only 11 distinct ones: the ring's memo computes each
    # once (heugcd recurses, so only the outermost call counts)
    defn = entries["five_dim_alpha_z"].definition()
    monkeypatch.setattr(defn.context().field.ring, "gcd_memo", {})
    calls, depth = [], [0]
    heugcd = field.heugcd

    def counted(f, g):
        calls.append(depth[0] == 0)
        depth[0] += 1
        try:
            return heugcd(f, g)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(field, "heugcd", counted)
    run_analyze(defn)
    assert 0 < calls.count(True) <= 11
    # the partials of a constant tensor are the field's zero, derived from
    # nothing
    derived = []
    diff_poly = ScalarContext._diff_poly
    monkeypatch.setattr(ScalarContext, "_diff_poly", staticmethod(lambda p, terms: derived.append(p) or diff_poly(p, terms)))
    t = TensorField(CHART, 1, 1, [[1, 0, Fraction(1, 2)], [0, -3, 0], [2, 0, 1]])
    d = tuple(partials(t))
    assert len(d) == 27 and not any(d) and derived == []


def test_tensor_field_lifts_another_charts_components():
    # conformal_deform moves a structure into a chart with one more
    # generator: TensorField(chart2, r, s, t) lifts t's entries into its field
    gctx = ScalarContext(("x", "y", "z"), (GeneratorDecl("E", 2, 1),))
    chart2 = Chart(gctx, (0, 0, 0))
    t = TensorField(CHART, 1, 1, [[x, 0, 1], [0, y * z, 0], [z / (1 + x**2), 0, 2]])
    moved = TensorField(chart2, 1, 1, t)
    assert moved.chart is chart2 and (moved.r, moved.s) == (1, 1)
    assert all(e.field is gctx.field for e in moved)
    gx, gy, gz = (gctx.coordinate(i) for i in range(3))
    assert moved == TensorField(chart2, 1, 1, [[gx, 0, 1], [0, gy * gz, 0], [gz / (1 + gx**2), 0, 2]])
    assert moved != t  # the same fractions, in two fields
    E = gctx.variable("E")
    assert E * moved == TensorField(chart2, 1, 1, [[E * gx, 0, E], [0, E * gy * gz, 0], [E * gz / (1 + gx**2), 0, 2 * E]])


@pytest.mark.parametrize(
    "spec, operands",
    [
        ("ik,kj->ij", ("PHI", "PHI")),
        ("ij,j->i", ("PHI", "XI")),
        ("ii->", ("PHI",)),
        ("i,j->ij", ("XI", "XI")),
    ],
)
def test_contract_reads_a_tensor_field_as_its_components(spec, operands):
    tensors = [{"PHI": PHI, "XI": XI}[name] for name in operands]
    bare = [Components(t.n, t.rank, t.entries, t.zero) for t in tensors]
    assert contract(spec, *tensors) == contract(spec, *bare)


def test_equal_components_hash_equal():
    vx, vy, vz = (CTX.variable(n) for n in "xyz")
    vals = [vx, FIELD.zero, vy * vz, FIELD.coerce(Fraction(1, 2))]
    a = _dense(2, 2, vals)
    b = Components.of([[x, CTX.element(0)], [z * y, CTX.element(Fraction(1, 2))]])
    assert a == b and hash(a) == hash(b)
    assert a != _dense(4, 1, vals)
    assert a != _dense(2, 2, vals[::-1])
    assert hash(TensorField(CHART, 1, 0, [x, y, z])) == hash(TensorField(CHART, 1, 0, [x, y, z]))


# --------------------------------------------------------------------
# contract against sympy's nested sums of the operands' values at the
# rational points POINTS

XI = TensorField(CHART, 1, 0, [x, 1, y * z])
PHI = TensorField(CHART, 1, 1, [[0, 1, -y], [1, 0, -x], [0, 0, 0]])
RNG3 = range(3)


def test_contract_r_xi(seed11):
    got = contract("imab,m->iab", seed11[1], XI).applyfunc(Frac.as_expr)
    for p in POINTS:
        R, xi = _at(seed11[1], p), _at(XI, p)
        want = [
            [[sum(R[i, m, a, b] * xi[m] for m in RNG3) for b in RNG3] for a in RNG3]
            for i in RNG3
        ]
        assert _at(got, p) == sp.ImmutableDenseNDimArray(want)


def test_contract_metric_of_phi(seed11):
    # the phi-g stage sums k and is reduced before phi joins
    got = contract("ki,kl,lj->ij", PHI, seed11[0], PHI).applyfunc(Frac.as_expr)
    for p in POINTS:
        g, phi = _at(seed11[0], p), _at(PHI, p)
        want = [
            [
                sum(phi[k, i] * g[k, l] * phi[l, j] for k in RNG3 for l in RNG3)
                for j in RNG3
            ]
            for i in RNG3
        ]
        assert _at(got, p) == sp.ImmutableDenseNDimArray(want)


def test_contract_outer_product_and_permutation(seed11):
    outer = contract("i,ab->iab", XI, seed11[0]).applyfunc(Frac.as_expr)
    swapped = contract("i,ba->iab", XI, seed11[0]).applyfunc(Frac.as_expr)
    for p in POINTS:
        g, xi = _at(seed11[0], p), _at(XI, p)
        want = [[[xi[i] * g[a, b] for b in RNG3] for a in RNG3] for i in RNG3]
        assert _at(outer, p) == sp.ImmutableDenseNDimArray(want)
        want = [[[xi[i] * g[b, a] for b in RNG3] for a in RNG3] for i in RNG3]
        assert _at(swapped, p) == sp.ImmutableDenseNDimArray(want)
    # a permutation moves entries and computes nothing
    R = seed11[1]
    perm = [
        [[[R[k, i, b, a] for k in RNG3] for b in RNG3] for a in RNG3] for i in RNG3
    ]
    assert contract("kiba->iabk", seed11[1]) == Components.of(perm)


def test_contract_full_contraction_to_scalar(seed11):
    got = contract("a,ba,bc,c->", XI, PHI, seed11[0], XI).as_expr()
    for p in POINTS:
        g, phi, xi = _at(seed11[0], p), _at(PHI, p), _at(XI, p)
        want = sum(
            xi[a] * phi[b, a] * g[b, c] * xi[c]
            for a in RNG3
            for b in RNG3
            for c in RNG3
        )
        assert got.xreplace(p) == want
    assert contract("ii->", PHI) == 0


def _naive(spec, ops, n):
    """The einsum as nested sums over integer arrays: a dict from output
    index to value."""
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    labels = sorted(set("".join(inputs)))
    acc = {}
    for vals in itertools.product(range(n), repeat=len(labels)):
        at = dict(zip(labels, vals))
        term = 1
        for op, lab in zip(ops, inputs):
            term *= op[tuple(at[c] for c in lab)]
        key = tuple(at[c] for c in output)
        acc[key] = acc.get(key, 0) + term
    return acc


@st.composite
def _contractions(draw):
    n = draw(st.integers(1, 3))
    labels = [draw(st.text("abcd", min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    used = sorted(set("".join(labels)))
    output = draw(st.permutations(used))[: draw(st.integers(0, len(used)))]
    ops = []  # integer arrays
    for lab in labels:
        vals = draw(st.lists(st.integers(-2, 2), min_size=n ** len(lab), max_size=n ** len(lab)))
        ops.append(_dense(n, len(lab), vals, 0))
    return ",".join(labels) + "->" + "".join(output), ops, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_contractions())
def test_contract_matches_nested_sums_on_integer_arrays(case):
    spec, ops, n = case
    want = _naive(spec, ops, n)
    got = contract(spec, *(_dense(op.n, op.rank, _ground(op)) for op in ops))
    output = spec.split("->")[1]
    if not output:
        assert isinstance(got, Frac) and got == want.get((), 0)
        return
    keys = itertools.product(range(n), repeat=len(output))
    assert (got.n, got.rank) == (n, len(output))
    assert tuple(got) == tuple(FIELD.coerce(want.get(k, 0)) for k in keys)


@pytest.mark.parametrize(
    "spec, ops",
    [
        ("ij,j", (PHI, XI)),  # no output part
        ("ij->i", (PHI, XI)),  # fewer labels than operands
        ("i1,1->i", (PHI, XI)),  # labels must be letters
        ("ij,j->k", (PHI, XI)),  # output label never summed from an input
        ("ij,j->ii", (PHI, XI)),  # repeated output label
        ("ijk,j->i", (PHI, XI)),  # rank does not match the labels
        ("ij,j->i", (PHI, _dense(2, 1, _ground([1, 2])))),  # dimensions differ
        ("ij,j->i", ([[1, 0], [0, 1]], [1, 2])),  # no field element to compute in
    ],
)
def test_contract_rejects_bad_specs(spec, ops):
    with pytest.raises(ValenceError):
        contract(spec, *ops)


# --------------------------------------------------------------------
# d and wedge: alternating sums through contract, against sympy


@st.composite
def _forms(draw):
    """(chart, a 1-form, an antisymmetric 2-form) in dimension 3 or 5 with
    small rational-function entries."""
    n = draw(st.sampled_from([3, 5]))
    ctx = ScalarContext(tuple(f"x{i}" for i in range(n)), ())
    chart = Chart(ctx, (Fraction(0),) * n)
    coords = [ctx.coordinate(i) for i in range(n)]
    index = st.integers(0, n - 1)

    def entry():
        f = ctx.element(draw(st.integers(-2, 2)))
        for _ in range(draw(st.integers(0, 2))):
            f = f + draw(st.integers(-3, 3)) * coords[draw(index)] * coords[draw(index)]
        if draw(st.booleans()):
            f = f / (1 + coords[draw(index)] ** 2)
        return f

    eta = TensorField(chart, 0, 1, [entry() for _ in range(n)])
    rows = [[ctx.element(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = entry()
        rows[j][i] = -rows[i][j]
    return chart, eta, TensorField(chart, 0, 2, rows)


def _same(engine, want) -> bool:
    """engine == want exactly: the numerator of their difference over a
    common denominator expands to 0."""
    return sp.expand(sp.fraction(sp.together(engine.as_expr() - want))[0]) == 0


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(_forms())
def test_partials_d_and_wedge_match_sympy_sums(case):
    chart, eta, Phi = case
    n = chart.dim
    coords = symbols(chart.context)
    e, P = eta.array, Phi.array
    # the forms are antisymmetric, and so are their partials in the form's
    # slots and d and wedge in every slot: increasing indices there cover
    # every entry
    pairs = list(itertools.combinations(range(n), 2))
    dP = partials(Phi)
    for (i, j), c in itertools.product(pairs, range(n)):
        assert _same(dP[i, j, c], sp.diff(P[i, j], coords[c]))
    deta = exterior_derivative(eta)
    for i, j in pairs:
        assert _same(deta[i, j], sp.diff(e[j], coords[i]) - sp.diff(e[i], coords[j]))
    dPhi = exterior_derivative(Phi)
    ePhi = wedge(eta, Phi)
    assert (dP + contract("ijc->jic", dP)).is_zero()
    assert (deta + contract("ij->ji", deta)).is_zero()
    for form in (dPhi, ePhi):
        assert (form + contract("ijk->jik", form)).is_zero()
        assert (form + contract("ijk->ikj", form)).is_zero()
    for idx in itertools.combinations(range(n), 3):
        rest = [idx[:j] + idx[j + 1 :] for j in range(3)]
        d_sum = sum((-1) ** j * sp.diff(P[rest[j]], coords[idx[j]]) for j in range(3))
        w_sum = sum((-1) ** j * e[idx[j]] * P[rest[j]] for j in range(3))
        assert _same(dPhi[idx], d_sum)
        assert _same(ePhi[idx], w_sum)


# --------------------------------------------------------------------
# nabla and L_v of every valence, against sympy


@st.composite
def _fields(draw, r, s):
    """(chart, an (r,s) field, a vector field v, connection coefficients) in
    dimension 3 whose entries are zero or polynomials of degree at most 2
    with rational coefficients; the coefficients are not symmetric, so a
    swapped index shows."""
    n = 3
    ctx = ScalarContext(tuple(f"x{i}" for i in range(n)), ())
    chart = Chart(ctx, (Fraction(0),) * n)
    coords = [ctx.coordinate(i) for i in range(n)]
    index = st.integers(0, n - 1)

    def entries(rank):
        out = []
        for _ in range(n**rank):
            f = ctx.element(0)
            for _ in range(draw(st.integers(0, 2))):  # monomials of degree 0..2
                term = ctx.element(Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2))))
                for _ in range(draw(st.integers(0, 2))):
                    term = term * coords[draw(index)]
                f = f + term
            out.append(f)
        return _dense(n, rank, out, ctx.field.zero)

    return (
        chart,
        TensorField(chart, r, s, entries(r + s)),
        TensorField(chart, 1, 0, entries(1)),
        TensorField(chart, 1, 2, entries(3)),
    )


VALENCES = [(r, k - r) for k in (1, 2, 3) for r in range(k + 1)]


@pytest.mark.parametrize("r, s", VALENCES, ids=[f"{r}{s}" for r, s in VALENCES])
@settings(max_examples=10, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_covariant_and_lie_derivatives_match_sympy_sums(r, s, data):
    chart, t, v, conn = data.draw(_fields(r, s))
    coords = symbols(chart.context)
    nabla = covariant_derivative(t, conn)
    lie = lie_derivative(v, t)
    # the nested sums are taken in sympy's ring QQ[x0, x1, x2], which
    # decides equality exactly and much sooner than expand on expressions
    K = sp.QQ[coords]
    T, V, G = (x.array.applyfunc(K.from_sympy) for x in (t, v, conn))
    indices = list(itertools.product(RNG3, repeat=r + s))
    # dT[idx][c] = d_c T[idx] and dV[a][m] = d_m v^a, by sp.diff
    dT = {i: [K.from_sympy(sp.diff(t.array[i], c)) for c in coords] for i in indices}
    dV = [[K.from_sympy(sp.diff(v.array[a], c)) for c in coords] for a in RNG3]

    def moved(idx, p, m):
        return idx[:p] + (m,) + idx[p + 1 :]

    for idx in indices:
        for c in RNG3:
            want = dT[idx][c]
            for p, a in enumerate(idx):
                if p < r:
                    want += sum(G[a, c, m] * T[moved(idx, p, m)] for m in RNG3)
                else:
                    want -= sum(G[m, c, a] * T[moved(idx, p, m)] for m in RNG3)
            assert K.from_sympy(nabla[idx + (c,)].as_expr()) == want
        want = sum(V[c] * dT[idx][c] for c in RNG3)
        for p, a in enumerate(idx):
            if p < r:
                want -= sum(dV[a][m] * T[moved(idx, p, m)] for m in RNG3)
            else:
                want += sum(dV[m][a] * T[moved(idx, p, m)] for m in RNG3)
        assert K.from_sympy(lie[idx].as_expr()) == want
