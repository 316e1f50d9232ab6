import itertools
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from paracosym.errors import ValenceError
from paracosym.geometry import (
    Chart,
    Components,
    ConnectionCoefficients,
    TensorField,
    bracket,
    christoffel,
    contract,
    covariant_derivative,
    exterior_derivative,
    lie_derivative,
    metric_inverse,
    riemann,
    ricci_tensor,
    scalar_curvature,
    signature_at,
    wedge,
)
from paracosym.classify import canon
from paracosym.scalars import ScalarContext

CTX = ScalarContext(("x", "y", "z"), ())
CHART = Chart(CTX, (Fraction(0), Fraction(0), Fraction(0)))
X, Y, Z = (CTX.coord_symbols[i] for i in range(3))


def _metric(rows):
    return TensorField(CHART, 0, 2, rows)


def _random_metric(rng):
    """Random symmetric perturbation of diag(1, -1, 1), degree <= 2."""
    def poly():
        return sp.Rational(rng.randint(-2, 2), rng.randint(1, 3)) * sp.Rational(1, 4) * (
            rng.choice([X, Y, Z]) * rng.choice([1, X, Y, Z])
        )

    base = [[sp.Integer(0)] * 3 for _ in range(3)]
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
    nabg = covariant_derivative(g, conn)
    assert nabg.is_zero()
    for k in range(3):
        for i in range(3):
            for j in range(3):
                assert sp.cancel(conn[k, i, j] - conn[k, j, i]) == 0


@pytest.fixture(scope="module")
def seed11():
    """The seed-11 random metric and its curvature, computed once."""
    g = _random_metric(random.Random(11))
    return g, riemann(christoffel(g))


def test_christoffel_and_riemann_match_expr_sums(seed11):
    # the same formulas as nested sums over the sympy metric, each entry
    # canonicalised once; the field kernels must give the same expressions
    g, R = seed11
    gm = sp.Matrix(3, 3, lambda i, j: g.array[i, j])
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
    conn = christoffel(g)
    for k, i, j in itertools.product(RNG3, repeat=3):
        assert conn[k, i, j] == gamma[k][i][j]
    for l, i, j, k in itertools.product(RNG3, repeat=4):
        want = canon(
            sp.diff(gamma[l][j][k], coords[i])
            - sp.diff(gamma[l][i][k], coords[j])
            + sum(gamma[l][i][m] * gamma[m][j][k] - gamma[l][j][m] * gamma[m][i][k] for m in RNG3)
        )
        assert R.array[l, i, j, k] == want


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
    f = CTX.coordinate(0) * CTX.coordinate(1) + CTX.coordinate(2) ** 3
    df = TensorField(CHART, 0, 1, [f.partial(c).expr for c in range(3)])
    ddf = exterior_derivative(df)
    assert ddf.is_zero()
    omega = TensorField(CHART, 0, 1, [X * Y, Y * Z, X + Z**2])
    ddo = exterior_derivative(exterior_derivative(omega))
    assert ddo.is_zero()


def test_wedge_antisymmetry():
    a = TensorField(CHART, 0, 1, [X, sp.Integer(0), sp.Integer(1)])
    b = TensorField(CHART, 0, 1, [sp.Integer(0), Y, sp.Integer(2)])
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert (ab + ba).is_zero()
    assert wedge(a, a).is_zero()


def test_bracket_jacobi_identity():
    u = TensorField(CHART, 1, 0, [Y, -X, sp.Integer(0)])
    v = TensorField(CHART, 1, 0, [X * Z, sp.Integer(1), Y])
    w = TensorField(CHART, 1, 0, [sp.Integer(1), Z, X])
    total = (
        bracket(u, bracket(v, w))
        + bracket(v, bracket(w, u))
        + bracket(w, bracket(u, v))
    )
    assert total.is_zero()


def test_lie_derivative_of_function_free_bracket():
    # L_v w = [v, w] on vector fields
    v = TensorField(CHART, 1, 0, [X, Y * Z, sp.Integer(1)])
    w = TensorField(CHART, 1, 0, [Z, sp.Integer(0), X * Y])
    assert (lie_derivative(v, w) - bracket(v, w)).is_zero()


def test_metric_inverse_exact():
    rng = random.Random(17)
    g = _random_metric(rng)
    ginv = metric_inverse(g)
    for i in range(3):
        for j in range(3):
            val = sp.cancel(
                sum(ginv.array[i, k] * g.array[k, j] for k in range(3))
            )
            assert val == (1 if i == j else 0)


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
    f = CTX.coordinate(0) ** 2 * CTX.coordinate(1) + CTX.coordinate(2) ** 3 / 2
    for _ in range(10):
        pt = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(3)]
        for c in range(3):
            step = Fraction(1, 10**6)
            up = list(pt)
            dn = list(pt)
            up[c] += step
            dn[c] -= step
            fd = (f.eval(tuple(up)) - f.eval(tuple(dn))) / (2 * sp.Rational(step))
            exact = f.partial(c).eval(tuple(pt))
            denom = max(1.0, abs(float(exact)))
            assert abs(float(fd - exact)) / denom < 1e-6


# --------------------------------------------------------------------
# Components against sympy's dense arrays


@st.composite
def _component_pairs(draw):
    n = draw(st.integers(1, 5))
    rank = draw(st.integers(0, 4))
    entries = st.lists(st.integers(-3, 3), min_size=n**rank, max_size=n**rank)
    return n, rank, draw(entries), draw(entries)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_component_pairs(), st.sampled_from([2, -3, sp.Rational(1, 2), X]))
def test_components_match_sympy_arrays(case, c):
    n, rank, a_vals, b_vals = case
    shape = (n,) * rank
    a, b = (Components(n, rank, [sp.Integer(v) for v in vals]) for vals in (a_vals, b_vals))
    A, B = (sp.ImmutableDenseNDimArray(vals, shape) for vals in (a_vals, b_vals))
    indices = list(itertools.product(range(n), repeat=rank))

    def flat(oracle):
        return tuple(oracle[i] for i in indices)

    assert [a[i] for i in indices] == list(flat(A))
    if rank == 1:
        assert [a[i] for i in range(n)] == [A[i] for i in range(n)]
    assert tuple(a) == flat(A)  # iteration is row-major
    f = lambda e: e**2 - 1
    # sympy's applyfunc fails on a rank-0 array
    applied = A.applyfunc(f) if rank else sp.ImmutableDenseNDimArray([f(A[()])], ())
    cases = [
        (a + b, A + B),
        (a - b, A - B),
        (-a, -A),
        (a * c, A * c),
        (c * a, c * A),
        (a / c, A / c),
        (a.applyfunc(f), applied),
    ]
    for got, want in cases:
        assert (got.n, got.rank, got.flat) == (n, rank, flat(want))


def test_components_shape_mismatch_raises():
    a = Components(3, 2, [sp.Integer(k) for k in range(9)])
    others = [
        Components(3, 1, [sp.Integer(k) for k in range(3)]),  # other rank
        Components(2, 2, [sp.Integer(k) for k in range(4)]),  # other dimension
        [[0] * 3] * 3,  # not Components
    ]
    for other in others:
        with pytest.raises(ValenceError):
            a + other
        with pytest.raises(ValenceError):
            a - other
    with pytest.raises(ValenceError):
        Components(3, 2, [sp.Integer(0)] * 8)


def test_equal_components_hash_equal():
    vals = [X, sp.Integer(0), Y * Z, sp.Rational(1, 2)]
    a = Components(2, 2, vals)
    b = Components.of([[X, 0], [Z * Y, sp.Rational(1, 2)]])
    assert a == b and hash(a) == hash(b)
    assert a != Components(4, 1, vals)
    assert a != Components(2, 2, vals[::-1])
    assert hash(TensorField(CHART, 1, 0, [X, Y, Z])) == hash(TensorField(CHART, 1, 0, [X, Y, Z]))


# --------------------------------------------------------------------
# contract against naive nested sums

XI = TensorField(CHART, 1, 0, [X, sp.Integer(1), Y * Z])
PHI = TensorField(CHART, 1, 1, [[0, 1, -Y], [1, 0, -X], [0, 0, 0]])
RNG3 = range(3)


def test_contract_r_xi(seed11):
    # contract reduces each entry in the field; Components compares with a
    # sympy array by value, so it must equal the raw nested sums as functions
    R, xi = seed11[1].array, XI.array
    want = [
        [[sum(R[i, m, a, b] * xi[m] for m in RNG3) for b in RNG3] for a in RNG3]
        for i in RNG3
    ]
    assert contract("imab,m->iab", seed11[1], XI) == sp.ImmutableDenseNDimArray(want)


def test_contract_metric_of_phi(seed11):
    # the phi-g stage sums k and is reduced before phi joins
    g, phi = seed11[0].array, PHI.array
    want = [
        [
            sum(phi[k, i] * g[k, l] * phi[l, j] for k in RNG3 for l in RNG3)
            for j in RNG3
        ]
        for i in RNG3
    ]
    got = TensorField(CHART, 0, 2, contract("ki,kl,lj->ij", PHI, seed11[0], PHI))
    assert got.array == TensorField(CHART, 0, 2, want).array


def test_contract_outer_product_and_permutation(seed11):
    g, R, xi = seed11[0].array, seed11[1].array, XI.array
    outer = [[[xi[i] * g[a, b] for b in RNG3] for a in RNG3] for i in RNG3]
    assert contract("i,ab->iab", XI, seed11[0]) == sp.ImmutableDenseNDimArray(outer)
    swapped = [[[xi[i] * g[b, a] for b in RNG3] for a in RNG3] for i in RNG3]
    assert contract("i,ba->iab", XI, seed11[0]) == sp.ImmutableDenseNDimArray(swapped)
    perm = [
        [[[R[k, i, b, a] for k in RNG3] for b in RNG3] for a in RNG3] for i in RNG3
    ]
    assert contract("kiba->iabk", seed11[1]) == sp.ImmutableDenseNDimArray(perm)


def test_contract_full_contraction_to_scalar(seed11):
    g, phi, xi = seed11[0].array, PHI.array, XI.array
    want = sum(
        xi[a] * phi[b, a] * g[b, c] * xi[c]
        for a in RNG3
        for b in RNG3
        for c in RNG3
    )
    got = contract("a,ba,bc,c->", XI, PHI, seed11[0], XI)
    assert sp.cancel(sp.together(got - want)) == 0
    assert contract("ii->", PHI) == 0


def _naive(spec, ops, n):
    inputs, output = spec.split("->")
    inputs = inputs.split(",")
    labels = sorted(set("".join(inputs)))
    acc = {}
    for vals in itertools.product(range(n), repeat=len(labels)):
        at = dict(zip(labels, vals))
        term = sp.Integer(1)
        for op, lab in zip(ops, inputs):
            term *= op[tuple(at[c] for c in lab)]
        key = tuple(at[c] for c in output)
        acc[key] = acc.get(key, 0) + term
    if not output:
        return acc.get((), 0)
    keys = itertools.product(range(n), repeat=len(output))
    return sp.ImmutableDenseNDimArray([acc.get(k, 0) for k in keys], (n,) * len(output))


@st.composite
def _contractions(draw):
    n = draw(st.integers(1, 3))
    labels = [draw(st.text("abcd", min_size=1, max_size=3)) for _ in range(draw(st.integers(1, 3)))]
    used = sorted(set("".join(labels)))
    output = draw(st.permutations(used))[: draw(st.integers(0, len(used)))]
    ops = []
    for lab in labels:
        vals = draw(st.lists(st.integers(-2, 2), min_size=n ** len(lab), max_size=n ** len(lab)))
        ops.append(sp.ImmutableDenseNDimArray(vals, (n,) * len(lab)))
    return ",".join(labels) + "->" + "".join(output), ops, n


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_contractions())
def test_contract_matches_nested_sums_on_integer_arrays(case):
    spec, ops, n = case
    assert contract(spec, *ops) == _naive(spec, ops, n)


@pytest.mark.parametrize(
    "spec, ops",
    [
        ("ij,j", (PHI, XI)),  # no output part
        ("ij->i", (PHI, XI)),  # fewer labels than operands
        ("i1,1->i", (PHI, XI)),  # labels must be letters
        ("ij,j->k", (PHI, XI)),  # output label never summed from an input
        ("ij,j->ii", (PHI, XI)),  # repeated output label
        ("ijk,j->i", (PHI, XI)),  # rank does not match the labels
        ("ij,j->i", (PHI, sp.ImmutableDenseNDimArray([1, 2]))),  # dimensions differ
    ],
)
def test_contract_rejects_bad_specs(spec, ops):
    with pytest.raises(ValenceError):
        contract(spec, *ops)
