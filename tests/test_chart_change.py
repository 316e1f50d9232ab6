"""A linear change of chart x = A x' leaves every tensorial verdict alone.

For each generator-free catalog structure (negative controls aside) and a
small integer matrix A with det A != 0, the test writes the structure in
the chart x' with sympy: xi' = A^-1 xi(A x'), eta' = eta(A x') A,
phi' = A^-1 phi(A x') A, g' = A^T g(A x') A, the base point A^-1 x_0 and
the declared alpha composed with A, and parses that definition.  The two
analyses must agree: alpha, r, S(xi, xi) and the nullity triple as
functions composed with A, and the verdicts of the identity suite,
normality, the leaves, para-Kenmotsu and the nullity fit.  The 3D
classification is left out: its adapted frame starts from a seed column,
which a chart change can move.  The 5D entries are also written in the
chart of one seeded dense A, with every entry in -2..2.
"""

import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paracosym.nullity import nullity_fit
from paracosym.parser import load_definition
from paracosym.structures import (
    AlmostParacontactStructure,
    StructureAnalysis,
    identity_suite,
    leaf_second_fundamental_form,
    para_kenmotsu_biconditional,
    parakaehler_leaves_check,
)

ENTRIES = [
    "example_e",
    "flat_product",
    "h1_rational",
    "h2_nilpotent",
    "h3_rotation",
    "sigma_nonzero",
    "five_dim_product",
    "five_dim_alpha_z",
    "five_dim_non_pk_leaves",
]


def _changed(defn, A: sp.Matrix) -> str:
    """The definition text of defn in the chart x' with x = A x'."""
    names = defn.coord_names
    coords = sp.Matrix(sp.symbols(names))
    subs = dict(zip(coords, A * coords))
    Ainv = A.inv()

    def at(f):
        return f.as_expr().xreplace(subs)

    def text(e):
        return sp.sstr(sp.cancel(e)).replace("**", "^")

    def row(v):
        return "[" + ", ".join(map(text, v)) + "]"

    def matrix(m):
        return "[" + ", ".join(row(m.row(i)) for i in range(m.rows)) + "]"

    xi = Ainv * sp.Matrix([at(f) for f in defn.xi])
    eta = sp.Matrix([[at(f) for f in defn.eta]]) * A
    phi = Ainv * sp.Matrix([[at(f) for f in r] for r in defn.phi]) * A
    g = A.T * sp.Matrix([[at(f) for f in r] for r in defn.metric]) * A
    lines = [
        "[chart]",
        f"dim = {len(names)}",
        f"coords = [{', '.join(names)}]",
        f"base_point = {row(Ainv * sp.Matrix(defn.base_point))}",
        "[structure]",
        f"xi = {row(xi)}",
        f"eta = {row(eta)}",
        f"phi = {matrix(phi)}",
        f"metric = {matrix(g)}",
    ]
    if defn.declared_alpha is not None:
        lines.append(f"alpha = {text(at(defn.declared_alpha))}")
    return "\n".join(lines) + "\n"


def _analysis(defn) -> StructureAnalysis:
    return StructureAnalysis(AlmostParacontactStructure.from_definition(defn))


def _verdicts(an: StructureAnalysis):
    """(the verdicts, the scalar functions alpha, r, S(xi, xi), kappa, mu, nu)."""
    fit = nullity_fit(an)
    leaves = leaf_second_fundamental_form(an)
    verdicts = {
        "identities": [(it.name, it.status) for it in identity_suite(an)],
        "normal": an.normality[1],
        "leaves": (parakaehler_leaves_check(an), leaves.umbilical, leaves.geodesic),
        "para_kenmotsu": para_kenmotsu_biconditional(an).status,
        "nullity": fit.status,
    }
    return verdicts, (an.alpha, an.r, an.szz, *fit.triple)


@st.composite
def _matrices(draw, n: int) -> sp.Matrix:
    A = sp.Matrix(n, n, draw(st.lists(st.integers(-1, 1), min_size=n * n, max_size=n * n)))
    assume(A.det() != 0)
    return A


def _same_in_chart(defn, A: sp.Matrix, verdicts, scalars):
    """defn in the chart x' with x = A x' has the verdicts, and the scalar
    functions composed with A, of defn in its own chart."""
    changed = _analysis(load_definition(_changed(defn, A)))
    got_verdicts, got_scalars = _verdicts(changed)
    assert got_verdicts == verdicts
    coords = sp.Matrix(sp.symbols(defn.coord_names))
    subs = dict(zip(coords, A * coords))
    for want, got in zip(scalars, got_scalars):
        assert (want is None) == (got is None)
        if want is not None:
            assert sp.cancel(want.as_expr().xreplace(subs) - got.as_expr()) == 0


@pytest.mark.parametrize("name", ENTRIES)
def test_linear_chart_change_keeps_the_verdicts(entries, name):
    defn = entries[name].definition()
    verdicts, scalars = _verdicts(_analysis(defn))

    @settings(max_examples=2, deadline=None, derandomize=True, database=None)
    @given(_matrices(defn.dim))
    def check(A):
        _same_in_chart(defn, A, verdicts, scalars)

    check()


def _dense(n: int) -> sp.Matrix:
    """A seeded n x n integer matrix with every entry in -2..2, det != 0."""
    rng = random.Random(7)
    while True:
        A = sp.Matrix(n, n, [rng.randint(-2, 2) for _ in range(n * n)])
        if A.det() != 0:
            return A


# a dense A mixes every coordinate into every entry: in the chart x', a
# power of 1+z is a power of a linear form in all five coordinates, whose
# gcds cost far more than in the entry's own chart
@pytest.mark.parametrize("name", ["five_dim_product", "five_dim_alpha_z", "five_dim_non_pk_leaves"])
def test_dense_chart_change_keeps_the_verdicts(entries, name):
    defn = entries[name].definition()
    _same_in_chart(defn, _dense(defn.dim), *_verdicts(_analysis(defn)))
