from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paracosym.errors import DefinitionError, ParseError, UnknownIdentifierError
from paracosym.field import serialize
from paracosym.parser import (
    MAX_DEGREE,
    MAX_DIM,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    MAX_TERMS,
    load_definition,
    parse_scalar,
)
from paracosym.scalars import ScalarContext
from paracosym.structures import AlmostParacontactStructure

CTX = ScalarContext(("x", "y", "z"), ())


def test_precedence():
    assert parse_scalar("2 + 3*x^2", CTX) == CTX.element(2) + 3 * CTX.coordinate(0) ** 2
    assert parse_scalar("-x^2", CTX) == -(CTX.coordinate(0) ** 2)
    assert parse_scalar("2*x - y/2", CTX) == 2 * CTX.coordinate(0) - CTX.coordinate(1) / 2
    assert parse_scalar("(x + y)^3", CTX) == (CTX.coordinate(0) + CTX.coordinate(1)) ** 3


def test_zeroth_power_of_zero_is_one():
    # sympy's convention, 0**0 = 1, also in the field
    assert parse_scalar("(x - x)^0", CTX) == 1
    assert (CTX.coordinate(0) - CTX.coordinate(0)) ** 0 == 1


def test_rational_literals():
    assert serialize(parse_scalar("3/4", CTX)) == "3/4"
    assert parse_scalar("1/2 * x", CTX) == CTX.coordinate(0) / 2


# grammar text at every precedence level, with no more parentheses than the
# drawn structure needs: sums and products of sums, unary minus of powers
_ATOMS = st.sampled_from(["x", "y", "z", "0", "1", "2", "3", "10", "1.5"])


def _compound(inner):
    return st.one_of(
        st.builds("{} {} {}".format, inner, st.sampled_from("+-*/"), inner),
        st.builds("-{}".format, inner),
        st.builds("({})^{}".format, inner, st.integers(0, 3)),
        st.builds("{}^{}".format, _ATOMS, st.integers(0, 3)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.recursive(_ATOMS, _compound, max_leaves=8))
def test_parse_matches_sympy(text):
    # the parser's precedence, associativity and unary minus agree with
    # Python's, which sympify reads
    try:
        value = parse_scalar(text, CTX)
    except ParseError:  # a zero divisor, or past a bound
        assume(False)
    expected = sp.sympify(text.replace("^", "**"), rational=True)
    assert sp.cancel(value.as_expr() - expected) == 0, text


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_scalar("x + ", CTX)
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse_scalar("x + * y", CTX)
    with pytest.raises(ParseError):
        parse_scalar("", CTX)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_scalar("x + w", CTX)


def test_exponent_bounded():
    assert parse_scalar(f"x^{MAX_EXPONENT}", CTX) == CTX.coordinate(0) ** MAX_EXPONENT
    for text in [f"x^{MAX_EXPONENT + 1}", "(x + y)^1000000", "x^" + "9" * 5000]:
        with pytest.raises(ParseError):
            parse_scalar(text, CTX)


def test_degree_bounded():
    assert MAX_DEGREE == 8
    # within the bound: one ^, a product, a quotient, sums of polynomials,
    # over one denominator and over two constant ones
    within = ["(x + y + z + 1)^8", "x^4 * y^4", "x^8 + y^8", "x^7/(y + 1) - z/(y + 1)", "(x/y)^8", "x^8 / y"]
    for text in within + ["x/2 + y^8", "x^4/4 - x^6", "(x+1)/3 - x^8"]:
        parse_scalar(text, CTX)
    # above it, refused before the operation expands
    for text in ["((x + y + z + 1)^8)^8", "x^8 * y", "x^8 / (y/x)", "1/(x + 1)^5 + 1/(y + 1)^4", "(x^2 + y)^5"]:
        with pytest.raises(ParseError, match="total degree"):
            parse_scalar(text, CTX)


def test_literal_length_bounded():
    assert parse_scalar("1" * MAX_LITERAL_DIGITS, CTX) == int("1" * MAX_LITERAL_DIGITS)
    longest = "0." + "5" * (MAX_LITERAL_DIGITS - 1)
    assert parse_scalar(longest, CTX) == Fraction(longest)
    for text in ["1" * (MAX_LITERAL_DIGITS + 1), "0." + "5" * MAX_LITERAL_DIGITS, "9" * 5001]:
        with pytest.raises(ParseError):
            parse_scalar(text, CTX)


def test_term_count_bounded():
    # a power of a long sum stays within MAX_DEGREE; in three variables no
    # polynomial of degree 8 has more than 165 terms, in nine 24,310
    assert len(parse_scalar("(x + y + z + 1)^8", CTX).numer) == 165 <= MAX_TERMS
    nine = ScalarContext(tuple(f"a{i}" for i in range(9)))
    s = "a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7 + a8"
    assert len(parse_scalar(f"({s} + 1)^4", nine).numer) == 715
    assert len(parse_scalar(f"({s} + 1)^4 / (a0 + 1)", nine).numer) == 715
    for text in [f"({s} + 1)^8", f"({s} + 1)^4 * ({s} + 2)^4"]:
        with pytest.raises(ParseError, match=f"above the maximum {MAX_TERMS}"):
            parse_scalar(text, nine)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_scalar("x^-1", CTX)
    with pytest.raises(ParseError):
        parse_scalar("x^y", CTX)


MINIMAL = """
[chart]
dim = 3
coords = [x, y, z]
base_point = [0, 0, 0]

[structure]
xi = [0, 0, 1]
eta = [0, 0, 1]
phi = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
metric = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]
alpha = 0
"""


def test_load_minimal():
    defn = load_definition(MINIMAL)
    assert defn.dim == 3
    assert defn.coord_names == ("x", "y", "z")
    assert defn.declared_alpha.is_zero()
    assert defn.metric[1][1] == -1 and defn.xi[2] == 1


def test_definition_is_parsed_into_one_context():
    defn = load_definition(MINIMAL)
    assert defn.context() is defn.context()
    field = defn.context().field
    assert all(e.field is field for e in defn.xi + defn.eta + [defn.declared_alpha])
    assert AlmostParacontactStructure.from_definition(defn).chart.context is defn.context()


def test_load_missing_section():
    with pytest.raises(DefinitionError):
        load_definition("[chart]\ndim = 3\ncoords = [x, y, z]\nbase_point = [0,0,0]\n")


def test_load_even_dim_rejected():
    with pytest.raises(DefinitionError):
        load_definition(MINIMAL.replace("dim = 3", "dim = 4"))


@pytest.mark.parametrize("dim", [15, 5001])
def test_load_dim_above_bound_rejected(dim):
    # rejected before the coordinates are read: no list of dim names is needed
    assert dim > MAX_DIM
    with pytest.raises(DefinitionError, match=f"at most {MAX_DIM}"):
        load_definition(MINIMAL.replace("dim = 3", f"dim = {dim}"))


def test_load_asymmetric_metric():
    bad = MINIMAL.replace(
        "metric = [[1, 0, 0], [0, -1, 0], [0, 0, 1]]",
        "metric = [[1, 2, 0], [0, -1, 0], [0, 0, 1]]",
    )
    with pytest.raises(DefinitionError):
        load_definition(bad)


def test_load_wrong_vector_length():
    bad = MINIMAL.replace("xi = [0, 0, 1]", "xi = [0, 1]")
    with pytest.raises(DefinitionError):
        load_definition(bad)


def test_load_duplicate_key():
    bad = MINIMAL + "alpha = 1\n"
    with pytest.raises(DefinitionError):
        load_definition(bad)


def test_generator_section():
    text = MINIMAL.replace(
        "[structure]",
        "[generators]\nE = { coord = z, rate = 2 }\n\n[structure]",
    ).replace("metric = [[1, 0, 0]", "metric = [[E, 0, 0]")
    defn = load_definition(text)
    assert len(defn.generators) == 1
    gen = defn.generators[0]
    assert gen.name == "E" and gen.coord_index == 2 and gen.rate == sp.Integer(2)
