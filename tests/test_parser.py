import pytest
import sympy as sp

from paracosym.errors import DefinitionError, ParseError, UnknownIdentifierError
from paracosym.parser import (
    MAX_DIM,
    MAX_EXPONENT,
    MAX_LITERAL_DIGITS,
    load_definition,
    parse_expression,
    parse_scalar,
    print_expression,
)
from paracosym.scalars import ScalarContext

NAMES = ["x", "y", "z"]
CTX = ScalarContext(("x", "y", "z"), ())


def test_precedence():
    assert parse_scalar("2 + 3*x^2", CTX) == CTX.scalar(2) + 3 * CTX.coordinate(0) ** 2
    assert parse_scalar("-x^2", CTX) == -(CTX.coordinate(0) ** 2)
    assert parse_scalar("2*x - y/2", CTX) == 2 * CTX.coordinate(0) - CTX.coordinate(1) / 2
    assert parse_scalar("(x + y)^3", CTX) == (CTX.coordinate(0) + CTX.coordinate(1)) ** 3


def test_zeroth_power_of_zero_is_one():
    # sympy's convention, 0**0 = 1, also in the field
    assert parse_scalar("(x - x)^0", CTX) == 1
    assert (CTX.coordinate(0) - CTX.coordinate(0)) ** 0 == 1


def test_rational_literals():
    assert parse_scalar("3/4", CTX).serialize() == "3/4"
    assert parse_scalar("1/2 * x", CTX) == CTX.coordinate(0) / 2


def test_roundtrip_print_parse():
    for text in ["x", "x + y*z", "(x - 1)^2 / (y + 2)", "-3*x + 1/2"]:
        ast = parse_expression(text, NAMES)
        again = parse_expression(print_expression(ast), NAMES)
        assert parse_scalar(print_expression(again), CTX) == parse_scalar(text, CTX)


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        parse_expression("x + ", NAMES)
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse_expression("x + * y", NAMES)
    with pytest.raises(ParseError):
        parse_expression("", NAMES)


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_scalar("x + w", CTX)


def test_exponent_bounded():
    assert parse_scalar(f"x^{MAX_EXPONENT}", CTX) == CTX.coordinate(0) ** MAX_EXPONENT
    for text in [f"x^{MAX_EXPONENT + 1}", "(x + y)^1000000", "x^" + "9" * 5000]:
        with pytest.raises(ParseError):
            parse_expression(text, NAMES)


def test_literal_length_bounded():
    assert parse_scalar("1" * MAX_LITERAL_DIGITS, CTX).expr == int("1" * MAX_LITERAL_DIGITS)
    assert parse_expression("0." + "5" * (MAX_LITERAL_DIGITS - 1), NAMES)
    for text in ["1" * (MAX_LITERAL_DIGITS + 1), "0." + "5" * MAX_LITERAL_DIGITS, "9" * 5001]:
        with pytest.raises(ParseError):
            parse_expression(text, NAMES)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError):
        parse_expression("x^-1", NAMES)
    with pytest.raises(ParseError):
        parse_expression("x^y", NAMES)


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
    assert parse_scalar(defn.declared_alpha, defn.context()).is_zero()


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
