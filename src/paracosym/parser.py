"""Manifold-definition file format and its expression sub-language.

File layout (UTF-8, INI-like sections, values may span lines while
brackets are open):

    [chart]
    dim = 3
    coords = [x, y, z]
    base_point = [1, 1, 0]

    [generators]            # optional
    E = { coord = z, rate = 2 }

    [structure]
    xi = [x, y + 2*x, 1]
    eta = [0, 0, 1]
    phi = [[0, 1, -(y + 2*x)], [1, 0, -x], [0, 0, 0]]
    metric = [[1, 0, -x], ...]
    alpha = 1               # optional; cross-checked, never trusted

dim is odd, at least 3 and at most MAX_DIM.

Expression grammar: rational literals (ints, decimals, p/q via '/'),
coordinate/generator identifiers, parentheses, unary -, binary + - * /,
and ^ with a non-negative integer exponent of at most MAX_EXPONENT (a
larger one is a ParseError, not a long expansion).  ^ binds tightest, then
unary -, then * /, then + -; binary operators are left associative.  A
numeric literal has at most MAX_LITERAL_DIGITS digits (a longer one is a
ParseError, not a ValueError from int()), and so is a division by an
expression that is identically zero.

The parser computes as it reads: each production returns an element of
the context's field, so an expression is parsed once, straight into the
chart's field: every entry, the declared alpha, --beta and --conformal-u
is a field.Frac.  Before an operation expands, its result is bounded: no
numerator or denominator may reach a total degree above MAX_DEGREE or more
than MAX_TERMS terms, so a nest of ^ or a power of a long sum is a
ParseError at once, not tens of thousands of terms.  The degree bound
reads the operands' numerator and denominator degrees apart: for a/c + b/d
it is max(deg a + deg d, deg b + deg c, deg c + deg d), so x^4/4 - x^6
(degree 6) parses.  A generator of rate
0, or a base point where a generator's power passes
scalars.MAX_GENERATOR_POWER, is a DefinitionError.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .errors import DefinitionError, ParseError, UnknownIdentifierError
from .field import Frac
from .scalars import GeneratorDecl, PointValues, ScalarContext

MAX_EXPONENT = 8
MAX_DIM = 9  # analyze time grows steeply with dim: about 1 s at 9, 30 s at 15
MAX_LITERAL_DIGITS = 1000  # well below the interpreter's int-string limit (4300)
MAX_DEGREE = 8  # total degree of a numerator or denominator
MAX_TERMS = 1000  # terms of a numerator or denominator; (x+y+z+1)^8 has 165

# --------------------------------------------------------------------
# expressions

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d+|\d+)|(?P<id>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        if m.lastgroup is None:
            break
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


def _size(f: Frac) -> Tuple[int, int, int, int]:
    """The total degrees of f's numerator and denominator, and their term
    counts."""
    a, c = (max(map(sum, p), default=0) for p in (f.numer, f.denom))
    return a, c, len(f.numer), len(f.denom)


class _Parser:
    """Recursive descent over one expression; each production returns an
    element of the context's field."""

    def __init__(self, text: str, context: ScalarContext):
        self.text = text
        self.tokens = _tokenize(text)
        self.context = context
        self.names = set(context.field.symbols)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ParseError(f"expected {op!r}, found {tok[1]!r}", tok[2])

    def bound(self, tok, degree: int, numer: int, denom: int) -> None:
        """Refuse the operation at tok before it expands when a numerator or
        denominator of its result could pass MAX_DEGREE in total degree or
        MAX_TERMS in terms, given bounds on each; a polynomial of total
        degree at most d in k variables has at most comb(d + k, k) terms."""
        if degree > MAX_DEGREE:
            raise ParseError(f"{tok[1]!r} would give total degree {degree}, above the maximum {MAX_DEGREE}", tok[2])
        k = len(self.names)
        terms = min(max(numer, denom), math.comb(degree + k, k))
        if terms > MAX_TERMS:
            raise ParseError(f"{tok[1]!r} could give {terms} terms, above the maximum {MAX_TERMS}", tok[2])

    def binary(self, tok, left: Frac, right: Frac) -> Frac:
        # for a/c op b/d, the largest degree of the result's numerator and
        # denominator: a sum over one denominator keeps the larger degree,
        # every other operation multiplies numerators and denominators
        (a, c, nl, el), (b, d, nr, er) = _size(left), _size(right)
        op = tok[1]
        if op in "+-" and left.denom == right.denom:
            self.bound(tok, max(a, b, c), nl + nr, el)
        elif op in "+-":
            self.bound(tok, max(a + d, b + c, c + d), nl * er + nr * el, el * er)
        elif op == "*":
            self.bound(tok, max(a + b, c + d), nl * nr, el * er)
        else:
            self.bound(tok, max(a + d, c + b), nl * er, el * nr)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if not right:
            raise ParseError("division by zero", tok[2])
        return left / right

    def accept(self, ops: str):
        """The next token, consumed, if it is one of the operators ops."""
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] in ops:
            self.i += 1
            return tok
        return None

    def parse(self) -> Frac:
        value = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def chain(self, ops: str, operand) -> Frac:
        """operand (op operand)* for op in ops, left associative."""
        value = operand()
        while tok := self.accept(ops):
            value = self.binary(tok, value, operand())
        return value

    def parse_sum(self) -> Frac:
        return self.chain("+-", self.parse_product)

    def parse_product(self) -> Frac:
        return self.chain("*/", self.parse_unary)

    def parse_unary(self) -> Frac:
        if self.accept("-"):
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Frac:
        base = self.parse_atom()
        tok = self.accept("^")
        if tok is None:
            return base
        etok = self.next()
        if etok[0] != "num" or "." in etok[1]:
            raise ParseError("exponent must be a non-negative integer", etok[2])
        digits = etok[1].lstrip("0") or "0"  # no int() of a huge digit string
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the maximum {MAX_EXPONENT}", etok[2])
        n = int(digits)
        a, c, numer, denom = _size(base)
        degree = max(a, c)
        # a power of a t-term polynomial has at most comb(t + n - 1, n)
        # terms; 0^0 = 1 has one
        self.bound(tok, degree * n, math.comb(max(numer, 1) + n - 1, n), math.comb(denom + n - 1, n))
        return base**n

    def parse_atom(self) -> Frac:
        tok = self.next()
        kind, text, off = tok
        if kind == "num":
            if len(text) - text.count(".") > MAX_LITERAL_DIGITS:  # before int()/Fraction()
                raise ParseError(f"numeric literal exceeds {MAX_LITERAL_DIGITS} digits", off)
            return self.context.element(Fraction(text))
        if kind == "id":
            if text not in self.names:
                raise UnknownIdentifierError(text, off)
            return self.context.variable(text)
        if kind == "op" and text == "(":
            value = self.parse_sum()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected token {text!r}", off)


def parse_scalar(text: str, context: ScalarContext) -> Frac:
    """Parse one expression straight into the context's field."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, context).parse()


# --------------------------------------------------------------------
# definition files


class ManifoldDefinition(NamedTuple):
    """A definition file, read: the chart's context and base point, and the
    entries of (phi, xi, eta, g) and the declared alpha, each parsed once
    into the context's field."""

    scalar_context: ScalarContext
    base_point: Tuple[Fraction, ...]
    xi: List[Frac]
    eta: List[Frac]
    phi: List[List[Frac]]
    metric: List[List[Frac]]
    declared_alpha: Optional[Frac] = None

    dim = property(lambda self: self.scalar_context.dim)
    coord_names = property(lambda self: self.scalar_context.coord_names)
    generators = property(lambda self: self.scalar_context.generators)

    def context(self) -> ScalarContext:
        return self.scalar_context


_EXPONENT_RE = re.compile(r"[eE]([-+]?[0-9_]+)$")
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS


def _parse_rational(text: str) -> Fraction:
    """A base point coordinate, rate, --point coordinate or --gamma: p/q
    or what Fraction reads, whose numerator and denominator have at most
    MAX_LITERAL_DIGITS digits (1e5000 is a DefinitionError, not a
    ValueError from str())."""
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/")
            value = Fraction(int(p.strip()), int(q.strip()))
        else:
            # bound the exponent before Fraction raises 10 to it
            exp = _EXPONENT_RE.search(text)
            value = None if exp and abs(int(exp.group(1))) > MAX_LITERAL_DIGITS else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DefinitionError(f"bad rational literal {text!r}") from exc
    if value is None or max(abs(value.numerator), value.denominator) >= _LITERAL_BOUND:
        raise DefinitionError(f"rational literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    return value


def _split_top_level(text: str) -> List[str]:
    """Split on commas not nested inside brackets/braces/parens."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise DefinitionError(f"unbalanced bracket in {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p.strip() for p in parts]


def _parse_list(text: str) -> List[str]:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise DefinitionError(f"expected a [...] list, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return []
    return _split_top_level(inner)


def _parse_matrix(text: str) -> List[List[str]]:
    return [_parse_list(row) for row in _parse_list(text)]


def _parse_sections(contents: str):
    """INI-ish reader; a value continues over lines while brackets stay open."""
    sections = {}
    current = None
    pending_key = None
    pending_val = ""
    depth = 0

    def flush():
        nonlocal pending_key, pending_val
        if pending_key is not None:
            if depth != 0:
                raise DefinitionError(f"unbalanced brackets in value of {pending_key!r}")
            sections[current][pending_key] = pending_val.strip()
            pending_key, pending_val = None, ""

    for raw in contents.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if depth == 0 and stripped.startswith("[") and stripped.endswith("]") and "=" not in stripped:
            flush()
            current = stripped[1:-1].strip()
            if current in sections:
                raise DefinitionError(f"duplicate section [{current}]")
            sections[current] = {}
            continue
        if current is None:
            raise DefinitionError(f"content before any section: {stripped!r}")
        if depth == 0:
            flush()
            if "=" not in stripped:
                raise DefinitionError(f"expected key = value, got {stripped!r}")
            key, val = stripped.split("=", 1)
            pending_key = key.strip()
            if pending_key in sections[current]:
                raise DefinitionError(f"duplicate key {pending_key!r} in [{current}]")
            pending_val = val.strip()
        else:
            pending_val += " " + stripped
        depth = (
            sum(pending_val.count(c) for c in "([{")
            - sum(pending_val.count(c) for c in ")]}")
        )
    flush()
    return sections


_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*$")


def load_definition(contents: str) -> ManifoldDefinition:
    sections = _parse_sections(contents)
    if "chart" not in sections:
        raise DefinitionError("missing [chart] section")
    if "structure" not in sections:
        raise DefinitionError("missing [structure] section")
    chart = sections["chart"]
    for key in ("dim", "coords", "base_point"):
        if key not in chart:
            raise DefinitionError(f"missing key {key!r} in [chart]")

    try:
        dim = int(chart["dim"])
    except ValueError as exc:
        raise DefinitionError(f"dim must be an integer, got {chart['dim']!r}") from exc
    if dim < 3 or dim % 2 == 0:
        raise DefinitionError(f"dim must be odd and >= 3, got {dim}")
    if dim > MAX_DIM:
        raise DefinitionError(f"dim must be at most {MAX_DIM}, got {dim}")

    coords = tuple(_parse_list(chart["coords"]))
    for c in coords:
        if not _IDENT_RE.match(c):
            raise DefinitionError(f"bad coordinate name {c!r}")
    if len(coords) != dim:
        raise DefinitionError(f"dim = {dim} but {len(coords)} coordinates declared")

    base_point = tuple(_parse_rational(v) for v in _parse_list(chart["base_point"]))
    if len(base_point) != dim:
        raise DefinitionError(f"base_point has {len(base_point)} entries, expected {dim}")

    generators = []
    for name, body in sections.get("generators", {}).items():
        if not _IDENT_RE.match(name):
            raise DefinitionError(f"bad generator name {name!r}")
        body = body.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise DefinitionError(f"generator {name!r}: expected {{ coord = ..., rate = ... }}")
        fields = {}
        for item in _split_top_level(body[1:-1]):
            if "=" not in item:
                raise DefinitionError(f"generator {name!r}: bad field {item!r}")
            k, v = item.split("=", 1)
            fields[k.strip()] = v.strip()
        if set(fields) != {"coord", "rate"}:
            raise DefinitionError(f"generator {name!r}: need exactly coord and rate")
        if fields["coord"] not in coords:
            raise DefinitionError(f"generator {name!r}: unknown coordinate {fields['coord']!r}")
        rate = _parse_rational(fields["rate"])
        generators.append(
            GeneratorDecl(name, coords.index(fields["coord"]), rate)
        )

    try:
        context = ScalarContext(coords, generators)
    except ValueError as exc:  # a repeated coordinate, a generator named like one, a rate 0
        raise DefinitionError(str(exc)) from exc
    PointValues(context, base_point)  # refuses a generator power above the bound

    structure = sections["structure"]
    for key in ("xi", "eta", "phi", "metric"):
        if key not in structure:
            raise DefinitionError(f"missing key {key!r} in [structure]")

    xi = _parse_list(structure["xi"])
    eta = _parse_list(structure["eta"])
    phi = _parse_matrix(structure["phi"])
    metric = _parse_matrix(structure["metric"])

    if len(xi) != dim:
        raise DefinitionError(f"xi has {len(xi)} components, expected {dim}")
    if len(eta) != dim:
        raise DefinitionError(f"eta has {len(eta)} components, expected {dim}")
    for label, mat in (("phi", phi), ("metric", metric)):
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise DefinitionError(f"{label} must be a {dim}x{dim} matrix")

    def scalars(entries: List[str]) -> List[Frac]:
        return [parse_scalar(e, context) for e in entries]

    xi, eta = scalars(xi), scalars(eta)
    phi = [scalars(row) for row in phi]
    g = [scalars(row) for row in metric]
    for i in range(dim):
        for j in range(i + 1, dim):
            if g[i][j] != g[j][i]:
                raise DefinitionError(f"metric is not symmetric at ({i},{j})")
    alpha = structure.get("alpha")
    return ManifoldDefinition(
        context, base_point, xi, eta, phi, g, None if alpha is None else parse_scalar(alpha, context)
    )
