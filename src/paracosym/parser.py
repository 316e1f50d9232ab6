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
larger one is a ParseError, not a long expansion).  No operation may
give a numerator or denominator of total degree above MAX_DEGREE; the
bound is checked before the operation expands, so a nest of ^ is a
ParseError at once, not tens of thousands of terms.  A numeric literal
has at most MAX_LITERAL_DIGITS digits (a longer one is a ParseError, not
a ValueError from int()).  ^ binds tightest, then unary -, then * /, then
+ -; binary operators are left associative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DefinitionError, DivisionByZeroFieldError, ParseError, UnknownIdentifierError
from .field import Frac
from .scalars import GeneratorDecl, ScalarContext, ScalarField, power

MAX_EXPONENT = 8
MAX_DIM = 9  # analyze time grows steeply with dim: about 1 s at 9, 30 s at 15
MAX_LITERAL_DIGITS = 1000  # well below the interpreter's int-string limit (4300)
MAX_DEGREE = 8  # total degree of a lowered numerator or denominator

# --------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


Node = Union[Lit, Var, Neg, BinOp]

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


class _Parser:
    def __init__(self, text: str, names: Sequence[str]):
        self.text = text
        self.tokens = _tokenize(text)
        self.names = set(names)
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

    def parse(self) -> Node:
        node = self.parse_sum()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def parse_sum(self) -> Node:
        node = self.parse_product()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.next()
                node = BinOp(tok[1], node, self.parse_product())
            else:
                return node

    def parse_product(self) -> Node:
        node = self.parse_unary()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "*/":
                self.next()
                node = BinOp(tok[1], node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "^":
            self.next()
            etok = self.next()
            if etok[0] != "num" or "." in etok[1]:
                raise ParseError("exponent must be a non-negative integer", etok[2])
            digits = etok[1].lstrip("0") or "0"  # no int() of a huge digit string
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the maximum {MAX_EXPONENT}", etok[2])
            return BinOp("^", base, Lit(Fraction(int(digits))))
        return base

    def parse_atom(self) -> Node:
        tok = self.next()
        kind, text, off = tok
        if kind == "num":
            if len(text) - text.count(".") > MAX_LITERAL_DIGITS:  # before int()/Fraction()
                raise ParseError(f"numeric literal exceeds {MAX_LITERAL_DIGITS} digits", off)
            return Lit(Fraction(text))
        if kind == "id":
            if text not in self.names:
                raise UnknownIdentifierError(text, off)
            return Var(text)
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}", off)


def parse_expression(text: str, names: Sequence[str]) -> Node:
    """Parse one expression over the given identifier universe."""
    if not text.strip():
        raise ParseError("empty expression", 0)
    return _Parser(text, names).parse()


def lower(node: Node, context: ScalarContext) -> ScalarField:
    """Elaborate an AST into a ScalarField, computing in the context's
    field."""
    return ScalarField(context, _lower(node, context))


def _degree(f: Frac) -> int:
    """The larger total degree of f's numerator and denominator."""
    return max(sum(m) for p in (f.numer, f.denom) for m in p)


def _check_degree(degree: int, node: BinOp) -> None:
    """Refuse an operation whose result may exceed MAX_DEGREE before it
    expands: ((x+y+z+1)^8)^8 would lower into 47,905 terms."""
    if degree > MAX_DEGREE:
        raise ParseError(f"{node.op!r} would give total degree {degree}, above the maximum {MAX_DEGREE}")


def _lower(node: Node, context: ScalarContext) -> Frac:
    if isinstance(node, Lit):
        return context.element(node.value)
    if isinstance(node, Var):
        return context.variable(node.name)
    if isinstance(node, Neg):
        return -_lower(node.operand, context)
    left = _lower(node.left, context)
    if node.op == "^":
        n = int(node.right.value)
        _check_degree(_degree(left) * n, node)
        return power(left, n)
    right = _lower(node.right, context)
    # a sum over one denominator keeps the larger degree; every other
    # operation multiplies numerators and denominators, adding degrees
    if node.op in "+-" and left.denom == right.denom:
        _check_degree(max(_degree(left), _degree(right)), node)
    else:
        _check_degree(_degree(left) + _degree(right), node)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if not right:
            raise DivisionByZeroFieldError("division by the zero scalar field")
        return left / right
    raise AssertionError(node.op)


def parse_scalar(text: str, context: ScalarContext) -> ScalarField:
    names = list(context.coord_names) + [g.name for g in context.generators]
    return lower(parse_expression(text, names), context)


# --------------------------------------------------------------------
# definition files


@dataclass
class ManifoldDefinition:
    dim: int
    coord_names: Tuple[str, ...]
    base_point: Tuple[Fraction, ...]
    generators: Tuple[GeneratorDecl, ...]
    xi: List[str]
    eta: List[str]
    phi: List[List[str]]
    metric: List[List[str]]
    declared_alpha: Optional[str] = None

    def context(self) -> ScalarContext:
        return ScalarContext(self.coord_names, self.generators)


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            p, q = text.split("/")
            return Fraction(int(p.strip()), int(q.strip()))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DefinitionError(f"bad rational literal {text!r}") from exc


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

    definition = ManifoldDefinition(
        dim=dim,
        coord_names=coords,
        base_point=base_point,
        generators=tuple(generators),
        xi=xi,
        eta=eta,
        phi=phi,
        metric=metric,
        declared_alpha=structure.get("alpha"),
    )

    # elaborate everything once so syntax/identifier errors surface at load
    ctx = definition.context()
    for text in xi + eta + [e for row in phi for e in row]:
        parse_scalar(text, ctx)
    g = [[parse_scalar(e, ctx) for e in row] for row in metric]
    for i in range(dim):
        for j in range(i + 1, dim):
            if g[i][j] != g[j][i]:
                raise DefinitionError(f"metric is not symmetric at ({i},{j})")
    if definition.declared_alpha is not None:
        parse_scalar(definition.declared_alpha, ctx)
    return definition
