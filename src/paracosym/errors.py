"""Exception hierarchy for the engine, and the CLI's exit codes."""

EXIT_OK = 0
EXIT_STRUCTURAL = 2  # the input is not an almost alpha-paracosymplectic structure
EXIT_IDENTITY = 3  # a derived identity failed
EXIT_PARSE = 4  # parse or usage error


class EngineError(Exception):
    """Base class for all engine errors."""


class ContextMismatchError(EngineError):
    """Arithmetic between elements of two fields: scalars of charts with
    different coordinates or generators."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(f"context mismatch: field over {left.symbols} vs field over {right.symbols}")


class PoleError(EngineError):
    """Denominator vanishes at the evaluation point."""

    def __init__(self, point):
        self.point = tuple(point)
        super().__init__(f"denominator vanishes at point ({', '.join(map(str, self.point))})")


class DivisionByZeroFieldError(EngineError):
    """Division by a scalar that is identically zero, or a negative power
    of it."""


class ZeroDivisorError(DivisionByZeroFieldError):
    """Inverse of a zero divisor of a quadratic tower: a norm p**2 - a q**2
    that vanishes identically."""


class ParseError(EngineError):
    """Syntax error in an expression or definition file, with position."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class UnknownIdentifierError(ParseError):
    def __init__(self, name, offset=None):
        self.name = name
        super().__init__(f"unknown identifier {name!r}", offset)


class DefinitionError(EngineError):
    """Structural problem in a manifold-definition file."""


class ValenceError(EngineError):
    """Tensor valence/shape does not match the requested operation."""


class SingularMetricError(EngineError):
    """Metric is identically singular."""


class DegenerateMetricError(EngineError):
    """Metric degenerate at the requested point."""


class StructureError(EngineError):
    """The input does not satisfy a required structural property."""


class HTypeNotConstantError(StructureError):
    """h, or the determinant of its ker(eta) restriction, vanishes at the
    classification point but not identically: the 3D h-type changes there."""


class DeformationParameterError(EngineError):
    """Invalid conformal / homothetic deformation parameters."""


class ConventionBugError(EngineError):
    """Internal cross-check between two equivalent formulas failed.

    This must never fire on a valid build; it indicates a sign/convention bug.
    """
