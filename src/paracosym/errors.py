"""Exception hierarchy for the engine."""


class EngineError(Exception):
    """Base class for all engine errors."""


class ContextMismatchError(EngineError):
    """Two scalar fields live over different coordinate/generator contexts."""

    def __init__(self, left, right):
        self.left = left
        self.right = right
        super().__init__(
            f"context mismatch: coords {left.coord_names} / generators "
            f"{tuple(g.name for g in left.generators)} vs coords {right.coord_names} / "
            f"generators {tuple(g.name for g in right.generators)}"
        )


class PoleError(EngineError):
    """Denominator vanishes at the evaluation point."""

    def __init__(self, point):
        self.point = point
        super().__init__(f"denominator vanishes at point {tuple(point)}")


class DivisionByZeroFieldError(EngineError):
    """Division by a scalar field that is identically zero."""


class ZeroDivisorError(DivisionByZeroFieldError):
    """Inverse of a zero divisor of a quadratic tower: a norm p**2 - a q**2
    that vanishes identically."""


class NotRationalError(EngineError):
    """A value is not a rational function of the chart's coordinates and
    generators, so it has no place in the chart's rational function field."""


class UndecidedSignError(EngineError):
    """The sign of a value at a point could not be decided."""


class GeneratorEvalError(EngineError):
    """Exact evaluation requested for a generator-bearing field."""


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


class DeformationParameterError(EngineError):
    """Invalid conformal / homothetic deformation parameters."""


class ConventionBugError(EngineError):
    """Internal cross-check between two equivalent formulas failed.

    This must never fire on a valid build; it indicates a sign/convention bug.
    """
