"""Exception types shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live over different ambient dimensions m."""


class NotDoubleHarmonic(ValueError):
    """Input is not annihilated by both Laplacians."""


class ZeroNormalizer(ArithmeticError):
    """The normalizing ladder constant vanishes: the requested component is absent."""


class IndexOutOfRange(ValueError):
    """Ladder indices outside the valid range for the operand."""


class NonTerminating(ValueError):
    """Hypergeometric series has no non-positive-integer upper parameter."""


class LowerParameterPole(ArithmeticError):
    """A lower hypergeometric parameter produces a zero factor before termination."""


class GammaPole(ArithmeticError):
    """A Gamma-function ratio hits a non-positive integer that does not cancel."""


class PolySyntaxError(ValueError):
    """Polynomial expression text does not conform to the grammar."""

    def __init__(self, message, position):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class VariableOutOfRange(ValueError):
    """A parsed variable index exceeds the ambient dimension."""


class ExponentOutOfRange(ValueError):
    """An exponent is negative or not an integer, or a monomial's total degree
    exceeds ``poly.MAX_TERM_DEGREE``."""
