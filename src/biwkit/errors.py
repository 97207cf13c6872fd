"""Exception hierarchy shared by all biwkit modules."""


class BiwkitError(Exception):
    """Base class for all biwkit errors."""


class NonzeroRemainder(BiwkitError, ArithmeticError):
    """Polynomial division left a nonzero remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class DegenerateParameters(BiwkitError, ValueError):
    """A recurrence denominator vanished for some index n."""

    def __init__(self, message, n=None):
        super().__init__(message)
        self.n = n


class InvalidParameters(BiwkitError, ValueError):
    """Parameters violate the hypotheses of the requested construction."""


class OperatorNotPolynomialPreserving(BiwkitError, ArithmeticError):
    """A divided-difference block does not map polynomials to polynomials.

    Raised when the block is built, naming it, with its remainder on x as
    ``remainder``.  Every block of the paper preserves polynomials, so this
    error means a block was transcribed incorrectly.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class PoleError(BiwkitError, ArithmeticError):
    """Gamma-type function evaluated at a pole."""


class QuadratureNotConverged(BiwkitError, ArithmeticError):
    """Step refinement failed to stabilize the integral."""
