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
    """An operator action did not land back in the polynomial space.

    This is a correctness alarm: every operator built by this package is
    supposed to preserve polynomials, so seeing this error means the
    operator (or an identity it encodes) was transcribed incorrectly.
    """

    def __init__(self, message, operator=None, remainder=None):
        super().__init__(message)
        self.operator = operator
        self.remainder = remainder


class PoleError(BiwkitError, ArithmeticError):
    """Gamma-type function evaluated at a pole."""


class QuadratureNotConverged(BiwkitError, ArithmeticError):
    """Step refinement failed to stabilize the integral."""
