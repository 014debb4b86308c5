"""Exception types shared across the package.

Operations raise typed errors instead of returning NaN/inf, so callers that
care about poles or convergence regions can branch explicitly.
"""


class MirabolicError(Exception):
    """Base class for all package-specific errors."""


class PoleError(MirabolicError):
    """Evaluation requested at (or numerically on top of) a pole or a zero of
    a denominator factor."""


class ValueOverflowError(MirabolicError, OverflowError):
    """A finite result too large for a double: exp of a log-space value
    whose real part exceeds the float range."""


class NotPrincipalError(MirabolicError):
    """Operation defined only for principal characters."""


class NotPrimitiveError(MirabolicError):
    """Operation defined only for primitive characters."""


class ZeroEntryError(MirabolicError):
    """A vector entry required to be nonzero was zero."""


class ZeroComponentError(MirabolicError):
    """A coefficient index component required to be nonzero was zero."""


class ConvergenceRegionError(MirabolicError):
    """Parameters lie outside the region of absolute convergence."""


class StripError(MirabolicError):
    """Parameters lie outside the conditional-convergence strip."""


class ToleranceNotMetError(MirabolicError):
    """A quadrature routine could not certify the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class EmptyRepresentationError(MirabolicError):
    """An operation needs a nonempty isobaric sum, but the representation
    has no blocks (Ext^2 of a character, for example)."""


class NormalizationError(MirabolicError):
    """Input parameters violate a required normalization constraint."""


class ParseError(MirabolicError):
    """Malformed textual representation (CLI rep grammar)."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position
