"""Exception types shared across the package, and the base of its
immutable value classes.

Operations raise typed errors instead of returning NaN/inf, so callers that
care about poles or convergence regions can branch explicitly.
"""

import operator


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


class _Value:
    """Base of an immutable value class: field-wise equality, hashing and
    repr over the fields a subclass lists in __slots__, in constructor
    order.  The subclass's __init__ checks its arguments and sets each
    field once, by object.__setattr__; after that, assigning or deleting a
    field raises AttributeError.  Kept free of dataclasses, whose import
    (inspect, ast, dis) costs a cold CLI start more than the mathematics
    it runs."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the values compared and hashed, fetched in C: a tuple, or the one
        # value of a one-field class
        cls._key = operator.attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
