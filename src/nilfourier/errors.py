"""Exception taxonomy shared across the package.

Every error raised by the public API derives from :class:`NilfourierError`,
so callers (and the CLI) can distinguish domain failures from programming
errors and map them to machine-readable reports.
"""

from __future__ import annotations

__all__ = [
    "NilfourierError",
    "DependentBasis",
    "DegreeMismatch",
    "NotInLieImage",
    "SpecMismatch",
    "RoleError",
    "DimensionMismatch",
    "IndexOutOfRange",
    "SamplingExhausted",
    "NotGeneric",
    "QuadratureUnderflow",
    "NonConvergence",
]


class NilfourierError(Exception):
    """Base class for all domain errors raised by this package."""


class DependentBasis(NilfourierError):
    """A user-supplied bracket-word list is linearly dependent or incomplete."""


class DegreeMismatch(NilfourierError):
    """A bracket word was supplied for the wrong layer, or tensor levels disagree."""


class NotInLieImage(NilfourierError):
    """A tensor is not (within tolerance) a combination of embedded Lie basis elements."""


class SpecMismatch(NilfourierError):
    """Two objects built over different group specifications were combined."""


class RoleError(NilfourierError):
    """An operation received a graded element with the wrong algebraic role."""


class DimensionMismatch(NilfourierError):
    """An array's shape does not match what the group specification requires."""


class IndexOutOfRange(NilfourierError):
    """A layer or basis index lies outside the valid range."""


class SamplingExhausted(NilfourierError):
    """Rejection sampling failed to find a generic functional within the attempt budget."""


class NotGeneric(NilfourierError):
    """A construction that requires a generic functional received a non-generic one."""


class QuadratureUnderflow(NilfourierError):
    """An integration box is too small for the integrand's declared decay."""


class NonConvergence(NilfourierError):
    """Doubling the frequency-plane resolution changed the result beyond tolerance."""
