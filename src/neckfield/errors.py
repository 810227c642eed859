"""Exception and warning types shared across the package."""

from __future__ import annotations


class NeckfieldError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(NeckfieldError, ValueError):
    """A scalar input is out of range (nonpositive length, bad count, ...)."""


class InvalidGeometryError(NeckfieldError, ValueError):
    """A geometric construction is impossible or violates an invariant."""


class SingularInputError(NeckfieldError, ValueError):
    """An evaluation point coincides with a singular point of a map."""


class DomainError(NeckfieldError, ValueError):
    """An evaluation point lies outside the domain of validity."""


class InvalidUsageError(NeckfieldError, ValueError):
    """An operation was called on data it does not apply to."""


class NumericFailureError(NeckfieldError, RuntimeError):
    """A numerical procedure failed to converge or is too ill-conditioned.

    Carries a ``diagnostics`` dict so callers can report what went wrong.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class RefinementFailureError(NumericFailureError):
    """Mesh refinement cannot meet its resolution targets: the node cap was
    hit first, or a gap is narrower than the chain map's floor resolves."""


class SweepFailureError(NeckfieldError, RuntimeError):
    """Every row of a parameter sweep failed, or the process running some
    of its rows ended without sending them back."""


class ScaleRegimeWarning(UserWarning):
    """Geometry is valid but outside the asymptotic scale regime.

    The blow-up rate statements assume a small gap, a small middle body and
    comparable outer bodies; the solver itself is exact for any valid
    geometry, so violations only warn.
    """
