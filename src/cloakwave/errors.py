"""Exception hierarchy shared across the package.

Numeric failures (bad brackets, singular interface systems, quadrature
stagnation) are kept distinct from input validation so the command line
front end can map them to different exit codes.
"""

from __future__ import annotations


class CloakwaveError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CloakwaveError, ValueError):
    """A configuration or argument violates a documented precondition."""


class BesselDomainError(ValidationError):
    """Argument or order outside the validated special-function envelope."""


class BesselOverflowError(CloakwaveError, OverflowError):
    """An intermediate recurrence value exceeded representable magnitude."""


class BracketError(CloakwaveError):
    """Root bracket endpoints do not straddle a sign change."""


class ConvergenceError(CloakwaveError):
    """An iteration failed to converge within its budget."""


class SingularSystemError(CloakwaveError):
    """Interface linear system is numerically singular (resonance hit)."""


class TruncationError(CloakwaveError):
    """Modal truncation too small for the requested field accuracy."""


class QuadratureError(ConvergenceError):
    """Adaptive quadrature failed to reach its tolerance."""


class UnsupportedConfigurationError(CloakwaveError):
    """Configuration outside the implemented closed-form cases."""


class ResonantConfigError(CloakwaveError):
    """Experiment requires a non-resonant configuration."""


class DegenerateDataError(CloakwaveError):
    """Data spread too small for a meaningful rate fit."""
