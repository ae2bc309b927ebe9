"""Exception types shared across the package."""
from __future__ import annotations


class BGumbelError(Exception):
    """Base class for all package-specific errors."""


class DivergentIntegralError(BGumbelError, ValueError):
    """The requested integral diverges (e.g. the exponential integral at 0)."""


class DegenerateWeightError(BGumbelError, ValueError):
    """A weighted distribution is undefined because its weight has zero mean."""


class RegimeError(BGumbelError, ValueError):
    """Parameters fall outside the validity region of the requested method."""


class RootIsolationError(BGumbelError, RuntimeError):
    """Root bracketing could not separate nearby roots at maximum resolution."""


class DegenerateDataError(BGumbelError, ValueError):
    """The data admit no meaningful fit (e.g. all observations identical)."""


class InsufficientDataError(BGumbelError, ValueError):
    """Not enough observations for the requested operation."""
