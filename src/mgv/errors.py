"""Exception types shared across the package."""

from __future__ import annotations


class MgvError(Exception):
    """Base class for all library-specific errors."""


class NoCalibrationHistory(MgvError):
    """Working memory holds no successful calibration records to set thresholds from."""


class NoApplicableStrategy(MgvError):
    """No strategy in working memory matches the current task tags."""


class DimensionMismatch(MgvError):
    """Vector or matrix operands disagree on dimensions."""


class NodeNotOnFrontier(MgvError):
    """The node requested for expansion is not currently expandable."""


class NonMonotonePolicy(MgvError):
    """A solved stopping policy is not stop-below / search-above at some step."""


class ParseError(MgvError):
    """A configuration or input file could not be parsed."""


class ValidationError(MgvError, ValueError):
    """A configuration value failed validation.

    Carries the offending field name so callers (and the CLI) can report it.
    """

    def __init__(self, field: str, message: str = ""):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}" if message else field)


class NonFiniteOutput(MgvError):
    """A run computed a NaN or infinite number, which JSON output cannot hold."""


class MissingFile(MgvError):
    """A referenced input file does not exist."""
