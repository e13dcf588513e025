"""Exception types, and the range rules that both the ``config`` params tables
and the library constructors apply: ``FINITE``, ``NONNEG``, ``POSITIVE``,
``AT_LEAST_1``, ``UNIT``, ``OPEN_UNIT``, ``SIGNED_UNIT``, ``NONEMPTY`` and
``at_most``.  Each predicate states what a valid value meets, so NaN fails
every numeric rule."""

from __future__ import annotations

from math import inf
from typing import Callable, NamedTuple


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


class Rule(NamedTuple):
    """A (predicate, message) pair; ``check`` raises ValidationError naming the field."""

    ok: Callable[[object], bool]
    message: str

    def check(self, field: str, value):
        if not self.ok(value):
            raise ValidationError(field, self.message)
        return value


def at_most(limit: int) -> Rule:
    return Rule(lambda x: x <= limit, f"must be at most {limit}")


FINITE = Rule(lambda x: -inf < x < inf, "must be finite")
NONNEG = Rule(lambda x: x >= 0, "must be nonnegative")
POSITIVE = Rule(lambda x: x > 0, "must be positive")
AT_LEAST_1 = Rule(lambda x: x >= 1, "must be at least 1")
UNIT = Rule(lambda x: 0.0 <= x <= 1.0, "must lie in [0, 1]")
OPEN_UNIT = Rule(lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")
SIGNED_UNIT = Rule(lambda x: -1.0 <= x <= 1.0, "must lie in [-1, 1]")
NONEMPTY = Rule(bool, "must be non-empty")
