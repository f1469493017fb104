"""Exception types shared across the package."""

from __future__ import annotations


class QcdenseError(Exception):
    """Base class for all library errors."""


class KindMismatch(QcdenseError):
    """An element, character, or group of the wrong kind was supplied."""


class IndexOutOfRange(QcdenseError):
    """A tower or prime-list index exceeds what the data provides."""


class UnsupportedBound(QcdenseError):
    """A certification bound reaches characters the group data cannot express."""


class TruncationTooSmall(QcdenseError):
    """A witness exists but lies outside the materialized truncation."""

    def __init__(self, message: str, needed: object | None = None):
        self.needed = needed
        super().__init__(message)


class SizeLimit(QcdenseError):
    """A finite-group computation exceeds the supported size."""


class InvariantViolation(QcdenseError):
    """An internal correctness invariant failed; results cannot be trusted."""


class ValidationError(QcdenseError):
    """Invalid user-supplied configuration or input data."""
