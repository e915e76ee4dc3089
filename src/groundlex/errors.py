"""Exception hierarchy shared across the package."""

from __future__ import annotations


class GroundlexError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GroundlexError):
    """Operand shapes do not conform for an operation."""

    def __init__(self, op: str, *shapes):
        detail = " vs ".join(str(tuple(s)) for s in shapes)
        super().__init__(f"{op}: shape mismatch {detail}" if shapes else op)


class NumericsError(GroundlexError):
    """A numerical operation produced non-finite values."""

    def __init__(self, op: str, message: str = "produced non-finite values"):
        super().__init__(f"{op}: {message}")


class DataError(GroundlexError):
    """Input data violates a format or consistency contract."""
