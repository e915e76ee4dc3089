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
    """A numerical operation produced non-finite values, or met a row it has none for (`row`)."""

    def __init__(self, op: str, message: str = "produced non-finite values", row=None):
        super().__init__(f"{op}: {message}")
        self.row = row  # that row's index over the leading axes, where the op names one


class DataError(GroundlexError):
    """Input data violates a format or consistency contract."""
