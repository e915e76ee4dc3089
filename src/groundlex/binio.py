"""Length-checked reads shared by the package's binary file formats."""

from __future__ import annotations

import struct

from .errors import DataError


def read_exact(fh, n: int, path) -> bytes:
    """Read `n` bytes; a short read raises DataError naming the byte offset."""
    buf = fh.read(n)
    if len(buf) != n:
        end = fh.tell()
        raise DataError(f"{path}: file truncated at byte {end} "
                        f"(needed {n} bytes from byte {end - len(buf)})")
    return buf


def unpack(fh, fmt: str, path) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path))
