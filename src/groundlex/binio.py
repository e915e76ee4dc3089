"""Length-checked reads and whole-file writes for the package's binary formats."""

from __future__ import annotations

import contextlib
import os
import struct

from .errors import DataError


def bytes_left(fh) -> int:
    """Bytes from the position of file `fh` to its end."""
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh, n: int, path) -> bytes:
    """Read `n` bytes; a short read raises DataError naming the byte offset.

    Reads at most what the file holds, so a corrupt length field costs no
    allocation of the size it declares.
    """
    buf = fh.read(min(n, bytes_left(fh)))
    if len(buf) != n:
        end = fh.tell()
        raise DataError(f"{path}: file truncated at byte {end} "
                        f"(needed {n} bytes from byte {end - len(buf)})")
    return buf


def unpack(fh, fmt: str, path) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), path))


def read_utf8(fh, n: int, path) -> str:
    """Read `n` bytes of UTF-8 text; a bad byte raises DataError naming its offset."""
    buf = read_exact(fh, n, path)
    try:
        return buf.decode("utf-8")
    except UnicodeDecodeError as exc:
        at = fh.tell() - n + exc.start
        raise DataError(f"{path}: invalid UTF-8 at byte {at}") from None


@contextlib.contextmanager
def replacing(path):
    """A new file beside `path`, open for binary writing, that replaces `path`
    when the block ends; a block that raises removes it, leaving `path` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
