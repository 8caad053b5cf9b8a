"""The block codec every binary file format is written in.

After a 4-byte magic tag, a file is a sequence of little-endian sections:
fixed headers (one ``struct`` format each, :func:`pack`/:func:`unpack`),
array blocks (a u32 byte length, then raw items of a dtype the reader
names) and string tables (a u32 count, then u32-length-prefixed UTF-8).
A short read, a block that is not a whole number of items or a string that
is not UTF-8 raises FormatError naming the file; whether the arrays of one
file agree is checked by the module that owns the format.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Sequence

import numpy as np

from .errors import FormatError


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file {fh.name}: "
                          f"wanted {n} bytes, got {len(data)}")
    return data


def check_magic(fh: BinaryIO, magic: bytes, what: str) -> None:
    """Read and verify a 4-byte magic tag; raise before any state is built."""
    got = fh.read(len(magic))
    if got != magic:
        raise FormatError(f"{fh.name} is not a {what} file: "
                          f"bad magic {got!r}, expected {magic!r}")


def pack(fh: BinaryIO, fmt: str, *values) -> None:
    """Write one fixed header in the ``struct`` format ``fmt``."""
    fh.write(struct.pack(fmt, *values))


def unpack(fh: BinaryIO, fmt: str) -> tuple:
    """Read the fixed header :func:`pack` wrote with the same ``fmt``."""
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def write_array(fh: BinaryIO, values: np.typing.ArrayLike, dtype: str) -> None:
    """Write ``values`` as one array block of ``dtype`` items, row-major."""
    data = np.ascontiguousarray(values, dtype=dtype).tobytes()
    fh.write(struct.pack("<I", len(data)) + data)


def read_array(fh: BinaryIO, dtype: str) -> np.ndarray:
    """Read one array block as a flat, writable array of ``dtype``."""
    (size,) = unpack(fh, "<I")
    if size % np.dtype(dtype).itemsize:
        raise FormatError(f"corrupt array block in {fh.name}: {size} bytes "
                          f"is not a whole number of {dtype} items")
    return np.frombuffer(_read_exact(fh, size), dtype=dtype).copy()


def split(flat: Sequence, lengths: np.ndarray) -> list[Sequence]:
    """Consecutive slices of ``flat`` with the given lengths (checked sum)."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def write_strings(fh: BinaryIO, strings: Sequence[str]) -> None:
    """Write a string table: count, then length-prefixed UTF-8 strings."""
    encoded = [s.encode("utf-8") for s in strings]
    fh.write(struct.pack("<I", len(encoded))
             + b"".join(struct.pack("<I", len(b)) + b for b in encoded))


def read_strings(fh: BinaryIO) -> list[str]:
    """Read a string table; bytes that are not UTF-8 raise FormatError."""
    (count,) = unpack(fh, "<I")
    raw = [_read_exact(fh, unpack(fh, "<I")[0]) for _ in range(count)]
    try:
        return [b.decode("utf-8") for b in raw]
    except UnicodeDecodeError as exc:
        raise FormatError(f"string table in {fh.name} is not UTF-8 "
                          f"({exc.reason})") from None
