"""The block codec every binary file format is written in.

After a 4-byte magic tag, a file is a sequence of little-endian sections:
fixed headers (one ``struct`` format each, :func:`pack`/:func:`unpack`),
blobs (a u32 byte length, then the bytes), array blocks (a blob of raw
items of a dtype the reader names) and string tables (an array block of
u32 byte lengths, then one blob of the strings' UTF-8 concatenated).  A
short read, a block that is not a whole number of items, a string table
whose lengths do not cover its blob or a string that is not UTF-8 raises
FormatError naming the file.  Every binary file is read in :func:`reading`
and written in :func:`writing`, which check and put its magic and, after
the last block, a u32 CRC-32 (``zlib.crc32``) of every byte before it,
computed as the bytes are read and written.  The module that owns a format
raises ValueError when its blocks disagree; ``reading`` makes that, bytes
after the checksum and a checksum that does not match one FormatError naming
the file.  So a block's own checks fire before the checksum's.

Every file the package writes, binary or text, is written through
:func:`replace_file`: into a temporary file beside the target that replaces
it only once it is whole.  A target that exists and is not a regular file,
such as a FIFO, is written in place instead.
"""

from __future__ import annotations

import io
import os
import secrets
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import IO, BinaryIO, Iterator, Sequence

import numpy as np

from .errors import FormatError


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated file {fh.name}: "
                          f"wanted {n} bytes, got {len(data)}")
    return data


@contextmanager
def replace_file(path: str | Path, encoding: str | None = None) -> Iterator[IO]:
    """Open a new file beside ``path`` for writing, binary or, with
    ``encoding``, text; it replaces ``path`` when the block ends and is
    removed if the block raises, so a failed write leaves neither a partial
    target nor a temporary file.

    A target that exists and is not a regular file (a FIFO, a device) is
    opened and written in place: renaming over it would put a regular file
    where it was.  A directory target fails as the open does.  There is no
    fsync: this guards against a failed or interrupted writer, not against a
    crash of the machine.
    """
    path = os.fspath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with _writer(open(path, "wb"), encoding) as fh:
            yield fh
        return
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, "xb")
    try:
        with _writer(fh, encoding) as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _writer(fh: BinaryIO, encoding: str | None) -> IO:
    return fh if encoding is None else io.TextIOWrapper(fh, encoding=encoding)


class _Checksummed:
    """A binary file that keeps the CRC-32 of every byte read from it or
    written to it through this object."""

    def __init__(self, fh: BinaryIO):
        self._fh, self.name, self.crc = fh, fh.name, 0

    def read(self, n: int) -> bytes:
        data = self._fh.read(n)
        self.crc = zlib.crc32(data, self.crc)
        return data

    def write(self, data: bytes) -> int:
        self.crc = zlib.crc32(data, self.crc)
        return self._fh.write(data)


@contextmanager
def reading(path: str | Path, magic: bytes, what: str) -> Iterator[BinaryIO]:
    """Open a ``what`` file and check its magic tag.  A ValueError raised in
    the block, bytes after the checksum that follows the last block read, and
    a checksum that does not match are one FormatError ``corrupt <what>
    <file>: <problem>``."""
    with open(path, "rb") as raw:
        fh = _Checksummed(raw)
        got = fh.read(len(magic))
        if got != magic:
            raise FormatError(f"{raw.name} is not a {what} file: "
                              f"bad magic {got!r}, expected {magic!r}")
        try:
            yield fh
            (stored,) = unpack(raw, "<I")
            if raw.read(1):
                raise ValueError("bytes after the last block")
            if stored != fh.crc:
                raise ValueError("checksum mismatch")
        except ValueError as exc:
            raise FormatError(f"corrupt {what} {raw.name}: {exc}") from None


@contextmanager
def writing(path: str | Path, magic: bytes) -> Iterator[BinaryIO]:
    """:func:`replace_file` for a binary file that starts with ``magic``
    and ends with the checksum :func:`reading` checks."""
    with replace_file(path) as raw:
        fh = _Checksummed(raw)
        fh.write(magic)
        yield fh
        pack(raw, "<I", fh.crc)


def pack(fh: BinaryIO, fmt: str, *values) -> None:
    """Write one fixed header in the ``struct`` format ``fmt``."""
    fh.write(struct.pack(fmt, *values))


def unpack(fh: BinaryIO, fmt: str) -> tuple:
    """Read the fixed header :func:`pack` wrote with the same ``fmt``."""
    return struct.unpack(fmt, _read_exact(fh, struct.calcsize(fmt)))


def write_blob(fh: BinaryIO, data: bytes) -> None:
    """Write ``data`` behind its u32 byte length."""
    fh.write(struct.pack("<I", len(data)) + data)


def read_blob(fh: BinaryIO) -> bytes:
    """Read the bytes :func:`write_blob` wrote."""
    (size,) = unpack(fh, "<I")
    return _read_exact(fh, size)


def write_array(fh: BinaryIO, values: np.typing.ArrayLike, dtype: str) -> None:
    """Write ``values`` as one array block of ``dtype`` items, row-major.  An
    integer that an integer ``dtype`` cannot hold raises: OverflowError from a
    Python int, ValueError from an integer array, whose cast would wrap it."""
    if (isinstance(values, np.ndarray) and values.size and values.dtype.kind in "iu"
            and np.dtype(dtype).kind in "iu"):
        low, high = values.min(), values.max()
        if low < np.iinfo(dtype).min or high > np.iinfo(dtype).max:
            raise ValueError(f"values {low}..{high} do not fit {dtype}")
    array = np.ascontiguousarray(values, dtype=dtype)
    fh.write(struct.pack("<I", array.nbytes))
    fh.write(array)  # its own buffer: the bytes write_blob would write, uncopied


def read_array(fh: BinaryIO, dtype: str) -> np.ndarray:
    """Read one array block as a flat, writable array of ``dtype``."""
    data = read_blob(fh)
    if len(data) % np.dtype(dtype).itemsize:
        raise FormatError(f"corrupt array block in {fh.name}: {len(data)} bytes "
                          f"is not a whole number of {dtype} items")
    return np.frombuffer(data, dtype=dtype).copy()


def split(flat: Sequence, lengths: np.ndarray) -> list[Sequence]:
    """Consecutive slices of ``flat`` with the given lengths (checked sum)."""
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return [flat[start:end] for start, end in zip([0] + ends, ends)]


def write_strings(fh: BinaryIO, strings: Sequence[str]) -> None:
    """Write a string table: the UTF-8 byte lengths, then one blob."""
    encoded = [s.encode("utf-8") for s in strings]
    write_array(fh, [len(b) for b in encoded], "<u4")
    write_blob(fh, b"".join(encoded))


def read_strings(fh: BinaryIO) -> list[str]:
    """Read a string table; lengths that do not add up to the blob's, or a
    string that is not UTF-8, raise FormatError."""
    lengths = read_array(fh, "<u4")
    blob = read_blob(fh)
    if lengths.sum(dtype=np.int64) != len(blob):
        raise FormatError(f"corrupt string table in {fh.name}: lengths add up "
                          f"to {lengths.sum(dtype=np.int64)} bytes, not {len(blob)}")
    try:  # each string on its own: a length may end inside a character
        return [b.decode("utf-8") for b in split(blob, lengths)]
    except UnicodeDecodeError as exc:
        raise FormatError(f"string table in {fh.name} is not UTF-8 "
                          f"({exc.reason})") from None
