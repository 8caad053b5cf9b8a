"""Exception types shared across the package.

Anything raised as a PunforgeError is a data or resource problem (bad file,
mismatched vocabulary, impossible training input).  Plain ValueError /
TypeError keep their usual meaning of a caller bug.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class PunforgeError(Exception):
    """Base class for data and resource errors."""


class FormatError(PunforgeError):
    """A file does not conform to its declared format."""


class ResourceError(PunforgeError):
    """A required resource is missing or inconsistent with its siblings."""


class TrainingError(PunforgeError):
    """Training input is degenerate (too small, yields no examples)."""


class UnknownWordError(PunforgeError):
    """A query word is not in the model vocabulary."""


@contextmanager
def strict_utf8(name: str) -> Iterator[None]:
    """Raise a UnicodeDecodeError from the block as a FormatError on ``name``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{name}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def open_text(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """Open a UTF-8 text file, skipping a leading byte-order mark; bytes that
    do not decode raise FormatError."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh, strict_utf8(str(path)):
        yield fh
