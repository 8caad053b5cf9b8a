"""What this process computes its floats with, for the ``-v`` runtime line.

``.pgsg`` bytes and every printed float hold for one machine type, numpy
build and BLAS core (see the README).  ``-v`` logs the Python and numpy
versions, the SIMD targets numpy dispatches to, the OpenBLAS core and the
C library's version, so two runs whose floats differ can be told apart.
"""

from __future__ import annotations

import ctypes
import logging
import platform

import numpy as np

log = logging.getLogger(__name__)

# OpenBLAS's core-name getter, by build: scipy-openblas 64- and 32-bit
# integers, then plain OpenBLAS.
_CORENAME_GETTERS = ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename")


def simd_targets() -> list[str]:
    """numpy's dispatch targets that this CPU has, sorted: the ones in use."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f))


def blas_core() -> str | None:
    """The core the loaded OpenBLAS runs, or None if no OpenBLAS library is
    mapped into this process or none says."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        for name in _CORENAME_GETTERS:
            try:
                get = getattr(ctypes.CDLL(lib), name)
            except (OSError, AttributeError):
                continue
            get.restype = ctypes.c_char_p
            return get().decode()
    return None


def runtime_state() -> dict[str, object]:
    """The Python and numpy versions, the SIMD targets in use, the OpenBLAS
    core and the C library's name and version."""
    libc, version = platform.libc_ver()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "simd": simd_targets(), "blas_core": blas_core(),
            "libc": f"{libc} {version}" if libc else None}


def log_runtime() -> None:
    """Log the runtime state as one INFO line, probing only when it is shown."""
    if not log.isEnabledFor(logging.INFO):
        return
    state = runtime_state()
    log.info("Python %s, numpy %s, SIMD %s, OpenBLAS core %s, %s",
             state["python"], state["numpy"], " ".join(state["simd"]) or "baseline",
             state["blas_core"] or "unknown", state["libc"] or "libc unknown")
