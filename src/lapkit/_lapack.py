"""zgttrf, zgttrs, zhetrd, dstevd and dstebz from numpy's OpenBLAS.

numpy's Linux wheels ship numpy.libs/libscipy_openblas64_*.so, whose LAPACKE
symbols scipy_LAPACKE_<name>64_ take 64-bit integers; numpy has it loaded, so
binding it costs no import.  lapkit runs no other LAPACK routine, and its
commands run all five: every factorized operator is tridiagonal.  Arrays
are column-major (LAPACK Users' Guide, 3rd ed., 1999); a missing library or
symbol is an ImportError.  ``call`` checks and converts its arguments on every
call; a solver reusing its factors calls ``LIB``'s routine with their addresses.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from .errors import SolverError

LIBRARY_DIR = Path(np.__file__).parent.parent / "numpy.libs"
COL_MAJOR = 102
# argument types: L the int layout, I int64, C char, D double, P pointer;
# the _work variants skip LAPACKE's NaN scan of their input
_TYPES = dict(L=ctypes.c_int, I=ctypes.c_int64, C=ctypes.c_char,
              D=ctypes.c_double, P=ctypes.c_void_p)
_ARGS = {"zgttrf_work": "IPPPPP", "zgttrs_work": "LCIIPPPPPPI", "zhetrd_work": "LCIPIPPPPI",
         "dstevd": "LCIPPPI", "dstebz": "CCIDDIIDPPPPPPP"}


def _load(directory: Path) -> dict:
    """The routines of ``_ARGS`` from libscipy_openblas64_*.so in ``directory``."""
    symbols = {name: f"scipy_LAPACKE_{name}64_" for name in _ARGS}
    paths = sorted(directory.glob("libscipy_openblas64_*.so"))
    lib = ctypes.CDLL(str(paths[0])) if paths else None
    if lib is None or not all(hasattr(lib, s) for s in symbols.values()):
        raise ImportError(f"lapkit needs {', '.join(symbols.values())} from "
                          f"{directory / 'libscipy_openblas64_*.so'}")
    routines = {name: getattr(lib, symbol) for name, symbol in symbols.items()}
    for name, fn in routines.items():
        fn.argtypes, fn.restype = [_TYPES[c] for c in _ARGS[name]], ctypes.c_int64
    return routines


LIB = _load(LIBRARY_DIR)


def call(name, *args) -> int:
    """LAPACK's info from ``name``, contiguous arrays passed by address."""
    if any(isinstance(a, np.ndarray) and not a.flags.forc for a in args):
        raise ValueError(f"{name}: arrays must be contiguous")
    info = LIB[name](*(a.ctypes.data if isinstance(a, np.ndarray) else a
                       for a in args))
    if info < 0:
        raise ValueError(f"{name}: argument {-info} is illegal")
    return info


def zhetrd(a) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the real tridiag(e, d, e) unitarily similar to the Hermitian ``a``,
    by the unblocked reduction that lwork = n selects: level-2 BLAS, no GEMM."""
    a = np.array(a, dtype=complex, order="F")
    (d, e), (tau, work) = np.empty((2, len(a))), np.empty((2, len(a)), dtype=complex)
    call("zhetrd_work", COL_MAJOR, b"L", len(a), a, len(a), d, e, tau, work, len(a))
    return d, e[:-1]


def dstevd(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvector columns of the real tridiag(e, d, e)."""
    w, e = np.array(d, dtype=float), np.array(e, dtype=float).reshape(max(np.size(d) - 1, 0))
    z = np.empty((w.size, w.size), order="F")
    if call("dstevd", COL_MAJOR, b"V", w.size, w, e, z, max(w.size, 1)):
        raise SolverError(f"dstevd did not converge at size {w.size}")
    return w, z


def dstebz(d, e, lo: float, hi: float) -> np.ndarray:
    """Ascending eigenvalues in (lo, hi] of the real tridiag(e, d, e), by bisection."""
    d, e = np.array(d, dtype=float), np.array(e, dtype=float).reshape(max(np.size(d) - 1, 0))
    w, blocks = np.empty(d.size), np.empty((2, d.size), dtype=np.int64)
    counts = np.zeros(2, dtype=np.int64)        # eigenvalues found, blocks
    if call("dstebz", b"V", b"E", d.size, lo, hi, 0, 0, 0.0, d, e, counts[:1],
             counts[1:], w, blocks[0], blocks[1]):
        raise SolverError(f"dstebz failed at size {d.size}")
    return w[:counts[0]]
