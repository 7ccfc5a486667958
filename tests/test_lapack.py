"""The LAPACK bindings against scipy as the oracle: same inputs, same bits."""

import _ctypes
import os

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import zgttrf, zgttrs

from lapkit import _lapack
from lapkit.errors import SolverError
from lapkit.resolvent import _band_lu


def _complex_bands(rng, n):
    """Diagonal and off-diagonal of a random complex-symmetric tridiagonal,
    diagonally heavy."""
    main, off = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (n, n - 1))
    return main + 8.0, off


def _rhs(rng, n, columns):
    shape = (n,) if columns is None else (n, columns)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("dominant", [True, False], ids=["dominant", "interchanging"])
@pytest.mark.parametrize("columns", [None, 2], ids=["vector", "two-columns"])
def test_band_lu_matches_scipy_zgttrf_zgttrs(columns, dominant, rng):
    # LAPACK's tridiagonal LU; without a dominant diagonal it
    # interchanges rows, so the solve reads du2 and ipiv too
    n = 257
    main, off = _complex_bands(rng, n)
    main = main if dominant else main - 8.0
    factors = zgttrf(off, main, off)
    assert factors[-1] == 0
    assert np.array_equal(factors[4], np.arange(1, n + 1)) == dominant
    rhs = _rhs(rng, n, columns)
    expected, info = zgttrs(*factors[:-1], rhs)
    assert info == 0
    got = _band_lu([main, off])(rhs)
    assert got.shape == expected.shape
    assert got.tobytes() == np.asfortranarray(expected).tobytes()


def test_band_lu_zero_pivot_raises():
    # diagonal 1, 0, 3 with no coupling: the second pivot is exactly zero
    with pytest.raises(SolverError, match="zero pivot 2 of 3"):
        _band_lu([np.array([1.0, 0.0, 3.0], dtype=complex), np.zeros(2)])


@pytest.mark.parametrize("k", [1, 5, 15, 128])
def test_dstevd_matches_scipy_eigh_tridiagonal(k, rng):
    d, e = rng.standard_normal(k), rng.standard_normal(k - 1)
    w_ref, v_ref = eigh_tridiagonal(d, e)
    w, v = _lapack.dstevd(d, e)
    assert w.tobytes() == w_ref.tobytes()
    assert v.tobytes() == np.asfortranarray(v_ref).tobytes()
    assert v.flags.f_contiguous and v_ref.flags.f_contiguous


@pytest.mark.parametrize("zeros", [0, 1, 3], ids=["full", "one-zero", "three-zeros"])
def test_zhetrd_tridiagonal_keeps_the_spectrum(zeros, rng):
    # (d, e) of a Hermitian matrix, sizes 1 to 12, with zero rows and
    # columns as a weight vanishing on part of a block gives: the real
    # tridiag(e, d, e) has the matrix's eigenvalues
    for k in range(1, 13):
        s = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        s[:, rng.permutation(k)[:zeros]] = 0.0
        a = s.conj().T @ s
        d, e = _lapack.zhetrd(a)
        assert d.shape == (k,) and e.shape == (k - 1,)
        expected = np.linalg.eigvalsh(a)
        got = eigvalsh_tridiagonal(d, e)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected)), k


@pytest.mark.parametrize("window", [(-0.1, 0.1), (0.3, 0.31), (7.0, 8.0)])
def test_dstebz_window_matches_scipy(window, rng):
    d, e = rng.standard_normal(2048), rng.standard_normal(2047)
    expected = eigvalsh_tridiagonal(d, e, select="v", select_range=window)
    got = _lapack.dstebz(d, e, *window)
    assert got.tobytes() == expected.tobytes()


def test_tridiagonal_bindings_reject_a_short_off_diagonal():
    # LAPACK reads n - 1 off-diagonal entries whatever it is given
    with pytest.raises(ValueError):
        _lapack.dstevd(np.ones(4), np.ones(2))
    with pytest.raises(ValueError):
        _lapack.dstebz(np.ones(4), np.ones(2), -1.0, 1.0)


def test_call_rejects_a_strided_array():
    d = np.ones(8)[::2]
    with pytest.raises(ValueError, match="contiguous"):
        _lapack.call("dstevd", _lapack.COL_MAJOR, b"N", 4, d, np.ones(3), np.ones(1), 1)


def test_missing_library_raises_import_error(tmp_path):
    with pytest.raises(ImportError, match="scipy_LAPACKE_zgttrs_work64_") as err:
        _lapack._load(tmp_path)
    assert str(tmp_path / "libscipy_openblas64_*.so") in str(err.value)


def test_library_without_the_symbols_raises_import_error(tmp_path):
    # a loadable shared library under the searched name, but not OpenBLAS
    os.symlink(_ctypes.__file__, tmp_path / "libscipy_openblas64_stand-in.so")
    with pytest.raises(ImportError, match="scipy_LAPACKE_dstebz64_"):
        _lapack._load(tmp_path)
