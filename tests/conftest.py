import os
import tracemalloc

# the CLI's and the bench's one-thread OpenBLAS policy, set before
# anything in the test process loads numpy (lapkit/__init__ comes too late)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def live_at_entry(monkeypatch):
    """Trace allocations for the test; ``live_at_entry(owner, name)``
    wraps ``owner.name`` and returns the list to which each call first
    appends tracemalloc's current traced bytes.

    Traced bytes count what Python and numpy hold, independent of the
    allocator and the machine, unlike the resident set size.
    """
    def wrap(owner, name):
        seen, inner = [], getattr(owner, name)

        def entered(*args, **kwargs):
            seen.append(tracemalloc.get_traced_memory()[0])
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, entered)
        return seen

    tracemalloc.start()
    try:
        yield wrap
    finally:
        tracemalloc.stop()


def free_resolvent_kernel(z, x, y):
    """Continuum kernel of (-d^2/dx^2 - z)^{-1} in one dimension.

    G(x, y) = (i / (2 sqrt(z))) exp(i sqrt(z) |x - y|) with the branch
    Im sqrt(z) > 0.
    """
    k = np.sqrt(complex(z))
    if k.imag < 0:
        k = -k
    return 1j / (2.0 * k) * np.exp(1j * k * np.abs(np.asarray(x) - y))


def free_resolvent_gaussian(z, x, width):
    """Closed form of (-d^2/dx^2 - z)^{-1} applied to exp(-x^2/(2 w^2)).

    Splitting the kernel integral at y = x gives two half-line Gaussian
    integrals; each reduces to the Faddeeva function w(zeta) through
    erfc(zeta) = exp(-zeta^2) w(i zeta), which keeps every factor
    representable (no exp(k^2 w^2 / 2) overflow):

        J(x) = w sqrt(pi/2) exp(-x^2/(2 w^2)) w_F(i (x/(w sqrt(2)) - i k w/sqrt(2)))
        u(x) = (i / (2 k)) (J(x) + J(-x)).
    """
    from scipy.special import wofz
    k = np.sqrt(complex(z))
    if k.imag < 0:
        k = -k
    x = np.asarray(x, dtype=float)

    def half(xv):
        zeta = xv / (width * np.sqrt(2.0)) - 1j * k * width / np.sqrt(2.0)
        return (width * np.sqrt(np.pi / 2.0)
                * np.exp(-xv**2 / (2.0 * width**2)) * wofz(1j * zeta))

    return 1j / (2.0 * k) * (half(x) + half(-x))


def lattice_free_kernel(z, h, i, j):
    """Exact kernel of the infinite-lattice second-order stencil.

    With dispersion 2 (1 - cos(kappa h)) / h^2 = z and Im kappa > 0 the
    inverse acting on the discrete delta e_j / h is
    (i h / (2 sin(kappa h))) exp(i kappa h |i - j|).
    """
    kappa_h = np.arccos(1.0 - z * h * h / 2.0)
    if np.imag(kappa_h) < 0:
        kappa_h = -kappa_h
    return (1j * h / (2.0 * np.sin(kappa_h))) * np.exp(
        1j * kappa_h * np.abs(i - j))
