"""Discretized operators on the line and the half-line.

Hamiltonians on the grids of ``lapkit.grids`` use the second-order
central stencil with Dirichlet walls.  The one complex absorbing layer,
``matched_absorber``, is impedance-matched to zero-energy waves and
kept as a separate diagonal array so the Hermitian part stays intact;
its amplitude and width are module constants.  Every operator comes
from the three-point stencil and is a ``BandMatrix``: its three
diagonals, a sum with a diagonal array and a product with a vector.
"""

from __future__ import annotations

import math

import numpy as np

from ._lapack import dstevd
from .errors import DimensionError
from .grids import Grid1D, RadialGrid
from .potential import PotentialModel, bracket, virial_w

__all__ = [
    "BandMatrix",
    "Grid1D",
    "RadialGrid",
    "hermiticity_residual",
    "build_hamiltonian",
    "matched_absorber",
    "build_dilation",
    "commutator_residual",
    "refinement_orders",
    "gaussian_probe",
    "export_triplets",
    "dilation_eigenbasis",
]

# the absorbing layer, calibrated at desk scale (L = 400): its amplitude eta
# and the share of the box it covers
ABSORBER_STRENGTH = 3.0
ABSORBER_WIDTH = 0.375


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

class BandMatrix:
    """Square tridiagonal matrix held as its diagonals ``lower``, ``main`` and
    ``upper``.  A product with a vector sums each row from zero in ascending
    column order, as a sorted CSR row does."""

    def __init__(self, diags):
        self.lower, self.main, self.upper = (np.asarray(d) for d in diags)
        self.shape = (self.main.size,) * 2

    def __add__(self, diagonal: np.ndarray) -> BandMatrix:
        return BandMatrix([self.lower, self.main + diagonal, self.upper])

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0],
                       dtype=np.result_type(self.lower, self.main, self.upper, other))
        out[1:] += _product(self.lower, other[:-1])
        out += _product(self.main, other)
        out[:-1] += _product(self.upper, other[1:])
        return out

    def toarray(self) -> np.ndarray:
        return np.diag(self.lower, -1) + np.diag(self.main) + np.diag(self.upper, 1)


def _product(a, b) -> np.ndarray:
    """a * b, a complex product formed from four real ones as a compiled sparse
    kernel forms it; numpy's loop may fuse them (FMA), depending on its SIMD level."""
    if not (np.iscomplexobj(a) and np.iscomplexobj(b)):
        return a * b
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def hermiticity_residual(m) -> float:
    """max |M - M^*| / max |M| for a band or dense matrix; 0 when exact."""
    m = m.toarray() if isinstance(m, BandMatrix) else np.asarray(m)
    scale = max(float(np.max(np.abs(m))), 1e-300)
    return float(np.max(np.abs(m - m.conj().T))) / scale


def build_hamiltonian(model: PotentialModel | None, grid) -> BandMatrix:
    """H = -Delta + V with Dirichlet walls; V = 0 when model is None."""
    if isinstance(grid, Grid1D):
        if model is not None and model.dim != 1:
            raise DimensionError("line grid needs a 1-d model")
    elif isinstance(grid, RadialGrid):
        if model is not None and model.dim != grid.dim:
            raise DimensionError("model dimension does not match radial grid")
    else:
        raise TypeError("unsupported grid type")
    h = grid.spacing
    main = np.full(grid.size, 2.0 / h**2)
    # mirror closure: ghost value -u_edge puts the Dirichlet wall at
    # +-L exactly (half a cell beyond the outermost node), keeping the
    # eigenvalue error second order; at r = 0 it enforces u(0) = 0
    main[0] = 3.0 / h**2
    if isinstance(grid, Grid1D):
        main[-1] = 3.0 / h**2
    else:
        # the s-wave centrifugal term c / r^2, c = (d-1)(d-3)/4 >= -1/4
        main = main + (grid.dim - 1) * (grid.dim - 3) / 4.0 / grid.nodes**2
    off = np.full(grid.size - 1, -1.0 / h**2)
    pot = np.zeros(grid.size) if model is None else model.total(grid.nodes)
    return BandMatrix([off, main + pot, off])


def matched_absorber(grid, mu: float, kappa: float) -> np.ndarray:
    """Complex absorbing potential impedance-matched to zero-energy waves.

    Slow waves with local momentum f_0 = (K <x>^-mu)^{1/2} reflect off
    a constant-amplitude layer (it is either an overdamped wall or too
    weak to absorb), so the amplitude -i eta t^2 K <x>^-mu, with
    eta = ABSORBER_STRENGTH, tracks the local kinetic scale f_0^2 under
    a quadratic ramp in the depth t, which rises from 0 at the inner
    edge of the layer to 1 at the wall; measured round-trip reflection
    stays near the percent level at desk-scale boxes.  Returned as the
    diagonal array that ``BandMatrix.__add__`` adds to H.
    """
    x = grid.nodes
    scale = kappa * bracket(x) ** (-mu)
    outer = grid.length
    width = ABSORBER_WIDTH * outer
    t = np.clip((np.abs(x) - (outer - width)) / width, 0.0, 1.0)
    ramp = t**2 * scale
    return -1j * ABSORBER_STRENGTH * ramp


def build_dilation(grid) -> BandMatrix:
    """Generator of dilations (x.p + p.x)/2 with centered-difference p.

    Symmetrizing the two orderings makes the matrix exactly Hermitian:
    the entry coupling nodes i and i+1 is -i (x_i + x_{i+1}) / (4h).
    """
    x, h = grid.nodes, grid.spacing
    upper = -1j * (x[:-1] + x[1:]) / (4.0 * h)
    return BandMatrix([upper.conj(), np.zeros(len(x), dtype=complex), upper])


# ---------------------------------------------------------------------------
# Virial commutator check
# ---------------------------------------------------------------------------

def gaussian_probe(grid, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    x = grid.nodes
    return np.exp(-((x - center) ** 2) / (2.0 * width**2)).astype(complex)


def commutator_residual(hm: BandMatrix, am: BandMatrix,
                        model: PotentialModel | None, grid) -> float:
    """Residual of the virial identity i[H, A] = 2H + W on smooth probes.

    Returns max over the probe bank of ||(i[H,A] - 2H - W) phi|| / ||phi||.
    The identity holds for the smooth part of the potential only, so
    the Hamiltonian must be built without V2.  Probes overlapping the
    boundary band (on a small box) are rejected.
    """
    if model is not None and model.v2 is not None:
        raise ValueError("virial identity check requires V2 = 0")
    x = grid.nodes
    probes = [gaussian_probe(grid, center=c, width=w)
              for c in (0.0 if isinstance(grid, Grid1D) else grid.length / 4,)
              for w in (1.0, 2.0)]
    probes.append(gaussian_probe(grid, center=grid.length / 8, width=1.5))
    w_diag = np.zeros(len(x)) if model is None else virial_w(model, x)
    edge = np.abs(x) > 0.9 * grid.length     # the outer tenth of the box
    worst = 0.0
    for phi in probes:
        nrm = np.linalg.norm(phi)
        if not np.linalg.norm(phi[edge]) <= 1e-8 * nrm:
            raise ValueError("probe touches the boundary layer")
        comm = 1j * (hm @ (am @ phi) - am @ (hm @ phi))
        target = 2.0 * (hm @ phi) + w_diag * phi
        worst = max(worst, np.linalg.norm(comm - target) / nrm)
    return worst


def refinement_orders(values) -> list[float]:
    """Observed convergence orders log2(v_k / v_{k+1}) along h-halving."""
    values = list(values)
    return [math.log2(values[i] / values[i + 1]) for i in range(len(values) - 1)]


# ---------------------------------------------------------------------------
# Helpers for estimates in the dilation-generator eigenbasis
# ---------------------------------------------------------------------------

def dilation_eigenbasis(m: BandMatrix):
    """Eigendecomposition of the tridiagonal dilation generator.

    The matrix has purely imaginary off-diagonals, so a diagonal phase
    similarity makes it real symmetric tridiagonal; returns
    (eigenvalues, eigenvectors) in the original basis.  Shell and
    block machinery can then treat A as a multiplication operator.
    """
    upper = m.upper
    mags = np.abs(upper)
    # diagonal phase similarity turns the imaginary off-diagonal real
    turn = np.divide(mags, upper, out=np.ones(len(upper), dtype=complex),
                     where=mags != 0)
    phases = np.concatenate(([1.0 + 0j], np.cumprod(turn)))
    vals, vecs = dstevd(m.main.real, mags)
    return vals, phases[:, None] * vecs


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_triplets(h: BandMatrix, path) -> None:
    """Write the Hamiltonian's nonzero entries, row by row, as text lines
    'row col re im' under a shape header."""
    n = h.shape[0]
    entries = sorted((r, r + j, v) for j, d in ((-1, h.lower), (0, h.main), (1, h.upper))
                     for r, v in zip(range(max(-j, 0), n), d) if v != 0)
    with open(path, "w") as fh:
        fh.write(f"# H shape {n} {n}\n")
        for r, c, v in entries:
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")
