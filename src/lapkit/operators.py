"""Discretized operators on the line and the half-line.

Hamiltonians on the grids of ``lapkit.grids`` use the second-order
central stencil with Dirichlet walls.  The one complex absorbing layer,
``matched_absorber``, is impedance-matched to zero-energy waves and
kept as a separate diagonal term so the Hermitian part stays intact;
its strength and width come from the configuration.  Every operator is
a plain ``scipy.sparse`` CSR matrix.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError
from .grids import Grid1D, RadialGrid
from .potential import PotentialModel, bracket

__all__ = [
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


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def hermiticity_residual(m) -> float:
    """max |M - M^*| / max |M| for a sparse or dense matrix; 0 when exact."""
    m = sp.csr_matrix(m)
    resid = abs(m - m.conj().T)
    scale = max(abs(m).max(), 1e-300)
    return float(resid.max() / scale) if resid.nnz else 0.0


def _laplacian_1d(grid: Grid1D) -> sp.spmatrix:
    n, h = grid.size, grid.spacing
    main = np.full(n, 2.0 / h**2)
    # mirror closure: ghost value -u_edge puts the Dirichlet wall at
    # +-L exactly (half a cell beyond the outermost node), keeping the
    # eigenvalue error second order
    main[0] = main[-1] = 3.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1])


def _laplacian_radial(grid: RadialGrid) -> sp.spmatrix:
    n, h = grid.size, grid.spacing
    main = np.full(n, 2.0 / h**2)
    # mirror closure at the r = 0 wall: ghost value -u_0 enforces u(0) = 0
    main[0] = 3.0 / h**2
    off = np.full(n - 1, -1.0 / h**2)
    lap = sp.diags([off, main, off], [-1, 0, 1])
    return lap + sp.diags(grid.centrifugal / grid.nodes**2)


def build_hamiltonian(model: PotentialModel | None, grid) -> sp.csr_matrix:
    """H = -Delta + V with Dirichlet walls; V = 0 when model is None."""
    if isinstance(grid, Grid1D):
        if model is not None and model.dim != 1:
            raise DimensionError("line grid needs a 1-d model")
        lap = _laplacian_1d(grid)
        coord = grid.nodes
    elif isinstance(grid, RadialGrid):
        if model is not None and model.dim != grid.dim:
            raise DimensionError("model dimension does not match radial grid")
        lap = _laplacian_radial(grid)
        coord = grid.nodes
    else:
        raise TypeError("unsupported grid type")
    if model is None:
        pot = np.zeros(len(coord))
    else:
        pot = model.v1(np.abs(coord))
        if model.v2 is not None:
            pot = pot + model.v2(np.abs(coord))
    return sp.csr_matrix(lap + sp.diags(pot))


def matched_absorber(grid, mu: float, kappa: float, strength: float,
                     width_fraction: float) -> sp.csr_matrix:
    """Complex absorbing potential impedance-matched to zero-energy waves.

    Slow waves with local momentum f_0 = (K <x>^-mu)^{1/2} reflect off
    a constant-amplitude layer (it is either an overdamped wall or too
    weak to absorb), so the amplitude -i eta t^2 K <x>^-mu tracks the
    local kinetic scale f_0^2 under a quadratic ramp in the depth t,
    which rises from 0 at the inner edge of the layer to 1 at the wall;
    measured round-trip reflection stays near the percent level at
    desk-scale boxes.  Returned as a separate labeled term.
    """
    x = grid.nodes
    scale = kappa * bracket(x) ** (-mu)
    outer = grid.length
    width = width_fraction * outer
    t = np.clip((np.abs(x) - (outer - width)) / width, 0.0, 1.0)
    ramp = t**2 * scale
    return sp.csr_matrix(sp.diags(-1j * strength * ramp))


def build_dilation(grid) -> sp.csr_matrix:
    """Generator of dilations (x.p + p.x)/2 with centered-difference p.

    Symmetrizing the two orderings makes the matrix exactly Hermitian:
    the entry coupling nodes i and i+1 is -i (x_i + x_{i+1}) / (4h).
    """
    x = grid.nodes
    h = grid.spacing
    upper = -1j * (x[:-1] + x[1:]) / (4.0 * h)
    return sp.csr_matrix(sp.diags([upper, upper.conj()], [1, -1]))


# ---------------------------------------------------------------------------
# Virial commutator check
# ---------------------------------------------------------------------------

def gaussian_probe(grid, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    x = grid.nodes
    return np.exp(-((x - center) ** 2) / (2.0 * width**2)).astype(complex)


def _probe_interior(grid, probe):
    """True when the probe has no mass in the outer tenth of the box."""
    edge = np.abs(grid.nodes) > 0.9 * grid.length
    total = np.linalg.norm(probe)
    return total > 0 and np.linalg.norm(probe[edge]) <= 1e-8 * total


def commutator_residual(hm: sp.csr_matrix, am: sp.csr_matrix,
                        model: PotentialModel | None, grid,
                        probes=None) -> float:
    """Residual of the virial identity i[H, A] = 2H + W on smooth probes.

    Returns max over the probe bank of ||(i[H,A] - 2H - W) phi|| / ||phi||.
    The identity holds for the smooth part of the potential only, so
    the Hamiltonian must be built without V2.  Probes overlapping the
    boundary band are rejected.
    """
    if model is not None and model.v2 is not None:
        raise ValueError("virial identity check requires V2 = 0")
    x = grid.nodes
    if probes is None:
        probes = [gaussian_probe(grid, center=c, width=w)
                  for c in (0.0 if isinstance(grid, Grid1D) else grid.length / 4,)
                  for w in (1.0, 2.0)]
        probes.append(gaussian_probe(grid, center=grid.length / 8, width=1.5))
    if model is None:
        w_diag = np.zeros(len(x))
    else:
        from .potential import virial_w
        w_diag = virial_w(model, x)
    worst = 0.0
    for phi in probes:
        nrm = np.linalg.norm(phi)
        if nrm == 0:
            raise ValueError("degenerate probe (zero vector)")
        if not _probe_interior(grid, phi):
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

def dilation_eigenbasis(m: sp.csr_matrix):
    """Eigendecomposition of the tridiagonal dilation generator.

    The matrix has purely imaginary off-diagonals, so a diagonal phase
    similarity makes it real symmetric tridiagonal; returns
    (eigenvalues, eigenvectors) in the original basis.  Shell and
    block machinery can then treat A as a multiplication operator.
    """
    from scipy.linalg import eigh_tridiagonal
    n = m.shape[0]
    diag = m.diagonal().real
    upper = np.asarray(m.diagonal(1)).ravel()
    # diagonal phase similarity turns the imaginary off-diagonal real
    phases = np.ones(n, dtype=complex)
    mags = np.abs(upper)
    for k in range(n - 1):
        if mags[k] == 0:
            phases[k + 1] = phases[k]
        else:
            phases[k + 1] = phases[k] * (mags[k] / upper[k])
    vals, vecs = eigh_tridiagonal(diag, mags)
    vecs = phases[:, None] * vecs
    return vals, vecs


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_triplets(h, path) -> None:
    """Write the Hamiltonian as text lines 'row col re im' under a shape header."""
    coo = h.tocoo()
    with open(path, "w") as fh:
        fh.write(f"# H shape {coo.shape[0]} {coo.shape[1]}\n")
        for r, c, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")
