import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from lapkit.errors import DimensionError
from lapkit.operators import (Grid1D, RadialGrid, absorbing_layer,
                              build_dilation, build_hamiltonian,
                              commutator_residual, dilation_eigenbasis,
                              export_triplets, gaussian_probe,
                              hermiticity_residual, matched_absorber,
                              refinement_orders)
from lapkit.potential import coulomb_model, standard_model


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_nodes_symmetric():
    g = Grid1D(10.0, 64)
    assert g.spacing == pytest.approx(20.0 / 64)
    assert np.allclose(g.nodes, -g.nodes[::-1])
    assert len(g.frequencies) == 64
    assert g.frequencies[0] == pytest.approx(-math.pi / 10.0 * 32)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(10.0, 48)          # not a power of two
    with pytest.raises(ValueError):
        Grid1D(-1.0, 64)
    with pytest.raises(ValueError):
        RadialGrid(10.0, 32, dim=0)


def test_radial_grid_centrifugal():
    g = RadialGrid(10.0, 32, dim=3, ell=0)
    assert g.centrifugal == pytest.approx(0.0)
    assert np.all(g.nodes > 0)
    g2 = RadialGrid(10.0, 32, dim=3, ell=1)
    assert g2.centrifugal == pytest.approx(2.0)
    g3 = RadialGrid(10.0, 32, dim=2, ell=0)
    assert g3.centrifugal == pytest.approx(-0.25)


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def test_box_ground_state_convergence():
    # Dirichlet box of width 2L: lowest eigenvalue (pi / 2L)^2
    exact = (math.pi / 20.0) ** 2
    errors = []
    for n in (128, 256, 512):
        h_op = build_hamiltonian(None, Grid1D(10.0, n))
        val = spla.eigsh(h_op, k=1, which="SA",
                         return_eigenvectors=False)[0]
        errors.append(abs(val - exact))
    orders = refinement_orders(errors)
    assert all(o > 1.8 for o in orders)


def test_hydrogen_ground_state_convergence():
    # -Delta - gamma/|x| in three dimensions: ground state -gamma^2/4
    model = coulomb_model(1.0, 3)
    errors = []
    for n in (1024, 2048, 4096):
        g = RadialGrid(60.0, n, dim=3, ell=0)
        m = build_hamiltonian(model, g)
        # the radial operator is real symmetric tridiagonal
        val = sla.eigh_tridiagonal(m.diagonal().real, m.diagonal(1).real,
                                   eigvals_only=True, select="i",
                                   select_range=(0, 0))[0]
        errors.append(abs(val + 0.25))
    assert errors[-1] < 2e-5
    assert errors[0] > errors[1] > errors[2]


def test_hermiticity():
    m = standard_model(1.0, 1.0, 1)
    h_op = build_hamiltonian(m, Grid1D(20.0, 128))
    assert hermiticity_residual(h_op) <= 1e-12
    rows, cols = h_op.nonzero()
    assert np.max(np.abs(rows - cols)) == 1


def test_dimension_mismatch():
    m = standard_model(1.0, 1.0, 3)
    with pytest.raises(DimensionError):
        build_hamiltonian(m, Grid1D(10.0, 64))
    with pytest.raises(DimensionError):
        build_hamiltonian(standard_model(1.0, 1.0, 1),
                          RadialGrid(10.0, 32, dim=3))


def test_absorbing_layer_shape():
    g = Grid1D(40.0, 256)
    cap = absorbing_layer(g, strength=2.0, width_fraction=0.25)
    d = cap.diagonal()
    assert np.all(d.real == 0.0)
    assert np.all(d.imag <= 0.0)
    inner = np.abs(g.nodes) < 30.0 - g.spacing
    assert np.all(d.imag[inner] == 0.0)
    assert d.imag[0] == pytest.approx(-2.0, rel=1e-4)
    with pytest.raises(ValueError):
        absorbing_layer(g, profile="bogus")


def test_matched_absorber_scales_with_local_energy():
    g = Grid1D(40.0, 256)
    cap = matched_absorber(g, mu=1.0, kappa=2.0, strength=1.0,
                           width_fraction=0.375)
    d = cap.diagonal().imag
    x = g.nodes
    edge = np.argmax(np.abs(x))
    ramp = ((abs(x[edge]) - 25.0) / 15.0) ** 2
    assert d[edge] == pytest.approx(
        -ramp * 2.0 / math.sqrt(1 + x[edge] ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# dilation generator and the virial identity
# ---------------------------------------------------------------------------

def test_dilation_hermitian_and_action(rng):
    g = Grid1D(20.0, 512)
    a_op = build_dilation(g)
    assert hermiticity_residual(a_op) <= 1e-12
    u = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    assert abs(np.vdot(u, a_op @ u).imag) <= 1e-9 * np.linalg.norm(u) ** 2
    # analytic action on a Gaussian: -i (x d/dx + 1/2) e^{-x^2/2}
    x = g.nodes
    gau = np.exp(-x * x / 2.0).astype(complex)
    exact = -1j * (-x * x + 0.5) * np.exp(-x * x / 2.0)
    err1 = np.linalg.norm(a_op @ gau - exact)
    g2 = g.refine()
    x2 = g2.nodes
    gau2 = np.exp(-x2 * x2 / 2.0).astype(complex)
    exact2 = -1j * (-x2 * x2 + 0.5) * np.exp(-x2 * x2 / 2.0)
    err2 = np.linalg.norm(build_dilation(g2) @ gau2 - exact2)
    # one factor of sqrt(2) from the norm scaling under refinement
    assert err1 / err2 > 2.0 ** 1.4


def test_dilation_parity_commutes():
    # x and p are both parity-odd, so their symmetrized product is even
    g = Grid1D(10.0, 128)
    a = build_dilation(g).toarray()
    p = np.eye(128)[::-1]
    assert np.allclose(p @ a @ p, a)
    assert np.allclose(p @ (a @ a) @ p, a @ a)


@pytest.mark.parametrize("model", [None, standard_model(1.0, 1.0, 1),
                                   standard_model(2.0, 0.5, 1)])
def test_commutator_identity_order(model):
    residuals = []
    for n in (256, 512, 1024):
        g = Grid1D(20.0, n)
        h_op = build_hamiltonian(model, g)
        a_op = build_dilation(g)
        residuals.append(commutator_residual(h_op, a_op, model, g))
    orders = refinement_orders(residuals)
    assert all(o >= 1.8 for o in orders), (residuals, orders)


def test_commutator_rejects_bad_probes():
    g = Grid1D(20.0, 256)
    h_op = build_hamiltonian(None, g)
    a_op = build_dilation(g)
    with pytest.raises(ValueError):
        commutator_residual(h_op, a_op, None, g,
                            probes=[np.zeros(256, dtype=complex)])
    with pytest.raises(ValueError):
        commutator_residual(h_op, a_op, None, g,
                            probes=[np.ones(256, dtype=complex)])
    m = coulomb_model(1.0, 3)
    with pytest.raises(ValueError):
        commutator_residual(h_op, a_op, m, g)


def test_dilation_eigenbasis_reconstructs():
    g = Grid1D(15.0, 256)
    a_op = build_dilation(g)
    vals, vecs = dilation_eigenbasis(a_op)
    rec = (vecs * vals) @ vecs.conj().T
    assert np.max(np.abs(rec - a_op.toarray())) <= 1e-10
    assert np.max(np.abs(vecs @ vecs.conj().T - np.eye(256))) <= 1e-10


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_triplets_round_trip(tmp_path):
    m = standard_model(1.0, 1.0, 1)
    h_op = build_hamiltonian(m, Grid1D(5.0, 16))
    path = tmp_path / "H.txt"
    export_triplets(h_op, path)
    rows = np.loadtxt(path, comments="#")
    dense = np.zeros((16, 16), dtype=complex)
    for r, c, re, im in rows:
        dense[int(r), int(c)] = re + 1j * im
    assert np.allclose(dense, h_op.toarray())
