"""Discrete Hamiltonians, the dilation generator, and the virial identity.

Spectra of the box and radial Hamiltonians converge at second order
to their continuum values, and the commutator of the Hamiltonian with
the symmetrized dilation generator reproduces 2H + W on smooth
probes, with the residual vanishing at the stencil order.
"""

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal

from lapkit.operators import (Grid1D, RadialGrid, build_dilation,
                              build_hamiltonian, commutator_residual,
                              hermiticity_residual, refinement_orders)
from lapkit.potential import coulomb_model, standard_model


def ground_state(h):
    """Lowest eigenvalue of a real symmetric tridiagonal Hamiltonian."""
    return eigh_tridiagonal(h.main.real, h.upper.real,
                            eigvals_only=True, select="i",
                            select_range=(0, 0))[0]


print("=== free box: lowest eigenvalue vs (pi/2L)^2 ===")
exact = (math.pi / 20.0) ** 2
for n in (128, 256, 512):
    val = ground_state(build_hamiltonian(None, Grid1D(10.0, n)))
    print(f"  N = {n:4d}: E0 = {val:.8f}   error {abs(val - exact):.2e}")
print(f"  exact       {exact:.8f}")

print()
print("=== Coulomb well, radial reduction: ground state -> -1/4 ===")
cm = coulomb_model(1.0, 3)
for n in (1024, 2048, 4096):
    g = RadialGrid(60.0, n, dim=3)
    val = ground_state(build_hamiltonian(cm, g))
    print(f"  N = {n:5d}: E0 = {val:.8f}   error {abs(val + 0.25):.2e}")

print()
print("=== virial identity i[H, A] = 2H + W on smooth probes ===")
model = standard_model(1.0, 1.0, 1)
residuals = []
for n in (256, 512, 1024):
    g = Grid1D(20.0, n)
    h_op = build_hamiltonian(model, g)
    a_op = build_dilation(g)
    residuals.append(commutator_residual(h_op, a_op, model, g))
    print(f"  N = {n:4d}: residual {residuals[-1]:.3e}")
print("  observed orders under h-halving:",
      [f"{o:.2f}" for o in refinement_orders(residuals)])

print()
print("=== dilation generator is exactly Hermitian by construction ===")
a_op = build_dilation(Grid1D(20.0, 512))
print(f"  hermiticity residual: {hermiticity_residual(a_op):.1e}")
x = Grid1D(20.0, 512).nodes
gau = np.exp(-x * x / 2).astype(complex)
action = a_op @ gau
analytic = -1j * (-x * x + 0.5) * np.exp(-x * x / 2)
print(f"  action on a Gaussian vs -i(x d/dx + 1/2): "
      f"{np.linalg.norm(action - analytic) / np.linalg.norm(analytic):.2e} relative")
