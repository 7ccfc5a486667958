"""Resolvent norms across the low-energy sector.

The contrast at the heart of the low-energy theory: the plain
resolvent norm, exactly 1 / dist(z, spectrum) for the self-adjoint H,
blows up like 1/|z| on the approach to zero, while the
same resolvent framed by the local momentum weight f_|z|^(1/2) stays
bounded, both in the weighted operator norm and from the shell space
into its dual.  Runs at a reduced box for speed; the shipped
standard1d.cfg reproduces the desk-scale sweep through the command
line.
"""

import cmath
import math

import numpy as np

from lapkit.operators import Grid1D, build_hamiltonian
from lapkit.potential import WeightParams, bracket, standard_model, weight_f
from lapkit.resolvent import (besov_bstar_estimate, boundary_value,
                              spectral_distance, weighted_opnorm)
from lapkit.operators import matched_absorber

model = standard_model(1.0, 1.0, 1)
grid = Grid1D(100.0, 1024)
h_op = build_hamiltonian(model, grid)
rng = np.random.default_rng(0)
ray = 3 * math.pi / 8
x = grid.nodes

print("=== norm estimates along the ray arg z = 3 pi / 8 ===")
print("  |z|      plain ||R||    weighted      shell-dual bracket")
for mod in (1e-1, 1e-2, 1e-3):
    z = mod * cmath.exp(1j * ray)
    plain = 1.0 / spectral_distance(h_op, z)
    f = weight_f(WeightParams(mod, 1.0, 1.0), x)
    wgt = bracket(x) ** (-0.8) * np.sqrt(f)
    weighted = weighted_opnorm(h_op, z, wgt, wgt, rng=rng).lower
    est = besov_bstar_estimate(h_op, z, model, grid)
    print(f"  {mod:7.0e}  {plain:11.2f}  {weighted:11.4f}   "
          f"[{est.lower:.4f}, {est.upper:.4f}]")
print("plain norm grows ~ 1/|z|; the framed quantities barely move")

print()
print("=== extrapolating the boundary value at zero energy ===")
cap = matched_absorber(grid, mu=model.mu, kappa=model.kappa_low_energy)
v = np.exp(-x**2 / 8.0).astype(complex)
res = boundary_value(h_op + cap, v, grid, tol=1e-4, max_steps=24)
print(f"  converged: {res.converged} after {len(res.z_values)} rungs, "
      f"final |z| = {abs(res.final_z):.1e}")
print("  difference ladder:",
      " ".join(f"{d:.1e}" for d in res.diffs[:8]), "...")
ratios = [res.diffs[i + 1] / res.diffs[i] for i in range(len(res.diffs) - 1)]
print(f"  per-step ratios settle to ~{ratios[-1]:.2f} "
      f"(geometric, matching the ladder ratio 0.5)")
