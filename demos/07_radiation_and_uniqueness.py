"""The zero-energy outgoing condition and why it pins the solution.

The outgoing boundary value carries its phase-space mass at direction
value +1.  Filtering that region away leaves a vanishing remainder
(decaying defect ladder); keeping it leaves a flat ladder.  The
difference of the two boundary values solves the homogeneous equation
in the interior yet fails the outgoing condition, which is the
numerical content of uniqueness.  Reduced scale here; the acceptance
suite runs the desk-scale box where the far-field ratios bind.
"""

import numpy as np

from lapkit.operators import Grid1D, build_hamiltonian, gaussian_probe, matched_absorber
from lapkit.potential import standard_model
from lapkit.resolvent import ShiftedSolver, boundary_value
from lapkit.weyl import FilterSpec, radiation_filter

model = standard_model(1.0, 1.0, 1)
grid = Grid1D(200.0, 2048)
h_plain = build_hamiltonian(model, grid)
cap = matched_absorber(grid, mu=model.mu, kappa=model.kappa_low_energy)
h_cap = h_plain + cap
v = gaussian_probe(grid, width=2.0)

print("=== the two boundary values ===")
plus = boundary_value(h_cap, v, grid, tol=1e-4, max_steps=24)
minus = boundary_value(h_cap, v, grid, tol=1e-4, max_steps=24, sign=-1)
print(f"  outgoing converged: {plus.converged}; incoming is its conjugate "
      f"for the real source: {np.allclose(minus.u, np.conj(plus.u))}")

spec = FilterSpec.for_model(model, sigma_cut=0.5, neighborhood_margin=2.0,
                            tilde_width=0.8)
ladder = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 100.0])

print()
print("=== filter defect ladders for the outgoing value ===")
for mode, story in (("outgoing", "remove direction +1 (must vanish)"),
                    ("high", "keep only high frequencies (must vanish)"),
                    ("mirrored", "keep direction +1 (must persist)")):
    res = radiation_filter(plus.u, spec, model, grid, ladder=ladder, mode=mode)
    print(f"  {mode:9s} {story}")
    print("     annulus defect:",
          " ".join(f"{d:.2e}" for d in res.annulus_defect),
          f"  slope {res.annulus_slope:+.2f}")

print()
print("=== uniqueness: the null difference is not outgoing ===")
# one factorization gives both: (H_cap - 0)^{-*} v is the incoming value
solver = ShiftedSolver(h_cap, 0.0)
u_plus = solver.solve(v)
u_minus = solver.solve_adjoint(v)
w = u_plus - u_minus
interior = np.abs(cap.diagonal()) == 0.0
interior[1:] &= interior[:-1].copy()
resid = np.linalg.norm((h_plain @ w)[interior]) / np.linalg.norm(w)
print(f"  H w interior residual: {resid:.1e} (solves the homogeneous equation)")
print(f"  size: |w| / |u_plus| = {np.linalg.norm(w) / np.linalg.norm(u_plus):.3f}")
res = radiation_filter(w, spec, model, grid, ladder=ladder, mode="outgoing")
print("  outgoing-filter defect of w:",
      " ".join(f"{d:.2e}" for d in res.annulus_defect),
      f" slope {res.annulus_slope:+.2f} (flat: w fails the outgoing condition)")
