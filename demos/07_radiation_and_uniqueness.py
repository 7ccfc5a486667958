"""The zero-energy outgoing condition and why it pins the solution.

The outgoing boundary value carries its phase-space mass at direction
value +1.  Filtering that region away leaves a vanishing remainder
(decaying defect ladder); keeping it leaves a flat ladder.  Both
boundary values come from one capped solve at z = 0, which a ray ladder
toward zero energy approaches.  The difference of the two boundary values solves the homogeneous equation
in the interior yet fails the outgoing condition, which is the
numerical content of uniqueness.  Reduced scale here; the acceptance
suite runs the desk-scale box where the far-field ratios bind.
"""

import numpy as np

from lapkit.experiments import SOURCE_WIDTH
from lapkit.operators import Grid1D, build_hamiltonian, gaussian_probe, matched_absorber
from lapkit.potential import bracket, standard_model, weight_exponent
from lapkit.resolvent import ShiftedSolver, boundary_value
from lapkit.weyl import radiation_filter

model = standard_model(1.0, 1.0, 1)
grid = Grid1D(200.0, 2048)
h_plain = build_hamiltonian(model, grid)
cap = matched_absorber(grid, mu=model.mu, kappa=model.kappa_low_energy)
h_cap = h_plain + cap
v = gaussian_probe(grid, width=SOURCE_WIDTH)

print("=== the two boundary values ===")
# one factorization of the capped operator at z = 0 gives both:
# (H_cap - 0)^{-1} v is the outgoing value, (H_cap - 0)^{-*} v the incoming
solver = ShiftedSolver(h_cap, 0.0)
u_plus = solver.solve(v)
u_minus = solver.solve_adjoint(v)
print(f"  incoming is the conjugate of outgoing for the real source: "
      f"{np.allclose(u_minus, np.conj(u_plus))}")
# a ray ladder toward 0 is evidence: its last iterate approaches the solve
s = weight_exponent(model.mu)
plus = boundary_value(h_cap, v, grid, s)
weight = bracket(grid.nodes) ** (-s)
gap = np.linalg.norm(weight * (plus.u - u_plus)) / np.linalg.norm(weight * u_plus)
print(f"  ray ladder converged: {plus.converged} after {len(plus.z_values)} "
      f"rungs, weighted distance from the solve {gap:.1e}")

print()
print("=== filter defect ladders for the outgoing value ===")
for mode, story in (("outgoing", "remove direction +1 (must vanish)"),
                    ("high", "keep only high frequencies (must vanish)"),
                    ("mirrored", "keep direction +1 (must persist)")):
    # a bank of one row gives one result
    res, = radiation_filter(u_plus[None], model, grid, mode=mode)
    print(f"  {mode:9s} {story}")
    print("     annulus defect:",
          " ".join(f"{d:.2e}" for d in res.annulus_defect),
          f"  slope {res.annulus_slope:+.2f}")

print()
print("=== uniqueness: the null difference is not outgoing ===")
w = u_plus - u_minus
interior = cap == 0.0
interior[1:] &= interior[:-1].copy()
resid = np.linalg.norm((h_plain @ w)[interior]) / np.linalg.norm(w)
print(f"  H w interior residual: {resid:.1e} (solves the homogeneous equation)")
print(f"  size: |w| / |u_plus| = {np.linalg.norm(w) / np.linalg.norm(u_plus):.3f}")
res, = radiation_filter(w[None], model, grid, mode="outgoing")
print("  outgoing-filter defect of w:",
      " ".join(f"{d:.2e}" for d in res.annulus_defect),
      f" slope {res.annulus_slope:+.2f} (flat: w fails the outgoing condition)")
