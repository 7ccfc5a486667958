"""Shell-space norms of vectors against a multiplication weight.

Walks through the dyadic shell decomposition, the primal (weighted
sum) and dual (weighted sup) norms, the factor-2 sandwich between the
dual norm and normalized ball norms, and the vanishing-defect ladder
that stands in for membership in the small dual space.  Every norm
takes a bank, an (m, n) array of rows, and returns one value per row.
"""

import numpy as np

from lapkit.besov import ShellScheme, defect_ladder, shell_decompose

rng = np.random.default_rng(0)
scheme = ShellScheme(2.0)

# weight values |x| on a toy grid
x = np.linspace(-40.0, 40.0, 257)
a = np.abs(x)

print("=== single vector, full profile ===")
u = np.exp(-((x - 5.0) ** 2) / 18.0) * np.exp(0.4j * x)
prof = shell_decompose(u[None], a, scheme)      # a bank of one row
norms = prof.shell_norms[0]
print(f"shells: {len(prof.radii)}, radii up to {prof.radii[-1]:g}")
for j, (r, n) in enumerate(zip(prof.radii, norms), start=1):
    print(f"  shell {j:2d}  [{0 if j == 1 else r / 2:5.1f}, {r:5.1f})   norm {n:.4f}")
print(f"plain norm     {prof.total_norm[0]:.6f}")
print(f"primal norm    {prof.besov[0]:.6f}   (weighted shell sum)")
print(f"dual norm      {prof.dual[0]:.6f}   (weighted shell sup)")
print(f"partition check: sum of squares - norm^2 = "
      f"{abs(np.sum(norms**2) - prof.total_norm[0]**2):.2e}")

print()
print("=== duality sandwich: dual <= ball sup <= 2 x dual ===")
bank = rng.standard_normal((4, 257)) + 1j * rng.standard_normal((4, 257))
pv = shell_decompose(bank, a, scheme)
for trial, (d, s) in enumerate(zip(pv.dual, pv.ball_sup)):
    print(f"  trial {trial}: dual {d:.4f}  ball-sup {s:.4f}  ratio {s / d:.4f}")

print()
print("=== vanishing defect: compactly supported vs spread-out mass ===")
ladder = [4.0, 8.0, 16.0, 32.0]
compact = np.where(a < 3.0, 1.0 + 0j, 0.0)
spread = (1.0 + a) ** 0.25 + 0j     # mimics extremal dual-norm growth
# exponent 1/2 and annulus_eps 0: the ball form R^-1/2 ||F(|A| < R) u||
ladders = defect_ladder(np.stack((compact, spread)), a, ladder, 0.5, 0.0)
for label, vals in zip(("compact", "spread"), ladders):
    tail = np.max(vals[len(vals) // 2:])    # the top half of the ladder
    print(f"  {label:8s} defect ladder " +
          " ".join(f"{t:.3f}" for t in vals) + f"   tail statistic {tail:.3f}")
print("the compact vector's ladder decays like R^-1/2; the spread one stalls")
