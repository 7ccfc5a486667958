"""The shell-norm inequality suite with its explicit constants.

Every inequality the library verifies has a concrete constant: base
change between shell ladders, rescaling of the weight, the power-map
isomorphism, and the two-sided unit-block bracket of the sweep's
weighted resolvent from the shell space into its dual, against the
dense oracles.
"""

import numpy as np

from lapkit.besov import (ShellScheme, accretive_bound,
                          base_equivalence_constants, bstar_norm_dense,
                          power_map_constant, sample_vectors,
                          schur_block_bound, shell_decompose,
                          verify_base_equivalence,
                          verify_power_map, verify_scaling)
from lapkit.grids import Grid1D
from lapkit.operators import build_hamiltonian
from lapkit.potential import WeightParams, standard_model, weight_f
from lapkit.resolvent import RAY, ShiftedSolver, besov_bstar_estimate

rng = np.random.default_rng(1)
scheme = ShellScheme(2.0)
a = np.abs(np.linspace(-30.0, 30.0, 193))
samples = sample_vectors(a, scheme, 150, rng)
# the base-2 norms of each bank, which two of the verifiers take
nb = shell_decompose(samples, a, scheme).besov

print("=== base change: shells on powers of p instead of 2 ===")
for p in (1.5, 3.0, 4.0):
    c_to, c_from = base_equivalence_constants(p)
    check, _ = verify_base_equivalence(samples, a, nb, p)
    print(f"  p = {p:3g}: constants ({c_to:.3f}, {c_from:.3f}), "
          f"worst normalized ratio {check.value:.4f}  "
          f"{'OK' if check.passed else 'VIOLATED'}")

print()
print("=== rescaled weight: norm against cA vs 8 |c|^(1/2), 3 |c|^(1/2) if |c| <= 1 ===")
for c in (1.0, 4.0, 0.25):
    check, _ = verify_scaling(samples, a, c)
    print(f"  c = {c:4g}: worst ratio {check.value:.4f} of the allowance  "
          f"{'OK' if check.passed else 'VIOLATED'}")

print()
print("=== power map A -> A^(1+s) with spectra >= 1 ===")
a1 = np.sqrt(1.0 + np.linspace(-30.0, 30.0, 193) ** 2)
samples1 = sample_vectors(a1, scheme, 150, rng)
nb1 = shell_decompose(samples1, a1, scheme).besov
for s in (1.0, -0.5):
    check, _ = verify_power_map(samples1, a1, nb1, s)
    print(f"  s = {s:4g}: constant {power_map_constant(s):.3f}, worst "
          f"normalized ratio {check.value:.4f}  "
          f"{'OK' if check.passed else 'VIOLATED'}")

print()
print("=== unit-width block bracket of T = f^(1/2) R(z) f^(1/2) into the dual ===")
grid = Grid1D(16.0, 128)
h_op = build_hamiltonian(standard_model(1.0, 1.0, 1), grid)
absx = np.abs(grid.nodes)
for modulus in (1e-1, 1e-2, 1e-4):
    z = modulus * RAY
    f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=1.0), grid.nodes)
    # the sweep's O(n) bracket, then the dense oracles on T from a dense inverse
    est = besov_bstar_estimate(ShiftedSolver(h_op, z), f, grid)
    fh = np.sqrt(f)
    t = fh[:, None] * np.linalg.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    exact, block_sup = bstar_norm_dense(t, absx), schur_block_bound(t, absx)
    print(f"  |z| = {modulus:g}: lower {est.lower:.6f}, exact {exact:.6f} "
          f"(shell-pair enumeration), upper {est.upper:.6f} "
          f"= 2 x block sup {2.0 * block_sup:.6f}")
    # -iT is accretive: Im R(z) = Im z R*R >= 0
    bound = accretive_bound(-1j * t, absx)
    print(f"    bracket holds: {est.lower <= exact * (1 + 1e-12) <= est.upper}; "
          f"accretive combination 2C1+C2+C3 = {bound:.4f} >= block sup "
          f"{block_sup:.4f}: {block_sup <= bound}")
