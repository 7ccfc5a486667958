"""The shell-norm inequality suite with its explicit constants.

Every inequality the library verifies has a concrete constant: base
change between shell ladders, rescaling of the weight, the power-map
isomorphism, and the two-sided unit-block bracket for operators from
the shell space into its dual.
"""

import numpy as np

from lapkit.besov import (ShellScheme, accretive_bound,
                          base_equivalence_constants, bstar_norm_dense,
                          power_map_constant, probe_lower_bound,
                          sample_vectors, schur_block_bound,
                          verify_base_equivalence, verify_power_map,
                          verify_scaling)

rng = np.random.default_rng(1)
scheme = ShellScheme(2.0)
a = np.abs(np.linspace(-30.0, 30.0, 193))
samples = sample_vectors(a, scheme, 150, rng)

print("=== base change: shells on powers of p instead of 2 ===")
for p in (1.5, 3.0, 4.0):
    c_to, c_from = base_equivalence_constants(p)
    check, _ = verify_base_equivalence(samples, a, p)
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
for s in (1.0, -0.5):
    check, _ = verify_power_map(samples1, a1, s)
    print(f"  s = {s:4g}: constant {power_map_constant(s):.3f}, worst "
          f"normalized ratio {check.value:.4f}  "
          f"{'OK' if check.passed else 'VIOLATED'}")

print()
print("=== unit-width block bracket for an operator into the dual ===")
n = 96
small = np.abs(np.linspace(-12.0, 12.0, n))
body = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 5
t = np.where(band, body, 0.0)
lower = probe_lower_bound(t, small, rng)
exact = bstar_norm_dense(t, small)
upper = 2.0 * schur_block_bound(t, small)
print(f"  probe lower bound   {lower:.4f}")
print(f"  exact dual norm     {exact:.4f}   (shell-pair enumeration)")
print(f"  2 x block sup       {upper:.4f}")
print("  bracket holds:", lower <= exact <= upper)

t_acc = np.eye(n) + np.where(band, body - body.conj().T, 0.0)
bound, block_sup = accretive_bound(t_acc, small), schur_block_bound(t_acc, small)
print(f"  accretive combination 2C1+C2+C3 = {bound:.4f} "
      f">= block sup {block_sup:.4f}:", block_sup <= bound)
