"""Phase-space quantization and the direction cutoffs.

The midpoint quantization rule turns symbols c(x, xi) into matrices
through one batched FFT.  Constant symbols give the identity exactly,
real symbols give Hermitian matrices, and the two scaled symbols
a0 = xi^2 / f0^2 and b0 = (xi/f0)(x/<x>) localize where a wave lives
in energy and in travel direction.
"""

import numpy as np

from lapkit.operators import Grid1D, hermiticity_residual
from lapkit.potential import WeightParams, standard_model
from lapkit.weyl import (FilterSpec, filter_symbol, symbol_a0, weyl_apply,
                         weyl_matrix)

grid = Grid1D(20.0, 256)
model = standard_model(1.0, 1.0, 1)
params = WeightParams(0.0, model.kappa_low_energy, model.mu)

print("=== quantization sanity ===")
ident = weyl_matrix(lambda x, xi: np.ones(np.broadcast_shapes(
    np.shape(x), np.shape(xi))), grid)
print(f"  Op(1) = identity exactly: "
      f"{np.max(np.abs(ident - np.eye(256))):.1e}")
mom = weyl_matrix(lambda x, xi: xi + 0.0 * x, grid)
k = grid.frequencies[180]
wave = np.exp(1j * k * grid.nodes)
print(f"  Op(xi) on a plane wave: eigenvalue error "
      f"{np.max(np.abs(mom @ wave - k * wave)):.1e}")
a0 = symbol_a0(params)
quant = weyl_matrix(a0, grid)
print(f"  real symbol -> Hermitian: residual {hermiticity_residual(quant):.1e}")

print()
print("=== direction symbol separates outgoing from incoming ===")
wide = Grid1D(100.0, 1024)
x = wide.nodes
f0 = np.sqrt(params.kappa) * (1 + x**2) ** (-params.mu / 4)
spec = FilterSpec.for_model(model, sigma_cut=0.5, tilde_width=0.8,
                            neighborhood_margin=2.0)
# outgoing mass moves away from the origin on both sides: the local
# frequency is sign(x) f0(x), so the direction value sits near +1
integral = np.cumsum(f0) * wide.spacing
phase = np.abs(integral - integral[len(x) // 2])
taper = np.clip((np.abs(x) - 5) / 10, 0, 1) * np.clip((90 - np.abs(x)) / 10, 0, 1)
envelope = taper * f0 ** -0.5
waves = {"outgoing": envelope * np.exp(1j * phase),
         "incoming": envelope * np.exp(-1j * phase)}
# chi_-(a0) chi~_-(b0) vanishes outside a frequency band, and both waves
# share each symbol table as the two columns of one block
outgoing, band = filter_symbol(spec, params, "outgoing")
block = np.column_stack(list(waves.values()))
kept = weyl_apply(outgoing, wide, block, band=band)
for j, (name, wave) in enumerate(waves.items()):
    frac = np.linalg.norm(kept[:, j]) / np.linalg.norm(wave)
    print(f"  {name} wave: fraction surviving the 'remove direction +1' "
          f"cutoff: {frac:.3f}")
print("the cutoff removes the outgoing wave and keeps the incoming one")

print()
print("=== partition of unity is exact ===")
low = weyl_matrix(lambda x, xi: spec.chi_minus(a0(x, xi)), grid)
high = weyl_matrix(lambda x, xi: spec.chi_plus(a0(x, xi)), grid)
print(f"  Op(chi_-) + Op(chi_+) - I: {np.max(np.abs(low + high - np.eye(256))):.1e}")
