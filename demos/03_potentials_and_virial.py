"""Potential families, their runtime hypotheses, and the local momentum scale.

The built-in families are slowly decaying attractive wells: the
smooth power-law family -gamma <x>^-mu and the Coulomb well split into
a smooth part plus a compactly supported singular remainder.  Each
carries certified constants that a grid check verifies pointwise,
along with the virial function W = -2 V1 - x . grad V1 whose
positivity drives every resolvent estimate downstream.
"""

import numpy as np

from lapkit.potential import (WeightParams, check_condition, coulomb_model,
                              standard_model, virial_w, weight_f)

radii = np.linspace(0.0, 80.0, 400)

print("=== hypothesis report for the standard family ===")
model = standard_model(gamma=1.0, mu=1.0, dim=1)
checks, _ = check_condition(model, radii)
for check in checks:
    print(f"  {check.check_id} {check.description:42s} "
          f"{'pass' if check.passed else 'FAIL'}  margin {check.value:.3e}")
print(f"certified: eps1 = {model.eps1}, eps1~ = {model.eps1_tilde}, "
      f"s0 = {model.s0}, K = {model.kappa_low_energy}")

print()
print("=== the Coulomb split keeps the total exact ===")
cm = coulomb_model(gamma=1.0, dim=3)
rs = np.array([0.1, 0.5, 0.99, 1.0, 2.0, 10.0])
print("  r      V1          V2          V1+V2      -1/r")
for r in rs:
    v1, v2 = cm.v1(np.array([r]))[0], cm.v2(np.array([r]))[0]
    print(f"  {r:5.2f} {v1:10.5f} {v2:11.5f} {v1 + v2:10.5f} {-1 / r:10.5f}")
cm_checks, _ = check_condition(cm, radii)
print("hypotheses:", "all pass" if all(c.passed for c in cm_checks) else "FAIL")

print()
print("=== virial function and its lower bound ===")
for gamma, mu in ((1.0, 1.0), (2.0, 0.5)):
    m = standard_model(gamma, mu, 1)
    w = virial_w(m, radii)
    floor = m.eps1 * m.eps1_tilde * (1.0 + radii**2) ** (-mu / 2.0)
    print(f"  gamma={gamma}, mu={mu}: W(0) = {w[0]:.3f}, "
          f"min (W - floor) = {np.min(w - floor):.3e}")

print()
print("=== local momentum scale f_lambda ===")
for lam in (0.0, 1e-3, 1e-1):
    f = weight_f(WeightParams(lam, 1.0, 1.0), radii)
    crossover = radii[np.argmin(np.abs(f**2 - 2 * lam))] if lam else np.inf
    print(f"  lambda = {lam:7.1e}: f(0) = {f[0]:.4f}, f(80) = {f[-1]:.4f}, "
          f"potential/energy crossover near |x| ~ {crossover:.0f}")
print("at zero energy the scale decays like <x>^(-mu/2): slow waves far out")
