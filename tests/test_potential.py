import math
from dataclasses import replace

import numpy as np
import pytest

from lapkit.potential import (PotentialModel, WeightParams, bracket,
                              check_condition, coulomb_model, model_from_config,
                              standard_model, virial_w, weight_f)

RADII = np.linspace(0.0, 50.0, 201)


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def test_weight_values():
    assert weight_f(WeightParams(0.0, 1.0, 1.0), 0.0) == pytest.approx(1.0)
    assert weight_f(WeightParams(3.0, 1.0, 1.0), 0.0) == pytest.approx(2.0)


def test_weight_kappa_from_model():
    m = standard_model(1.0, 1.0, 1)
    # eps1 eps1~ / (2 - mu) = 1 for the unit model at mu = 1
    assert m.kappa_low_energy == pytest.approx(1.0)
    f0 = weight_f(WeightParams(0.0, m.kappa_low_energy, 1.0), RADII)
    assert np.allclose(f0, (1.0 + RADII**2) ** -0.25)


def test_weight_monotone_and_floor():
    params = WeightParams(0.25, 2.0, 1.5)
    vals = weight_f(params, RADII)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= math.sqrt(0.25))
    # f^2 - lambda = K <x>^-mu exactly
    assert np.allclose(vals**2 - 0.25, 2.0 * (1 + RADII**2) ** -0.75)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightParams(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        WeightParams(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        WeightParams(0.0, 1.0, 2.5)


def test_weight_gradient_bound():
    # |d/dx f^s| <= C f^s <x>^{-1} with C independent of lambda (s = +-1)
    h = 1e-5
    xs = np.linspace(0.0, 100.0, 501)
    for lam in (0.0, 0.03, 0.2, 1.0):
        params = WeightParams(lam, 1.0, 1.0)
        for s in (1.0, -1.0):
            f_hi = weight_f(params, xs + h) ** s
            f_lo = weight_f(params, np.abs(xs - h)) ** s
            deriv = np.abs(f_hi - f_lo) / (2 * h)
            bound = weight_f(params, xs) ** s * (1 + xs**2) ** -0.5
            assert np.all(deriv <= 0.55 * bound + 1e-12), lam


# ---------------------------------------------------------------------------
# virial function
# ---------------------------------------------------------------------------

def test_virial_symbolic_oracle():
    # exact W for V1 = -<x>^-1 from symbolic differentiation
    import sympy as sy
    x = sy.symbols("x", real=True)
    v1 = -1 / sy.sqrt(1 + x**2)
    w_sym = sy.lambdify(x, sy.simplify(-2 * v1 - x * sy.diff(v1, x)))
    m = standard_model(1.0, 1.0, 1)
    xs = np.linspace(0.0, 30.0, 301)
    assert np.allclose(virial_w(m, xs), w_sym(xs), rtol=1e-12)
    assert virial_w(m, 0.0) == pytest.approx(2.0)


def test_virial_closed_form_and_bound():
    m = standard_model(1.0, 1.0, 1)
    xs = np.linspace(0.0, 40.0, 400)
    closed = (2.0 - xs**2 / (1 + xs**2)) / np.sqrt(1 + xs**2)
    assert np.allclose(virial_w(m, xs), closed, rtol=1e-12)
    assert np.all(virial_w(m, xs) >= (1 + xs**2) ** -0.5 - 1e-14)


def test_virial_scales_linearly():
    m1 = standard_model(1.0, 0.8, 1)
    m3 = standard_model(3.0, 0.8, 1)
    xs = np.linspace(0.0, 10.0, 50)
    assert np.allclose(virial_w(m3, xs), 3.0 * virial_w(m1, xs), rtol=1e-13)


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------

def test_standard_model_passes():
    checks, witnesses = check_condition(standard_model(1.0, 1.0, 1), RADII)
    assert all(c.passed for c in checks)
    assert [c.check_id for c in checks] == [f"hypothesis-{k}" for k in range(1, 6)]
    assert len(witnesses) == 5


def test_sign_flip_fails_hypothesis_one():
    m = standard_model(1.0, 1.0, 1)
    bad = PotentialModel(
        mu=1.0, eps1=1.0, eps1_tilde=1.0,
        v1=lambda r: -m.v1(r), grad_v1=lambda r: -m.grad_v1(r), dim=1,
        symbol_constants=m.symbol_constants)
    checks, witnesses = check_condition(bad, RADII)
    assert not checks[0].passed
    assert witnesses[0] == pytest.approx(0.0)


def _v2_core(r):
    # V2 = -inf on |x| < 0.5: not locally integrable
    return np.where(np.abs(r) < 0.5, -np.inf, 0.0)


# one model change per hypothesis of standard_model(1, 1, 1), each
# measured to break that hypothesis and no other
HYPOTHESIS_FAULTS = {
    1: {"eps1": 1.5},
    2: {"symbol_constants": (1.0, 0.5, 3.0)},
    3: {"eps1_tilde": 1.5},
    4: {"v2": lambda r: -0.1 / bracket(r), "v2_tail": (0.5, 1.0, 1.0)},
    5: {"v2": _v2_core},
}


@pytest.mark.parametrize("hypothesis", sorted(HYPOTHESIS_FAULTS))
def test_each_hypothesis_fails_alone(hypothesis):
    model = replace(standard_model(1.0, 1.0, 1), **HYPOTHESIS_FAULTS[hypothesis])
    checks, _ = check_condition(model, RADII)
    assert [c.check_id for c in checks if not c.passed] == [f"hypothesis-{hypothesis}"]


def test_coulomb_model_passes_all():
    checks, _ = check_condition(coulomb_model(1.0, 3), RADII)
    assert all(c.passed for c in checks), checks
    # the split is exact: V1 + V2 = -gamma/|x| everywhere sampled
    cm = coulomb_model(2.0, 3)
    rs = np.linspace(0.05, 30.0, 500)
    assert np.allclose(cm.total(rs), -2.0 / rs, rtol=1e-12)
    # V2 carries the singularity and vanishes beyond the unit ball
    assert cm.v2(np.array([1.5, 2.0, 10.0])) == pytest.approx([0.0, 0.0, 0.0])


def test_smoothed_coulomb_split_passes():
    # alternative split: V1 = -gamma <x>^-1 with the truncated
    # singular part chi(|x|<1) (<x>^-1 - |x|^-1) as V2
    gamma = 1.0
    base = standard_model(gamma, 1.0, 3)

    def v2(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            sing = -gamma / r + gamma / np.sqrt(1 + r * r)
        return np.where(r < 1.0, sing, 0.0)

    model = PotentialModel(
        mu=1.0, eps1=gamma, eps1_tilde=1.0,
        v1=base.v1, grad_v1=base.grad_v1, dim=3, v2=v2,
        v2_tail=(0.4, gamma, 1.0),
        symbol_constants=base.symbol_constants)
    checks, _ = check_condition(model, RADII)
    assert all(c.passed for c in checks), checks
    # hypothesis 4 is vacuous beyond R = 1 and 5 is a finite L^2 norm
    assert checks[3].value > 0
    assert math.isfinite(checks[4].value)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("dim", [1, 3])
def test_standard_family_grid(gamma, mu, dim):
    m = standard_model(gamma, mu, dim)
    assert m.eps1 == gamma
    assert m.eps1_tilde == pytest.approx(2.0 - mu)
    assert m.s0 == pytest.approx(0.5 + mu / 4.0)
    checks, _ = check_condition(m, RADII)
    assert all(c.passed for c in checks)
    xs = np.linspace(0.0, 60.0, 200)
    floor = gamma * (2.0 - mu) * (1 + xs**2) ** (-mu / 2)
    assert np.all(virial_w(m, xs) >= floor - 1e-12)


def test_empty_grid_rejected():
    with pytest.raises(ValueError):
        check_condition(standard_model(1.0, 1.0, 1), [])


def test_model_validation():
    with pytest.raises(ValueError):
        standard_model(-1.0, 1.0, 1)
    with pytest.raises(ValueError):
        standard_model(1.0, 2.0, 1)
    with pytest.raises(ValueError):
        coulomb_model(1.0, 2)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_config_round_trip():
    m = standard_model(2.0, 1.5, 3)
    m2 = model_from_config({"family": "standard", "gamma": 2.0, "mu": 1.5, "dim": 3})
    assert m2.eps1 == m.eps1 and m2.mu == m.mu and m2.dim == m.dim
    c2 = model_from_config({"family": "coulomb", "gamma": 1.0, "dim": 3})
    assert (c2.mu, c2.dim) == (1.0, 3) and c2.v2 is not None
    with pytest.raises(ValueError):
        model_from_config({"family": "nope"})
