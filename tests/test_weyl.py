import math

import numpy as np
import pytest

from lapkit.errors import DimensionError
from lapkit.operators import Grid1D, gaussian_probe, hermiticity_residual
from lapkit.potential import WeightParams, standard_model
from lapkit.weyl import (FilterSpec, default_radius_ladder, filter_symbol,
                         loglog_slope, radiation_filter, smoothstep7, symbol_a0,
                         symbol_b0, weyl_apply, weyl_matrix)

GRID = Grid1D(10.0, 128)


def constant_symbol(value):
    def fn(x, xi):
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(xi)), value)
    return fn


# ---------------------------------------------------------------------------
# quantization basics
# ---------------------------------------------------------------------------

def test_identity_symbol():
    op = weyl_matrix(constant_symbol(1.0), GRID)
    assert np.array_equal(op, np.eye(128).astype(complex))


def test_momentum_symbol_planewave():
    op = weyl_matrix(lambda x, xi: xi + 0.0 * x, GRID)
    k = GRID.frequencies[90]
    wave = np.exp(1j * k * GRID.nodes)
    assert np.max(np.abs(op @ wave - k * wave)) <= 1e-12 * abs(k)
    assert hermiticity_residual(op) <= 1e-12


def test_real_symbol_hermitian():
    params = WeightParams(0.0, 1.0, 1.0)
    op = weyl_matrix(symbol_a0(params), GRID)
    assert hermiticity_residual(op) <= 1e-10


def test_linearity():
    c1 = weyl_matrix(lambda x, xi: np.exp(-x**2) + 0.0 * xi, GRID)
    c2 = weyl_matrix(lambda x, xi: xi**2 + 0.0 * x, GRID)
    combo = weyl_matrix(lambda x, xi: np.exp(-x**2) + 2.5 * xi**2, GRID)
    assert np.allclose(combo, c1 + 2.5 * c2, atol=1e-12)


def test_partition_of_unity():
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    a0 = symbol_a0(params)
    low = weyl_matrix(lambda x, xi: spec.chi_minus(a0(x, xi)), GRID)
    high = weyl_matrix(lambda x, xi: spec.chi_plus(a0(x, xi)), GRID)
    assert np.allclose(low + high, np.eye(128), atol=1e-12)


def test_apply_matches_dense(rng):
    params = WeightParams(0.0, 1.0, 1.0)
    b0 = symbol_b0(params)
    dense = weyl_matrix(b0, GRID)
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    direct = dense @ u
    streamed = weyl_apply(b0, GRID, u, chunk=37)
    assert np.max(np.abs(direct - streamed)) <= 1e-11 * np.linalg.norm(u)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_band_limited_apply_matches_dense(mode, rng):
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m, neighborhood_margin=2.0, tilde_width=0.8)
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    symbol, band = filter_symbol(spec, params, mode)
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    direct = weyl_matrix(symbol, GRID) @ u
    streamed = weyl_apply(symbol, GRID, u, chunk=37, band=band)
    assert np.max(np.abs(direct - streamed)) <= 1e-12 * np.linalg.norm(u)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_block_apply_equals_column_applies(mode, rng):
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    symbol, band = filter_symbol(spec, params, mode)
    block = rng.standard_normal((128, 2)) + 1j * rng.standard_normal((128, 2))
    both = weyl_apply(symbol, GRID, block, chunk=37, band=band)
    assert both.shape == (128, 2)
    for j in range(2):
        single = weyl_apply(symbol, GRID, block[:, j].copy(), chunk=37, band=band)
        assert np.array_equal(both[:, j], single)
    results = radiation_filter(block, spec, m, GRID, mode=mode)
    assert len(results) == 2
    for j, res in enumerate(results):
        one = radiation_filter(block[:, j].copy(), spec, m, GRID, mode=mode)
        assert np.array_equal(res.filtered, one.filtered)
        assert np.array_equal(res.ball_defect, one.ball_defect)
        assert np.array_equal(res.annulus_defect, one.annulus_defect)


def test_apply_rejects_wrong_shape():
    with pytest.raises(DimensionError):
        weyl_apply(constant_symbol(1.0), GRID, np.ones(127))
    with pytest.raises(DimensionError):
        weyl_apply(constant_symbol(1.0), GRID, np.ones((128, 2, 1)))


@pytest.mark.parametrize("length,size,kappa,mu", [
    (10.0, 128, 1.0, 1.0),
    (40.0, 256, 0.5, 0.5),
    (200.0, 512, 2.0, 1.5),
    (400.0, 1024, 1.0, 1.0),
])
def test_band_covers_symbol_support(length, size, kappa, mu):
    # outside |xi| <= reach(x) the full-table symbol is exactly constant
    grid = Grid1D(length, size)
    params = WeightParams(0.0, kappa, mu)
    spec = FilterSpec.for_model(standard_model(1.0, mu, 1), neighborhood_margin=2.0,
                                tilde_width=0.8)
    x = -length + (np.arange(2 * size - 1) + 1.0) * grid.spacing / 2.0
    xi = grid.frequencies
    for mode in ("outgoing", "high", "mirrored"):
        symbol, band = filter_symbol(spec, params, mode)
        table = symbol(x[:, None], xi[None, :])
        outside = np.abs(xi)[None, :] > band.reach(x)[:, None]
        assert np.count_nonzero(outside) > 0.5 * table.size
        assert np.all(table[outside] == band.outside)


def test_quantized_position_is_multiplication(rng):
    op = weyl_matrix(lambda x, xi: x + 0.0 * xi, GRID)
    assert np.allclose(op, np.diag(GRID.nodes), atol=1e-10)


# ---------------------------------------------------------------------------
# symbols and cutoffs
# ---------------------------------------------------------------------------

def test_symbol_pointwise_values():
    params = WeightParams(0.0, 1.0, 1.0)
    a0 = symbol_a0(params)
    b0 = symbol_b0(params)
    # at x = 0: f0 = 1, so a0 = xi^2 and b0 = 0
    assert a0(0.0, 2.0) == pytest.approx(4.0)
    assert b0(0.0, 2.0) == pytest.approx(0.0)
    # direction bound b0^2 <= a0 on a sampled phase grid
    xs = np.linspace(-30, 30, 41)[:, None]
    xis = np.linspace(-3, 3, 41)[None, :]
    assert np.all(b0(xs, xis) ** 2 <= a0(xs, xis) + 1e-14)


def test_smoothstep_profile():
    assert smoothstep7(0.0) == 0.0
    assert smoothstep7(1.0) == 1.0
    assert smoothstep7(-2.0) == 0.0
    assert smoothstep7(3.0) == 1.0
    t = np.linspace(0, 1, 200)
    assert np.all(np.diff(smoothstep7(t)) >= 0)


def test_cutoff_supports():
    spec = FilterSpec(plateau_end=2.0, sigma_cut=0.5, tilde_width=0.25)
    t = np.linspace(-3, 5, 400)
    chi = spec.chi_minus(t)
    assert np.all(chi[(t >= 0) & (t <= 2.0)] == 1.0)
    assert np.all(chi[t > 3.0] == 0.0)
    assert np.all(chi[t < -1.0] == 0.0)
    falling = (t > 0.0) & (t < 4.9)
    assert np.all(np.diff(chi[falling]) <= 1e-12)
    assert np.allclose(spec.chi_minus(t) + spec.chi_plus(t), 1.0)
    tilde = spec.chi_tilde_minus(t)
    assert np.all(tilde[t >= 0.5] == 0.0)
    assert np.all((tilde >= 0) & (tilde <= 1))
    mirror = spec.chi_tilde_mirror(t)
    assert np.all(mirror[t <= -0.5] == 0.0)
    assert spec.chi_tilde_mirror(1.0) == spec.chi_tilde_minus(-1.0)


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(plateau_end=0.0)
    with pytest.raises(ValueError):
        FilterSpec(plateau_end=1.0, tilde_width=0.0)
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    assert spec.plateau_end == pytest.approx(m.c0_prime() + 1.0)


# ---------------------------------------------------------------------------
# radiation filters
# ---------------------------------------------------------------------------

def test_zero_tilde_cutoff_degenerate():
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 256)
    u = gaussian_probe(g, width=3.0)

    class ZeroTilde(FilterSpec):
        def chi_tilde_minus(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

    dead = ZeroTilde(plateau_end=m.c0_prime() + 1.0, sigma_cut=0.5)
    res = radiation_filter(u, dead, m, g, mode="outgoing")
    assert res.degenerate
    assert np.all(res.ball_defect == 0.0)


def test_compact_support_defect_decays():
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 512)
    u = gaussian_probe(g, width=1.5)
    spec = FilterSpec.for_model(m)
    res = radiation_filter(u, spec, m, g, mode="outgoing")
    # smooth compactly supported input: ladder decays past the support
    assert res.ball_slope <= -0.2
    assert not res.degenerate
    assert res.exponent == pytest.approx(m.s0)


def test_outgoing_sigma_contract():
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 256)
    spec = FilterSpec.for_model(m, sigma_cut=1.5)
    with pytest.raises(ValueError):
        radiation_filter(gaussian_probe(g), spec, m, g, mode="outgoing")
    with pytest.raises(ValueError):
        radiation_filter(gaussian_probe(g), spec, m, g, mode="sideways")


def test_loglog_slope_and_ladder():
    radii = np.array([4.0, 8.0, 16.0, 32.0])
    assert loglog_slope(radii, 5.0 / np.sqrt(radii)) == pytest.approx(-0.5)
    assert math.isnan(loglog_slope(radii, np.zeros(4)))
    g = Grid1D(100.0, 256)
    ladder = default_radius_ladder(g)
    assert ladder[0] == pytest.approx(4.0)
    assert ladder[-1] <= 100.0
    assert np.all(np.diff(ladder) > 0)
