import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lapkit import weyl
from lapkit.besov import loglog_slope
from lapkit.errors import DimensionError
from lapkit.operators import Grid1D, gaussian_probe, hermiticity_residual
from lapkit.potential import WeightParams, bracket, standard_model, weight_f
from lapkit.weyl import (FALL_WIDTH, REFERENCE_RADIUS, SIGMA_CUT, TILDE_WIDTH, Band,
                         FilterSpec, default_radius_ladder,
                         filter_symbol, radiation_filter, smoothstep7, symbol_a0,
                         weyl_apply, weyl_matrix)

GRID = Grid1D(10.0, 128)
ROOT = Path(__file__).resolve().parent.parent
# the band of every frequency: weyl_apply transforms each ladder column
EVERY_FREQUENCY = Band(lambda x: np.inf, 0.0)


def direction_symbol(params):
    """b0(x, xi) = (xi / f(x)) (x / <x>), the scaled radial-direction symbol."""
    return lambda x, xi: (xi / weight_f(params, x)) * (x / bracket(x))


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
    b0 = direction_symbol(params)
    dense = weyl_matrix(b0, GRID)
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    direct = dense @ u
    streamed, = weyl_apply(b0, GRID, u[None], band=EVERY_FREQUENCY)
    assert np.max(np.abs(direct - streamed)) <= 1e-11 * np.linalg.norm(u)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_band_limited_apply_matches_dense(mode, rng):
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    symbol, band = filter_symbol(spec, params, mode)
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    direct = weyl_matrix(symbol, GRID) @ u
    streamed, = weyl_apply(symbol, GRID, u[None], band=band)
    assert np.max(np.abs(direct - streamed)) <= 1e-12 * np.linalg.norm(u)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_block_apply_equals_column_applies(mode, rng):
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    symbol, band = filter_symbol(spec, params, mode)
    bank = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
    both = weyl_apply(symbol, GRID, bank, band=band)
    assert both.shape == (2, 128)
    for j in range(2):
        single = weyl_apply(symbol, GRID, bank[j:j + 1].copy(), band=band)
        assert np.array_equal(both[j:j + 1], single)


# each mode's filter of a (2, n) bank against the filters of its (1, n)
# rows, bit for bit: the defects of one bank call per ladder and the
# degeneracy flags; run in this process and in a fresh interpreter with
# two OpenBLAS threads
FILTER_COLUMNS_RUN = """
import numpy as np
from lapkit.besov import Stream
from lapkit.operators import Grid1D, gaussian_probe
from lapkit.potential import standard_model
from lapkit.weyl import radiation_filter
model, grid = standard_model(1.0, 1.0, 1), Grid1D(100.0, 1024)
gauss = Stream(3).standard_normal((2, 1024))
u = gaussian_probe(grid, width=2.0) + 1e-3 * (gauss[0] + 1j * gauss[1])
bank = np.stack((u, np.conj(u)))     # as radiation filters u_plus
mismatched = []
for mode in ("outgoing", "high", "mirrored"):
    results = radiation_filter(bank, model, grid, mode=mode)
    assert len(results) == 2
    for j, res in enumerate(results):
        one, = radiation_filter(bank[j:j + 1].copy(), model, grid, mode=mode)
        if not (res.degenerate == one.degenerate
                and np.array_equal(res.ball_defect, one.ball_defect)
                and np.array_equal(res.annulus_defect, one.annulus_defect)):
            mismatched.append((mode, j))
print(mismatched)
"""


@pytest.mark.parametrize("threads", [None, "2"], ids=["this-process", "two-threads"])
def test_filter_of_a_block_equals_the_filters_of_its_columns(threads, capsys):
    if threads is None:
        exec(FILTER_COLUMNS_RUN, {})
        out = capsys.readouterr().out
    else:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", FILTER_COLUMNS_RUN], env=env,
                             capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


DESK_GRID = Grid1D(100.0, 1024)     # the desk spacing on a quarter box


def desk_filters():
    m = standard_model(1.0, 1.0, 1)
    spec = FilterSpec.for_model(m)
    return spec, WeightParams(0.0, m.kappa_low_energy, m.mu)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_apply_matches_dense_at_desk_spacing(mode, rng):
    spec, params = desk_filters()
    symbol, band = filter_symbol(spec, params, mode)
    bank = rng.standard_normal((2, 1024)) + 1j * rng.standard_normal((2, 1024))
    direct = bank @ weyl_matrix(symbol, DESK_GRID).T
    applied = weyl_apply(symbol, DESK_GRID, bank, band=band)
    for j in range(2):
        assert np.max(np.abs(direct[j] - applied[j])) <= 1e-12 * np.linalg.norm(bank[j])


def test_desk_apply_memory_is_bounded(rng):
    # one desk-size outgoing apply on two rows peaks at 2.43 MiB traced
    # (2.55 with a process's first 8,192-point FFT plans): v and acc of
    # (4, 2N + 512) complex, the (4, 2N) table, two 2N scratch rows and
    # one chunk's symbol temporaries, with no batch's half spectra held;
    # half spectra held across batches gave 2.68, and spectra and an
    # accumulator 4N bins wide 4.04
    spec, params = desk_filters()
    symbol, band = filter_symbol(spec, params, "outgoing")
    grid = Grid1D(400.0, 4096)
    bank = rng.standard_normal((2, 4096)) + 1j * rng.standard_normal((2, 4096))
    tracemalloc.start()
    try:
        weyl_apply(symbol, grid, bank, band=band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.6 * 2**20


def test_last_transform_runs_without_the_batch_arrays(live_at_entry, rng):
    # when the accumulator's inverse FFT starts, v (as large as the
    # accumulator), the real table and its half spectra (about half as
    # large each) are freed: the accumulator and O(n) bookkeeping are
    # left, 1.57 accumulators on this grid, against 2.04 if the table
    # alone stayed and 3.52 if all three did
    spec, params = desk_filters()
    symbol, band = filter_symbol(spec, params, "outgoing")
    grid = Grid1D(80.0, 1024)
    # the largest shift 2 (k - N/2) over the band's columns k; it stops short of -N/2
    k0, k1 = weyl._band_rows(band, weyl._midpoints(grid), grid.frequencies)
    assert k0.min() > 0
    top = 2 * (k1.max() - 1 - grid.size // 2)
    bank = rng.standard_normal((2, grid.size)) + 1j * rng.standard_normal((2, grid.size))
    entries = live_at_entry(np.fft, "ifft")
    weyl_apply(symbol, grid, bank, band=band)       # first-call caches settle
    entries.clear()
    start = tracemalloc.get_traced_memory()[0]
    weyl_apply(symbol, grid, bank, band=band)
    acc_bytes = (2 * 2) * (2 * grid.size + top) * 16   # (2m, p + top) complex, p = 2n
    assert len(entries) == 2                       # v's transform, then the last
    assert entries[-1] - start <= 1.8 * acc_bytes


def test_mirrored_is_the_conjugate_of_outgoing(rng):
    # b0 is odd in xi and a0 even, so Op(mirrored) = conj(Op(outgoing))
    # entrywise; the band never reaches the unpaired frequency -N/2
    spec, params = desk_filters()
    outgoing, out_band = filter_symbol(spec, params, "outgoing")
    mirrored, mir_band = filter_symbol(spec, params, "mirrored")
    bank = rng.standard_normal((2, 1024)) + 1j * rng.standard_normal((2, 1024))
    direct = weyl_apply(mirrored, DESK_GRID, bank, band=mir_band)
    derived = np.conj(weyl_apply(outgoing, DESK_GRID, np.conj(bank), band=out_band))
    assert np.max(np.abs(direct - derived)) <= 1e-12 * np.linalg.norm(bank)


def test_high_is_a_real_operator(rng):
    # the high symbol is real and even in xi, so Op(high) is real
    spec, params = desk_filters()
    high, band = filter_symbol(spec, params, "high")
    bank = rng.standard_normal((2, 1024)) + 1j * rng.standard_normal((2, 1024))
    of_conj = weyl_apply(high, DESK_GRID, np.conj(bank), band=band)
    conj_of = np.conj(weyl_apply(high, DESK_GRID, bank, band=band))
    assert np.max(np.abs(of_conj - conj_of)) <= 1e-12 * np.linalg.norm(bank)


@pytest.mark.parametrize("mode", ["outgoing", "high"])
def test_apply_is_deterministic(mode, rng):
    # one accumulator sums the batches in a fixed order, so repeated
    # applies agree bit for bit
    spec, params = desk_filters()
    symbol, band = filter_symbol(spec, params, mode)
    bank = rng.standard_normal((2, 1024)) + 1j * rng.standard_normal((2, 1024))
    first = weyl_apply(symbol, DESK_GRID, bank, band=band)
    assert np.array_equal(first, weyl_apply(symbol, DESK_GRID, bank, band=band))


def test_apply_band_at_the_box_edges(rng):
    # the band widens towards the box edges, so high frequencies live
    # only on the first and last midpoint rows (s < N/2 and s >= 3N/2)
    # and the symbol is a nonzero constant everywhere else
    grid = Grid1D(10.0, 128)
    top = grid.frequencies[-1]

    def reach(x):
        return top * np.clip(2.0 * np.abs(x) / grid.length - 0.5, 0.0, 1.0)

    def symbol(x, xi):
        r = reach(x)
        return 0.5 + np.where(np.abs(xi) <= r, np.cos(xi * x) * (r - np.abs(xi)), 0.0)

    band = Band(reach, outside=0.5)
    bank = rng.standard_normal((2, 128)) + 1j * rng.standard_normal((2, 128))
    direct = bank @ weyl_matrix(symbol, grid).T
    applied = weyl_apply(symbol, grid, bank, band=band)
    assert np.max(np.abs(direct - applied)) <= 1e-12 * np.linalg.norm(bank)
    assert np.array_equal(applied[1:], weyl_apply(symbol, grid, bank[1:].copy(), band=band))


def test_high_is_identity_minus_low(rng):
    spec, params = desk_filters()
    a0 = symbol_a0(params)
    high, band = filter_symbol(spec, params, "high")
    u = rng.standard_normal((1, 1024)) + 1j * rng.standard_normal((1, 1024))
    low = weyl_apply(lambda x, xi: spec.chi_minus(a0(x, xi)), DESK_GRID, u,
                     band=Band(band.reach, outside=0.0))
    applied = weyl_apply(high, DESK_GRID, u, band=band)
    assert np.max(np.abs(applied - (u - low))) <= 1e-12 * np.linalg.norm(u)


def test_apply_rejects_wrong_shape():
    # a bank of rows only: a short row, a bare vector, a column block
    for shape in ((1, 127), (128,), (128, 2), (2, 128, 1)):
        with pytest.raises(DimensionError):
            weyl_apply(constant_symbol(1.0), GRID, np.ones(shape), band=EVERY_FREQUENCY)


FILTER_GRIDS = [
    (10.0, 128, 1.0, 1.0),
    (40.0, 256, 0.5, 0.5),
    (200.0, 512, 2.0, 1.5),
    (400.0, 1024, 1.0, 1.0),
]


@pytest.mark.parametrize("length,size,kappa,mu", FILTER_GRIDS)
def test_band_covers_symbol_support(length, size, kappa, mu):
    # outside |xi| <= reach(x) the full-table symbol is exactly constant
    grid = Grid1D(length, size)
    params = WeightParams(0.0, kappa, mu)
    spec = FilterSpec.for_model(standard_model(1.0, mu, 1))
    x = -length + (np.arange(2 * size - 1) + 1.0) * grid.spacing / 2.0
    xi = grid.frequencies
    for mode in ("outgoing", "high", "mirrored"):
        symbol, band = filter_symbol(spec, params, mode)
        table = symbol(x[:, None], xi[None, :])
        outside = np.abs(xi)[None, :] > band.reach(x)[:, None]
        assert np.count_nonzero(outside) > 0.5 * table.size
        assert np.all(table[outside] == band.outside)


@pytest.mark.parametrize("length,size,kappa,mu",
                         FILTER_GRIDS + [(400.0, 4096, 1.0, 1.0)])
def test_filter_tables_are_real_and_point_symmetric(length, size, kappa, mu):
    # weyl_apply's contract: the grid reversal negates midpoints and
    # frequencies exactly, and the table over every column but the
    # unpaired -N/2 is real and equal to its point reflection bit for bit
    grid = Grid1D(length, size)
    x = -length + (np.arange(2 * size - 1) + 1.0) * grid.spacing / 2.0
    xi = grid.frequencies[1:]
    assert np.array_equal(x[::-1], -x)
    assert np.array_equal(xi[::-1], -xi)
    params = WeightParams(0.0, kappa, mu)
    spec = FilterSpec.for_model(standard_model(1.0, mu, 1))
    for mode in ("outgoing", "high", "mirrored"):
        symbol, _ = filter_symbol(spec, params, mode)
        for top in range(0, size, 128):
            # rows [top, bottom) of the upper half against their mirrors
            bottom = min(top + 128, size)
            upper = symbol(x[top:bottom, None], xi[None, :])
            lower = symbol(x[2 * size - 1 - bottom:2 * size - 1 - top, None],
                           xi[None, :])
            assert upper.dtype == lower.dtype == np.float64
            assert np.array_equal(upper, lower[::-1, ::-1])


def test_apply_refuses_a_complex_symbol(rng):
    # point-symmetric, but a real table would drop its imaginary part
    u = rng.standard_normal((1, 128)) + 1j * rng.standard_normal((1, 128))
    with pytest.raises(ValueError, match="real symbol"):
        weyl_apply(lambda x, xi: np.exp(1j * xi * x), GRID, u, band=EVERY_FREQUENCY)


@pytest.mark.parametrize("asymmetry", ["tilted in x", "odd in xi"])
def test_apply_refuses_a_symbol_that_is_not_point_symmetric(asymmetry, rng):
    spec, params = desk_filters()
    outgoing, band = filter_symbol(spec, params, "outgoing")

    def symbol(x, xi):
        # still exactly 0 outside the outgoing band
        factor = 1.0 + 0.25 * np.tanh(x) if asymmetry == "tilted in x" else xi
        return outgoing(x, xi) * factor

    u = rng.standard_normal((1, 128)) + 1j * rng.standard_normal((1, 128))
    with pytest.raises(ValueError, match="point"):
        weyl_apply(symbol, GRID, u, band=band)


# the three filter modes at the desk spacing, as the bytes of their output
THREE_MODES = """
import numpy as np
from lapkit.operators import Grid1D
from lapkit.potential import WeightParams, bracket, standard_model, weight_f
from lapkit.weyl import FilterSpec, filter_symbol, weyl_apply
model = standard_model(1.0, 1.0, 1)
spec = FilterSpec.for_model(model)
params = WeightParams(0.0, model.kappa_low_energy, model.mu)
grid = Grid1D(100.0, 1024)
bank = np.random.default_rng(7).standard_normal((2, 2048)).view(complex)
applied = b"".join(
    weyl_apply(symbol, grid, bank, band=band).tobytes()
    for symbol, band in (filter_symbol(spec, params, mode)
                         for mode in ("outgoing", "high", "mirrored")))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is not available")
def test_apply_is_the_same_bit_for_bit_on_one_core():
    # a fresh interpreter pinned to one core must give the same output
    # bytes: nothing in the apply may depend on the core count
    here = {}
    exec(THREE_MODES, here)
    pinned = ("import os, sys\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              + THREE_MODES + "sys.stdout.buffer.write(applied)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", pinned], cwd=ROOT, env=env,
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == here["applied"]


def test_quantized_position_is_multiplication(rng):
    op = weyl_matrix(lambda x, xi: x + 0.0 * xi, GRID)
    assert np.allclose(op, np.diag(GRID.nodes), atol=1e-10)


# ---------------------------------------------------------------------------
# symbols and cutoffs
# ---------------------------------------------------------------------------

def test_symbol_pointwise_values():
    params = WeightParams(0.0, 1.0, 1.0)
    a0 = symbol_a0(params)
    b0 = direction_symbol(params)
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


def test_smoothstep_horner_matches_expanded_form():
    t = np.linspace(0.0, 1.0, 100_001)
    expanded = t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)
    assert np.max(np.abs(smoothstep7(t) - expanded)) <= 1e-13


def _full_smoothstep7(t):
    # the polynomial on every clipped point, as smoothstep7 once computed it
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return (t * t) ** 2 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def test_smoothstep_is_the_full_polynomial_byte_for_byte(rng):
    # the polynomial runs only on the ramp; off it the clipped value is
    # exact, -0.0 included (the polynomial turns it into +0.0)
    edges = np.array([-np.inf, -2.0, -1.0, -0.0, 0.0, 5e-324, 0.1, 0.25, 0.5,
                      0.75, 0.9, 1.0 - 1e-16, 1.0, 3.0, np.inf, np.nan])
    grid = rng.uniform(-0.5, 1.5, (37, 53))
    for t in (edges, grid):
        assert smoothstep7(t).tobytes() == _full_smoothstep7(t).tobytes()
    for t in edges:
        value = smoothstep7(float(t))
        assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
        assert np.asarray(value).tobytes() == np.asarray(_full_smoothstep7(t)).tobytes()
    assert not np.signbit(smoothstep7(-0.0))


def test_cutoff_supports():
    spec = FilterSpec(plateau_end=2.0)
    t = np.linspace(-8, 5, 650)
    chi = spec.chi_minus(t)
    assert np.all(chi[t <= 2.0] == 1.0)
    assert np.all(chi[t > 3.0] == 0.0)
    assert np.all(np.diff(chi) <= 1e-12)
    assert np.allclose(spec.chi_minus(t) + spec.chi_plus(t), 1.0)
    tilde = spec.chi_tilde_minus(t)
    assert np.all(tilde[t <= SIGMA_CUT - TILDE_WIDTH] == 1.0)
    assert np.all(tilde[t >= 0.5] == 0.0)
    assert np.all((tilde >= 0) & (tilde <= 1))
    mirror = spec.chi_tilde_mirror(t)
    assert np.all(mirror[t <= -0.5] == 0.0)
    assert spec.chi_tilde_mirror(1.0) == spec.chi_tilde_minus(-1.0)


def _rise_times_fall(spec):
    """The four cutoffs as rise times fall on every point, rises of 1 included."""
    def profile(t, rise, start, width):
        t = np.asarray(t, dtype=float)
        return smoothstep7(t + rise) * (1.0 - smoothstep7((t - start) / width))

    def chi_minus(t):
        return profile(t, 1.0, spec.plateau_end, FALL_WIDTH)

    def chi_tilde_minus(t):
        return profile(t, 5.0, SIGMA_CUT - TILDE_WIDTH, TILDE_WIDTH)

    return {"chi_minus": chi_minus,
            "chi_plus": lambda t: 1.0 - chi_minus(t),
            "chi_tilde_minus": chi_tilde_minus,
            "chi_tilde_mirror": lambda t: chi_tilde_minus(-np.asarray(t, dtype=float))}


# a plain spec and the desk spec
CUTOFF_SPECS = [FilterSpec(plateau_end=2.0),
                FilterSpec.for_model(standard_model(1.0, 1.0, 1))]


@pytest.mark.parametrize("spec", CUTOFF_SPECS)
def test_cutoffs_are_single_falls_bit_for_bit(spec, rng):
    # each cutoff is one fall of the full polynomial, 1 below it and 0
    # above: on the ramps, both sides and their edges the values keep
    # every bit, for arrays and for scalars
    def fall(t, start, width):
        return 1.0 - _full_smoothstep7((np.asarray(t, dtype=float) - start) / width)

    def tilde(t):
        return fall(t, SIGMA_CUT - TILDE_WIDTH, TILDE_WIDTH)

    references = {"chi_minus": lambda t: fall(t, spec.plateau_end, FALL_WIDTH),
                  "chi_plus": lambda t: 1.0 - fall(t, spec.plateau_end, FALL_WIDTH),
                  "chi_tilde_minus": tilde,
                  "chi_tilde_mirror": lambda t: tilde(-np.asarray(t, dtype=float))}
    marks = np.array([-5.0, -4.0, -1.0, 0.0, 4.0, 5.0, spec.plateau_end,
                      spec.kinetic_reach, SIGMA_CUT, SIGMA_CUT - TILDE_WIDTH])
    near = np.concatenate([marks, -marks, np.nextafter(marks, -np.inf),
                           np.nextafter(marks, np.inf), np.nextafter(-marks, -np.inf),
                           np.nextafter(-marks, np.inf),
                           [-0.0, 5e-324, -5e-324, -np.inf, np.inf]])
    spread = rng.uniform(-7.0, 7.0, (29, 31))
    ramps = np.linspace(-5.5, spec.kinetic_reach + 0.5, 4001)
    for name, reference in references.items():
        cutoff = getattr(spec, name)
        for t in (near, spread, ramps):
            assert cutoff(t).tobytes() == reference(t).tobytes(), name
        for t in near:
            value = cutoff(float(t))
            assert np.ndim(value) == 0 and not isinstance(value, np.ndarray)
            assert np.asarray(value).tobytes() == np.asarray(reference(t)).tobytes(), (name, t)


@pytest.mark.parametrize("mode", ["outgoing", "high", "mirrored"])
def test_filter_symbols_are_products_of_the_profiles(mode):
    # on the band columns of the desk-spacing table, each symbol is
    # chi_-(a0) times the direction cutoff of b0, or chi_+(a0), bit for bit
    spec, params = desk_filters()
    symbol, band = filter_symbol(spec, params, mode)
    x = (-DESK_GRID.length + (np.arange(2 * DESK_GRID.size - 1) + 1.0)
         * DESK_GRID.spacing / 2.0)[None, :]
    xi = DESK_GRID.frequencies
    reach = float(np.max(band.reach(x)))
    xi = xi[np.abs(xi) <= reach + 2 * (xi[1] - xi[0])][:, None]
    cut = _rise_times_fall(spec)
    f = weight_f(params, x)
    a0, b0 = xi**2 / f**2, (xi / f) * (x / bracket(x))
    expected = {"outgoing": cut["chi_minus"](a0) * cut["chi_tilde_minus"](b0),
                "mirrored": cut["chi_minus"](a0) * cut["chi_tilde_mirror"](b0),
                "high": cut["chi_plus"](symbol_a0(params)(x, xi))}[mode]
    assert np.count_nonzero(expected - band.outside) > 0
    assert symbol(x, xi).tobytes() == expected.tobytes()


def test_direction_cutoffs_keep_the_kinetic_cutoff_at_a_large_plateau():
    # at C_0' = 20 the kinetic cutoff reaches a0 = 23, so b0^2 <= a0 lets
    # direction values below -4 through; each direction cutoff is 1 on its
    # whole plateau, and the product is the kinetic cutoff there
    m = dataclasses.replace(standard_model(1.0, 1.0, 1), symbol_constants=(20.0, 1.0, 3.0))
    spec = FilterSpec.for_model(m)
    assert spec.kinetic_reach == 23.0
    params = WeightParams(0.0, m.kappa_low_energy, m.mu)
    x = (-DESK_GRID.length + (np.arange(2 * DESK_GRID.size - 1) + 1.0)
         * DESK_GRID.spacing / 2.0)[None, :]
    xi = DESK_GRID.frequencies[:, None]
    f = weight_f(params, x)
    a0, b0 = xi**2 / f**2, (xi / f) * (x / bracket(x))
    kinetic = spec.chi_minus(a0)
    assert np.count_nonzero((b0 < -4.0) & (kinetic > 0.0)) > 0
    for mode, plateau in (("outgoing", b0 <= SIGMA_CUT - TILDE_WIDTH),
                          ("mirrored", b0 >= TILDE_WIDTH - SIGMA_CUT)):
        symbol, _ = filter_symbol(spec, params, mode)
        assert np.array_equal(symbol(x, xi)[plateau], kinetic[plateau]), mode


def test_filter_spec_validation():
    with pytest.raises(ValueError):
        FilterSpec(plateau_end=0.0)


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5])
def test_filter_spec_for_model_is_the_calibrated_shape(mu):
    # plateau C_0' + 2, kinetic fall 1, direction fall 0.8 to 0 at 0.5:
    # the one calibration every radiation filter uses
    m = standard_model(1.0, mu, 1)
    spec = FilterSpec.for_model(m)
    assert spec == FilterSpec(plateau_end=m.c0_prime() + 2.0)
    assert (FALL_WIDTH, TILDE_WIDTH, SIGMA_CUT) == (1.0, 0.8, 0.5)
    assert spec.kinetic_reach == pytest.approx(m.c0_prime() + 3.0)


# ---------------------------------------------------------------------------
# radiation filters
# ---------------------------------------------------------------------------

def test_zero_tilde_cutoff_degenerate(monkeypatch):
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 256)
    u = gaussian_probe(g, width=3.0)

    class ZeroTilde(FilterSpec):
        def chi_tilde_minus(self, t):
            return np.zeros_like(np.asarray(t, dtype=float))

    dead = ZeroTilde(plateau_end=m.c0_prime() + 1.0)
    monkeypatch.setattr(weyl.FilterSpec, "for_model", staticmethod(lambda model: dead))
    res, = radiation_filter(u[None], m, g, mode="outgoing")
    assert res.degenerate
    assert np.all(res.ball_defect == 0.0)


def test_compact_support_defect_decays():
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 512)
    u = gaussian_probe(g, width=1.5)
    res, = radiation_filter(u[None], m, g, mode="outgoing")
    # smooth compactly supported input: ladder decays past the support
    assert res.ball_slope <= -0.2
    assert not res.degenerate


def test_unknown_filter_mode_is_refused():
    m = standard_model(1.0, 1.0, 1)
    g = Grid1D(40.0, 256)
    with pytest.raises(ValueError):
        radiation_filter(gaussian_probe(g)[None], m, g, mode="sideways")


def test_loglog_slope_and_ladder():
    radii = np.array([4.0, 8.0, 16.0, 32.0])
    assert loglog_slope(radii, 5.0 / np.sqrt(radii)) == pytest.approx(-0.5)
    assert math.isnan(loglog_slope(radii, np.zeros(4)))
    g = Grid1D(100.0, 256)
    ladder = default_radius_ladder(g)
    assert ladder[0] == pytest.approx(4.0)
    assert ladder[-1] <= 100.0
    assert np.all(np.diff(ladder) > 0)
    # the far-field ratios read the rungs at the reference radius and half the box
    assert REFERENCE_RADIUS in ladder and 50.0 in ladder
