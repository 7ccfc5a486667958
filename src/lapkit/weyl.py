"""FFT-based Weyl quantization on the 1-d line grid, with phase-space
cutoff filters for the zero-energy radiation condition.

The quantization of a symbol c(x, xi) on an N-node grid is

    M[i, j] = (1/N) sum_k c((x_i + x_j)/2, xi_k) exp(i xi_k (x_i - x_j)),

over the discrete frequency ladder xi_k = (pi/L) {-N/2, ..., N/2-1}.
Since xi_k (x_i - x_j) = 2 pi k (i - j) / N, the matrix depends on the
midpoint index s = i + j and on d = (i - j) mod N only, so one batched
inverse FFT over the midpoint grid produces every entry.  Real symbols
give exactly Hermitian matrices and c = 1 gives exactly the identity.

The dense matrix is the reference path.  ``weyl_apply`` slices the
same sum by frequency: with omega = exp(2 pi i / N),

    (M u)_i = (1/N) sum_k omega^{2ki} sum_t c(m_{i+t}, xi_k) omega^{-k(i+t)} u_t,

and each inner sum correlates one symbol column with u, which a
zero-padded real FFT of length 2N computes without wraparound; at that
length every modulation is a whole-bin shift, so the vector spectra and
the accumulator span 2N bins plus the largest shift.  Op(1) = I applies a
symbol's constant outside its ``Band`` exactly, and the radiation
cutoffs' band (chi_-(a0) vanishes once a0 = xi^2/f^2 ends its fall)
leaves c - constant on a few midpoint rows per frequency.  The cutoffs
are real and point-symmetric and the grid reversal P negates nodes,
midpoints and frequencies exactly, so Op(c) = constant I + A + P A P,
A over the band's xi >= 0 half.  One thread and one accumulator sum the
frequency batches; symbols are evaluated in chunks of rows, and the
cutoff polynomial only on its ramps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .besov import defect_ladder, tail_slope
from .errors import DimensionError
from .grids import Grid1D
from .potential import PotentialModel, WeightParams, bracket, weight_f

__all__ = [
    "smoothstep7",
    "PLATEAU_MARGIN",
    "FALL_WIDTH",
    "TILDE_WIDTH",
    "SIGMA_CUT",
    "ANNULUS_EPS",
    "REFERENCE_RADIUS",
    "FilterSpec",
    "Band",
    "symbol_a0",
    "weyl_matrix",
    "weyl_apply",
    "filter_symbol",
    "FilterResult",
    "radiation_filter",
    "default_radius_ladder",
]


def smoothstep7(t):
    """Degree-7 polynomial step: 0 at t<=0, 1 at t>=1, C^3 joins."""
    t = np.array(t, dtype=float)       # a copy, 0-d for a scalar
    np.clip(t, 0.0, 1.0, out=t)
    t += 0.0                           # clip keeps -0.0; the polynomial gives +0.0
    # poly(0) = +0 and poly(1) = 1 exactly, so only the ramp needs it
    ramp = (t > 0.0) & (t < 1.0)
    r = t[ramp]
    # (r * r) ** 2, not r**4: numpy's pow loop is many times slower than a multiply
    t[ramp] = (r * r) ** 2 * (35.0 + r * (-84.0 + r * (70.0 - 20.0 * r)))
    return t[()]                       # a scalar for a scalar argument


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

def symbol_a0(params: WeightParams) -> Callable:
    """a(x, xi) = xi^2 / f(x)^2, the scaled kinetic symbol."""
    def fn(x, xi):
        return xi**2 / weight_f(params, x) ** 2
    return fn


# ---------------------------------------------------------------------------
# Cutoff profiles
# ---------------------------------------------------------------------------

# calibrated cutoff shape, in symbol units: the kinetic plateau's margin
# above C_0', its fall width, the direction cutoff's fall width and the
# direction value it has fallen to 0 by; ramps much narrower than the
# local frequency resolution leak on coarse grids
PLATEAU_MARGIN = 2.0
FALL_WIDTH = 1.0
TILDE_WIDTH = 0.8
SIGMA_CUT = 0.5

# inner radius of the defect annuli as a fraction of the outer radius
ANNULUS_EPS = 0.5


@dataclass(frozen=True)
class FilterSpec:
    """Smooth cutoffs selecting the low-frequency outgoing region.

    chi_minus equals 1 up to plateau_end and falls to 0 over FALL_WIDTH,
    so it is nonincreasing with support (-inf, kinetic_reach]; chi_tilde
    equals 1 up to SIGMA_CUT - TILDE_WIDTH and falls to 0 over
    TILDE_WIDTH, so its support is (-inf, SIGMA_CUT).
    """

    plateau_end: float

    def __post_init__(self):
        if self.plateau_end <= 0:
            raise ValueError("plateau must have positive length")

    @classmethod
    def for_model(cls, model: PotentialModel) -> "FilterSpec":
        """The calibrated cutoffs on the model's scale C_0' = max(C_0/K, 1).

        The plateau extends to C_0' + PLATEAU_MARGIN; any margin > 0
        keeps the cutoff equal to 1 on a neighborhood of [0, C_0'],
        which is all the phase-space localization statements require.
        The direction cutoff falls to 0 at SIGMA_CUT.
        """
        return cls(plateau_end=model.c0_prime() + PLATEAU_MARGIN)

    @property
    def kinetic_reach(self) -> float:
        """The value of t from which chi_minus(t) is exactly 0."""
        return self.plateau_end + FALL_WIDTH

    def chi_minus(self, t):
        return 1.0 - smoothstep7((t - self.plateau_end) / FALL_WIDTH)

    def chi_plus(self, t):
        return 1.0 - self.chi_minus(t)

    def chi_tilde_minus(self, t):
        return 1.0 - smoothstep7((t - (SIGMA_CUT - TILDE_WIDTH)) / TILDE_WIDTH)

    def chi_tilde_mirror(self, t):
        """Reflection keeping the opposite direction region."""
        return self.chi_tilde_minus(-np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Quantization
# ---------------------------------------------------------------------------

def _midpoints(grid: Grid1D) -> np.ndarray:
    h = grid.spacing
    return -grid.length + (np.arange(2 * grid.size - 1) + 1.0) * h / 2.0


@dataclass(frozen=True)
class Band:
    """Frequency band outside which a symbol is the constant ``outside``.

    The symbol equals ``outside`` exactly wherever |xi| > reach(x), and
    ``weyl_apply`` needs it real and point-symmetric, c(-x, -xi) = c(x, xi).
    """

    reach: Callable
    outside: float


def weyl_matrix(symbol, grid: Grid1D) -> np.ndarray:
    """Dense quantization; reference path, quadratic memory.

    Row s of G[s, d] = (1/N) sum_k c(m_s, xi_k) e^{2 pi i k d / N} is,
    with k = k' - N/2, (-1)^d times an inverse FFT in k'.
    """
    n = grid.size
    g = np.fft.ifft(np.asarray(symbol(_midpoints(grid)[:, None],
                                      grid.frequencies[None, :]), dtype=complex), axis=1)
    g *= (-1.0) ** np.arange(n)[None, :]
    i = np.arange(n)
    return g[i[:, None] + i[None, :], (i[:, None] - i[None, :]) % n]


def _band_rows(band: Band, mids, xi) -> tuple[np.ndarray, np.ndarray]:
    """Per midpoint row s, the ladder columns [k0[s], k1[s]) of the band.

    Two extra columns on each side absorb rounding at the band edge.
    """
    reach = np.broadcast_to(band.reach(mids), mids.shape)
    k0 = np.searchsorted(xi, -reach, side="left") - 2
    k1 = np.searchsorted(xi, reach, side="right") + 2
    return np.maximum(k0, 0), np.minimum(k1, len(xi))


# band frequencies transformed together: the (K_BATCH, 2N) table and one batch's half
# spectra take 32 K_BATCH N bytes; symbols are evaluated 2N / K_BATCH rows at a time
K_BATCH = 4


def weyl_apply(symbol, grid: Grid1D, bank, band: Band) -> np.ndarray:
    """Matrix-free application of the quantized symbol, sliced by frequency.

    ``bank`` holds one vector per row, shape (m, n), and the result is the bank
    of their images; each row equals its own one-row apply bit for bit.  A
    complex symbol, or xi = +-dxi columns not mirror images bit for bit on their
    hull rows, raise ValueError.  A acts on each row u and its reversal P u, with
    its xi = 0 column halved; the unpaired -N/2, if the band reaches it, on u
    alone.  Each batch writes its hull, 2N / K_BATCH rows at a time, into one zeroed real
    table; its ``rfft``, freed before the next batch's symbols, and conjugation give column
    k's spectrum, shifted 2 (k - N/2) mod 2N bins, and one accumulator of 2N plus the
    largest shift bins sums the batches in ascending frequency, -N/2 last, and folds its wrap.
    """
    rows = np.asarray(bank, dtype=complex)
    n = grid.size
    if rows.ndim != 2 or rows.shape[1] != n:
        raise DimensionError("bank rows do not match grid size")
    m, p, zero = len(rows), 2 * n, n // 2   # zero: the column of xi = 0
    xi, mids, outside = grid.frequencies, _midpoints(grid), band.outside
    k0, k1 = _band_rows(band, mids, xi)
    stop = k1.max()
    batches = np.split(np.arange(zero, stop), range(K_BATCH, stop - zero, K_BATCH))
    if k0.min() == 0:                    # the unpaired -N/2
        batches.append(np.array([0]))
    top = max(2 * (cols[-1] - zero) % p for cols in batches)   # the largest shift
    # v[f] = sum_t w[t] e^{2 pi i f t / p} for the rows w of [u, P u], its
    # last top bins copied in front so that a shift by whole bins is a slice
    v = np.zeros((2 * m, top + p), dtype=complex)
    v[:m, top:top + n], v[m:, top:top + n] = rows, rows[:, ::-1]
    v[:, :top] = np.fft.ifft(v[:, top:], norm="forward", out=v[:, top:])[:, p - top:]
    acc = np.zeros((2 * m, top + p), dtype=complex)
    table, (row, term) = np.zeros((K_BATCH, p)), np.empty((2, p), dtype=complex)
    chunk = p // K_BATCH
    r0, r1 = 0, len(mids)
    for cols in batches:
        # every band holds xi = 0, so some row meets each batch, inside the last hull
        hit = r0 + np.flatnonzero((k0[r0:r1] <= cols[-1]) & (k1[r0:r1] > cols[0]))
        r0, r1 = hit[0], hit[-1] + 1
        batch = table[:len(cols)]
        for part in (slice(c, min(c + chunk, r1)) for c in range(r0, r1, chunk)):
            values = symbol(mids[None, part], xi[cols][:, None])
            if np.iscomplexobj(values):
                raise ValueError("weyl_apply needs a real symbol")
            np.subtract(values, outside, out=batch[:, part])
        if cols[0] == zero:
            if not np.array_equal(batch[1:2, r0:r1], symbol(
                    -mids[None, r0:r1], -xi[cols[1:2]][:, None]) - outside):
                raise ValueError("weyl_apply needs a point-symmetric symbol")
            batch[0, r0:r1] *= 0.5        # A and P A P share xi = 0
        for spectrum, col in zip(np.fft.rfft(batch, axis=1), cols):
            row[:n + 1] = spectrum       # the other half by conjugation
            np.conjugate(spectrum[n - 1:0:-1], out=row[n + 1:])
            shift = 2 * (col - zero) % p
            for j in range(m if col == 0 else 2 * m):   # -N/2 has no mirror
                acc[j, shift:shift + p] += np.multiply(row, v[j, top - shift:][:p], out=term)
        batch[:, r0:r1] = 0.0            # the table is zero off the hull again
        del spectrum, values             # the half spectra go before the next symbols
    del v, table, row, term, batch       # the last transform reuses them
    acc[:, :top] += acc[:, p:]
    res = np.fft.ifft(acc[:, :p], axis=1)[:, :n] / n
    return res[:m] + res[m:, ::-1] + outside * rows


# ---------------------------------------------------------------------------
# Radiation filters and defect ladders
# ---------------------------------------------------------------------------

# near radius of the far-field defect ratios, in x units; calibrated on
# the desk box (L = 400) and not scaled with L: on the half box (L = 200)
# the ratios compare radii 32 and 100, and both fail their 0.2 threshold
REFERENCE_RADIUS = 32.0


def default_radius_ladder(grid: Grid1D) -> np.ndarray:
    """Radii 4 sqrt(2)^k up to half the box, plus REFERENCE_RADIUS and
    the half box, the two radii the far-field ratios read."""
    top = grid.length / 2.0
    ladder = [4.0 * 2.0 ** (k / 2.0) for k in
              range(int(math.floor(2 * math.log2(top / 4.0))) + 1)]
    return np.array(sorted({r for r in ladder + [REFERENCE_RADIUS, top] if r <= top}))


@dataclass
class FilterResult:
    """Defect ladders of a phase-space-filtered vector."""

    ladder: np.ndarray
    ball_defect: np.ndarray      # R^{-s0} ||F(|x| < R) w||
    annulus_defect: np.ndarray   # R^{-s0} ||F(ANNULUS_EPS R <= |x| < R) w||
    degenerate: bool

    @property
    def ball_slope(self) -> float:
        return tail_slope(self.ladder, self.ball_defect)

    @property
    def annulus_slope(self) -> float:
        return tail_slope(self.ladder, self.annulus_defect)

    def defect_at(self, radius: float) -> float:
        """The annulus defect at the ladder rung nearest ``radius``."""
        k = int(np.argmin(np.abs(self.ladder - radius)))
        return float(self.annulus_defect[k])


def filter_symbol(spec: FilterSpec, params: WeightParams,
                  mode: str) -> tuple[Callable, Band]:
    """The cutoff symbol of a radiation filter mode, with its band.

    Modes: ``outgoing`` is chi_-(a0) chi~_-(b0), which removes the
    region around direction value +1; ``high`` is chi_+(a0);
    ``mirrored`` keeps the +1 region instead.  Every mode is constant
    (0, or 1 for ``high``) outside |xi| <= f(x) sqrt(spec.kinetic_reach),
    because chi_-(a0) is exactly 0 there.
    """
    if mode not in ("outgoing", "high", "mirrored"):
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "high":
        a0 = symbol_a0(params)

        def symbol(x, xi):
            return spec.chi_plus(a0(x, xi))
    else:
        direction = (spec.chi_tilde_minus if mode == "outgoing"
                     else spec.chi_tilde_mirror)

        def symbol(x, xi):
            # a0 = xi^2 / f^2 and b0 = (xi / f) (x / <x>), the weight evaluated once
            f = weight_f(params, x)
            turn = direction((xi / f) * (x / bracket(x)))
            return spec.chi_minus(xi**2 / f**2) * turn
    reach = math.sqrt(spec.kinetic_reach)
    band = Band(lambda x: weight_f(params, x) * reach,
                outside=1.0 if mode == "high" else 0.0)
    return symbol, band


def radiation_filter(bank, model: PotentialModel, grid: Grid1D,
                     mode: str) -> list[FilterResult]:
    """Apply a phase-space cutoff and ladder its vanishing defect.

    The cutoff is ``filter_symbol(FilterSpec.for_model(model), params,
    mode)`` with the model's low-energy weight; an outgoing solution
    must leave the ``outgoing`` and ``high`` defects vanishing, while
    ``mirrored`` witnesses the asymmetry.  The rows of ``bank``, shape
    (m, n), are filtered in one pass and laddered as one bank on
    ``default_radius_ladder(grid)`` with the model's exponent s0: one
    FilterResult per row.
    """
    params = WeightParams(lam=0.0, kappa=model.kappa_low_energy, mu=model.mu)
    symbol, band = filter_symbol(FilterSpec.for_model(model), params, mode)
    filtered = weyl_apply(symbol, grid, bank, band=band)
    ladder = default_radius_ladder(grid)
    ball = defect_ladder(filtered, grid.nodes, ladder, model.s0, 0.0)
    annulus = defect_ladder(filtered, grid.nodes, ladder, model.s0, ANNULUS_EPS)
    return [FilterResult(ladder=ladder, ball_defect=b, annulus_defect=a,
                         degenerate=bool(np.linalg.norm(w) <= 1e-13
                                         * max(np.linalg.norm(u), 1e-300)))
            for b, a, w, u in zip(ball, annulus, filtered, bank)]
