"""FFT-based Weyl quantization on the 1-d line grid, with phase-space
cutoff filters for the zero-energy radiation condition.

The quantization of a symbol c(x, xi) on an N-node grid is

    M[i, j] = (1/N) sum_k c((x_i + x_j)/2, xi_k) exp(i xi_k (x_i - x_j)),

over the discrete frequency ladder xi_k = (pi/L) {-N/2, ..., N/2-1}.
Since xi_k (x_i - x_j) = 2 pi k (i - j) / N, the matrix depends on the
midpoint index s = i + j and on d = (i - j) mod N only, so one batched
inverse FFT over the midpoint grid produces every entry.  Real symbols
give exactly Hermitian matrices and c = 1 gives exactly the identity.

The dense matrix is the reference path; ``weyl_apply`` streams the
same computation in midpoint chunks so a filter can be applied at
N = 4096 without forming the 256 MB matrix.  It applies one symbol to
a block of columns at once, so every symbol table is built and
transformed once for all of them.  A symbol that is constant outside
a frequency band |xi| <= reach(x) carries that band (``Band``), and is
evaluated only on the band columns of each chunk; the rest of the
table is filled with the constant.  The radiation cutoffs have such a
band: chi_-(a0) vanishes exactly once a0 = xi^2/f(x)^2 reaches the end
of its fall, which leaves under 2% of the table to evaluate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .besov import defect_ladder, loglog_slope
from .errors import DimensionError
from .operators import Grid1D
from .potential import PotentialModel, WeightParams, bracket, weight_f

__all__ = [
    "smoothstep7",
    "FilterSpec",
    "Band",
    "symbol_a0",
    "symbol_b0",
    "weyl_matrix",
    "weyl_apply",
    "filter_symbol",
    "FilterResult",
    "radiation_filter",
    "default_radius_ladder",
]


def smoothstep7(t):
    """Degree-7 polynomial step: 0 at t<=0, 1 at t>=1, C^3 joins."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return t**4 * (35.0 - 84.0 * t + 70.0 * t**2 - 20.0 * t**3)


def _fall(t, start, width):
    """1 below start, 0 above start + width, smooth in between."""
    return 1.0 - smoothstep7((np.asarray(t, dtype=float) - start) / width)


def _rise(t, start, width):
    return smoothstep7((np.asarray(t, dtype=float) - start) / width)


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

def symbol_a0(params: WeightParams) -> Callable:
    """a(x, xi) = xi^2 / f(x)^2, the scaled kinetic symbol."""
    def fn(x, xi):
        f2 = weight_f(params, x) ** 2
        return xi**2 / f2
    return fn


def symbol_b0(params: WeightParams) -> Callable:
    """b(x, xi) = (xi / f(x)) (x / <x>), the scaled radial-direction symbol."""
    def fn(x, xi):
        return (xi / weight_f(params, x)) * (x / bracket(x))
    return fn


# ---------------------------------------------------------------------------
# Cutoff profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FilterSpec:
    """Smooth cutoffs selecting the low-frequency outgoing region.

    chi_minus equals 1 on [0, plateau_end], falls to 0 over one unit,
    and rises from -1, so its support is [-1, plateau_end + 1] and it
    is nonincreasing for t > 0.  chi_tilde is supported in
    (-inf, sigma_cut), realized with a compact plateau wide enough to
    cover every direction value the kinetic cutoff lets through.
    """

    plateau_end: float
    sigma_cut: float = 0.5
    fall_width: float = 1.0
    tilde_width: float = 0.25

    def __post_init__(self):
        if self.plateau_end <= 0:
            raise ValueError("plateau must have positive length")
        if self.fall_width <= 0 or self.tilde_width <= 0:
            raise ValueError("ramp widths must be positive")

    @classmethod
    def for_model(cls, model: PotentialModel, sigma_cut: float = 0.5,
                  neighborhood_margin: float = 1.0,
                  fall_width: float = 1.0,
                  tilde_width: float = 0.25) -> "FilterSpec":
        """Plateau from the model's cutoff scale C_0' = max(C_0/K, 1).

        The plateau extends to C_0' + margin; any margin > 0 keeps the
        cutoff equal to 1 on a neighborhood of [0, C_0'], which is all
        the phase-space localization statements require.  Wider ramps
        quantize with less leakage on coarse frequency ladders.
        """
        c0p = model.c0_prime()
        return cls(plateau_end=c0p + neighborhood_margin,
                   sigma_cut=sigma_cut, fall_width=fall_width,
                   tilde_width=tilde_width)

    @property
    def kinetic_reach(self) -> float:
        """The value of t from which chi_minus(t) is exactly 0."""
        return self.plateau_end + self.fall_width

    def chi_minus(self, t):
        t = np.asarray(t, dtype=float)
        return _rise(t, -1.0, 1.0) * _fall(t, self.plateau_end, self.fall_width)

    def chi_plus(self, t):
        return 1.0 - self.chi_minus(t)

    def chi_tilde_minus(self, t):
        t = np.asarray(t, dtype=float)
        # 0 below t = -5, 1 from t = -4 up to the fall
        return _rise(t, -5.0, 1.0) * _fall(
            t, self.sigma_cut - self.tilde_width, self.tilde_width)

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

    The symbol equals ``outside`` exactly wherever |xi| > reach(x).
    """

    reach: Callable
    outside: float


def _g_rows(symbol, xs, xi):
    """Rows G[s, d] = (1/N) sum_k c(m_s, xi_k) e^{2 pi i k d / N}.

    With k = k' - N/2 the sum is (-1)^d times an inverse FFT in k'.
    """
    rows = np.fft.ifft(np.asarray(symbol(xs[:, None], xi[None, :]),
                                  dtype=complex), axis=1)
    n = rows.shape[1]
    rows *= (-1.0) ** np.arange(n)[None, :]
    return rows


def weyl_matrix(symbol, grid: Grid1D) -> np.ndarray:
    """Dense quantization; reference path, quadratic memory."""
    n = grid.size
    xi = grid.frequencies
    g = _g_rows(symbol, _midpoints(grid), xi)
    i = np.arange(n)
    s = i[:, None] + i[None, :]
    d = (i[:, None] - i[None, :]) % n
    return g[s, d]


def _band_columns(band: Band | None, xs, xi) -> tuple[int, int]:
    """Columns [lo, hi) of the ladder that hold the band over ``xs``.

    Two extra columns on each side absorb rounding at the band edge.
    """
    if band is None:
        return 0, len(xi)
    reach = float(np.max(band.reach(xs)))
    lo = int(np.searchsorted(xi, -reach, side="left")) - 2
    hi = int(np.searchsorted(xi, reach, side="right")) + 2
    return max(lo, 0), min(hi, len(xi))


def weyl_apply(symbol, grid: Grid1D, u, chunk: int = 512,
               band: Band | None = None) -> np.ndarray:
    """Matrix-free application of the quantized symbol.

    ``u`` is one vector of shape (n,) or a block of shape (n, m); the
    columns share every symbol table, and each equals its own
    single-vector apply bit for bit.  Streams over midpoint
    (antidiagonal) batches: entries with i + j = s share a row of the
    FFT table, so each batch costs one in-place block FFT plus, per
    antidiagonal, two strided-slice gathers.  With a ``band`` the
    symbol is evaluated only on the batch's band columns and the rest
    of the table holds ``band.outside``; without one the band is the
    whole frequency ladder.
    """
    u = np.asarray(u, dtype=complex)
    n = grid.size
    if u.ndim not in (1, 2) or u.shape[0] != n:
        raise DimensionError("vector length does not match grid size")
    cols = u.reshape(n, -1)
    out = np.zeros_like(cols)
    xi = grid.frequencies
    mids = _midpoints(grid)
    sign = (-1.0) ** np.arange(n)
    outside = 0.0 if band is None else band.outside
    table = np.empty((min(chunk, 2 * n - 1), n), dtype=complex)
    for start in range(0, 2 * n - 1, chunk):
        xs = mids[start:start + chunk]
        rows = table[:len(xs)]
        k0, k1 = _band_columns(band, xs, xi)
        rows[:, :k0] = outside
        rows[:, k1:] = outside
        rows[:, k0:k1] = symbol(xs[:, None], xi[None, k0:k1])
        np.fft.ifft(rows, axis=1, out=rows)
        rows *= sign
        for s, row in enumerate(rows, start):
            # entry (i, s - i) sits at column 2i - s mod n; that index
            # wraps below i = mid, which splits the antidiagonal into
            # two stride-2 slices of the row
            lo, hi = max(0, s - n + 1), min(n - 1, s)
            mid = max(lo, (s + 1) // 2)
            out[lo:mid] += (row[2 * lo - s + n:2 * mid - s + n:2, None]
                            * cols[s - mid + 1:s - lo + 1][::-1])
            out[mid:hi + 1] += (row[2 * mid - s:2 * hi - s + 1:2, None]
                                * cols[s - hi:s - mid + 1][::-1])
    return out.reshape(u.shape)


# ---------------------------------------------------------------------------
# Radiation filters and defect ladders
# ---------------------------------------------------------------------------

def default_radius_ladder(grid: Grid1D) -> np.ndarray:
    """Radii 4 sqrt(2)^k up to half the box, plus 32 and the half box.

    The defect checks read the ladder at 32 and at half the box, so
    both are rungs.
    """
    top = grid.length / 2.0
    ladder = [4.0 * 2.0 ** (k / 2.0) for k in
              range(int(math.floor(2 * math.log2(top / 4.0))) + 1)]
    ladder += [32.0, top]
    return np.unique([r for r in ladder if r <= top])


@dataclass
class FilterResult:
    """Defect ladders of a phase-space-filtered vector."""

    mode: str
    filtered: np.ndarray
    ladder: np.ndarray
    ball_defect: np.ndarray      # R^{-s0} ||F(|x| < R) w||
    annulus_defect: np.ndarray   # R^{-s0} ||F(eps R <= |x| < R) w||
    annulus_eps: float
    exponent: float
    degenerate: bool

    @property
    def ball_slope(self) -> float:
        half = len(self.ladder) // 2
        return loglog_slope(self.ladder[half:], self.ball_defect[half:])

    @property
    def annulus_slope(self) -> float:
        half = len(self.ladder) // 2
        return loglog_slope(self.ladder[half:], self.annulus_defect[half:])

    def defect_at(self, radius: float, annulus: bool = False) -> float:
        values = self.annulus_defect if annulus else self.ball_defect
        k = int(np.argmin(np.abs(self.ladder - radius)))
        return float(values[k])


def filter_symbol(spec: FilterSpec, params: WeightParams,
                  mode: str = "outgoing") -> tuple[Callable, Band]:
    """The cutoff symbol of a radiation filter mode, with its band.

    Modes: ``outgoing`` is chi_-(a0) chi~_-(b0), which removes the
    region around direction value +1; ``high`` is chi_+(a0);
    ``mirrored`` keeps the +1 region instead.  Every mode is constant
    (0, or 1 for ``high``) outside |xi| <= f(x) sqrt(spec.kinetic_reach),
    because chi_-(a0) is exactly 0 there.
    """
    if mode not in ("outgoing", "high", "mirrored"):
        raise ValueError(f"unknown filter mode {mode!r}")
    if mode == "outgoing" and spec.sigma_cut > 1.0:
        raise ValueError("outgoing filter requires direction cut sigma <= 1")
    a0 = symbol_a0(params)
    b0 = symbol_b0(params)
    if mode == "outgoing":
        def symbol(x, xi):
            return spec.chi_minus(a0(x, xi)) * spec.chi_tilde_minus(b0(x, xi))
    elif mode == "mirrored":
        def symbol(x, xi):
            return spec.chi_minus(a0(x, xi)) * spec.chi_tilde_mirror(b0(x, xi))
    else:
        def symbol(x, xi):
            return spec.chi_plus(a0(x, xi))
    reach = math.sqrt(spec.kinetic_reach)
    band = Band(lambda x: weight_f(params, x) * reach,
                outside=1.0 if mode == "high" else 0.0)
    return symbol, band


def radiation_filter(u, spec: FilterSpec, model: PotentialModel,
                     grid: Grid1D, ladder=None, mode: str = "outgoing",
                     annulus_eps: float = 0.5):
    """Apply a phase-space cutoff and ladder its vanishing defect.

    The cutoff is ``filter_symbol(spec, params, mode)`` with the
    model's low-energy weight; an outgoing solution must leave the
    ``outgoing`` and ``high`` defects vanishing, while ``mirrored``
    witnesses the asymmetry.  The defect exponent is the model's
    s0 = 1/2 + mu/4.  ``u`` of shape (n,) gives one FilterResult; a
    block of shape (n, m) is filtered in one pass and gives a list of
    m results, one per column.
    """
    params = WeightParams(lam=0.0, kappa=model.kappa_low_energy, mu=model.mu)
    symbol, band = filter_symbol(spec, params, mode)
    u = np.asarray(u, dtype=complex)
    w = weyl_apply(symbol, grid, u, band=band)
    if ladder is None:
        ladder = default_radius_ladder(grid)
    ladder = np.asarray(ladder, dtype=float)
    s0 = model.s0

    def result(u_col, w_col):
        scale = max(np.linalg.norm(u_col), 1e-300)
        return FilterResult(
            mode=mode, filtered=w_col, ladder=ladder,
            ball_defect=defect_ladder(w_col, grid.nodes, ladder, exponent=s0),
            annulus_defect=defect_ladder(w_col, grid.nodes, ladder, exponent=s0,
                                         annulus_eps=annulus_eps),
            annulus_eps=annulus_eps, exponent=s0,
            degenerate=bool(np.linalg.norm(w_col) <= 1e-13 * scale))

    if w.ndim == 1:
        return result(u, w)
    return [result(u[:, j], np.ascontiguousarray(w[:, j]))
            for j in range(w.shape[1])]
