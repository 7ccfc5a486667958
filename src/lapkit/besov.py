"""Finite-dimensional abstract Besov norms for multiplication operators.

A self-adjoint weight operator A is represented by the vector of its
multiplier values on grid nodes (see ``as_spectrum_values``).  Shell radii
R_0 = 0, R_j = p**(j-1) split [0, oo) into half-open annuli
[R_{j-1}, R_j); the Besov norm is the weighted shell sum

    ||u||_B   = sum_j R_j**(1/2) ||F_j u||,

its dual the weighted shell sup

    ||u||_B* = sup_j R_j**(-1/2) ||F_j u||,

where F_j restricts u to the nodes whose weight modulus falls in
shell j.  All operations here are exact up to floating point: the
shells partition the index set, so no quadrature or truncation error
enters.  Alongside the norms this module carries numerical checks of
the base-change, scaling and power-map inequalities that the norms
satisfy: each returns a ``reports.CheckResult`` against its explicit
constant, with a witness row when one breaks it.  Dense oracles give
an operator's norm from the shell space to its dual exactly, twice its
unit-block sup above it, and block constants over an accretive sup.

The norms take a bank, an (m, n) array of sample rows, bin the
spectrum once per call and return one value per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError
from .reports import CheckResult

__all__ = [
    "ShellScheme",
    "ShellProfile",
    "as_spectrum_values",
    "shell_decompose",
    "besov_norm",
    "defect_ladder",
    "loglog_slope",
    "tail_slope",
    "base_equivalence_constants",
    "verify_base_equivalence",
    "verify_scaling",
    "power_map_constant",
    "verify_power_map",
    "unit_blocks",
    "schur_block_bound",
    "accretive_bound",
    "bstar_norm_dense",
    "Stream",
    "sample_vectors",
]


# ---------------------------------------------------------------------------
# Schemes and spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellScheme:
    """Dyadic-type shell ladder with radii R_0 = 0 and R_j = base**(j-1)."""

    base: float

    def __post_init__(self):
        if not self.base > 1.0:
            raise ValueError(f"shell base must exceed 1, got {self.base}")

    def radii(self, count: int) -> np.ndarray:
        """Radii R_1..R_count (R_0 = 0 is implicit)."""
        return self.base ** np.arange(count, dtype=float)

    def shell_count(self, max_abs: float) -> int:
        """Smallest J with R_J = base**(J-1) > max_abs, so shells 1..J cover
        [0, max_abs]; counted up exactly from J = 1."""
        j = 1
        # a float power and "not >": inf and nan overflow instead of counting on
        while not self.base ** (j - 1.0) > max_abs:
            j += 1
        return j

    def shell_indices(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """0-based shell index per value; shell k holds [R_k-1, R_k).

        Lower edges are inclusive, so |a| = R_j lands in shell j+1,
        matching the half-open convention of the shell definition.
        Returns the indices and the radii R_1..R_J.
        """
        absvals = np.abs(np.asarray(values, dtype=float))
        count = self.shell_count(float(absvals.max(initial=0.0)))
        radii = self.radii(count)
        return np.searchsorted(radii, absvals, side="right"), radii

    def shells(self, values: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Node indices of every shell, ascending, and the radii R_1..R_J.

        Empty shells are kept, so the k-th index array belongs to radii[k].
        """
        idx, radii = self.shell_indices(values)
        return [np.flatnonzero(idx == k) for k in range(len(radii))], radii


def as_spectrum_values(a) -> np.ndarray:
    """Multiplier values of a self-adjoint weight operator on grid nodes.

    DataError if any value is non-finite.
    """
    vals = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(vals)):
        raise DataError("weight spectrum contains non-finite entries")
    return vals


# ---------------------------------------------------------------------------
# Shell decomposition and norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellProfile:
    """Per-shell norms of the rows u of a bank together with the derived
    values, one per row."""

    radii: np.ndarray            # R_1..R_J
    shell_norms: np.ndarray      # (m, J): ||F_j u|| for j = 1..J
    total_norm: np.ndarray       # ||u||
    besov: np.ndarray            # sum_j R_j^{1/2} ||F_j u||
    dual: np.ndarray             # sup_j R_j^{-1/2} ||F_j u||
    ball_sup: np.ndarray         # exact sup_{R>1} R^{-1/2} ||F(|A| < R) u||


def _check_pair(u, a):
    """Validate a bank (m, n) against a spectrum once."""
    bank = np.asarray(u, dtype=complex)
    vals = as_spectrum_values(a)
    if bank.ndim != 2 or vals.ndim != 1 or bank.shape[1] != len(vals):
        raise DimensionError(f"a bank of shape {bank.shape} against a spectrum of "
                             f"shape {vals.shape}: expected (m, n) against (n,)")
    if not np.isfinite(bank).all():
        raise DataError("bank contains non-finite entries")
    return bank, vals


def _row_norms(bank) -> np.ndarray:
    # re.re + im.im by one BLAS dot per row and part: what np.linalg.norm
    # sums for a lone complex row, bit for bit (the axis=1 form is not)
    sq = sum(part[:, None, :] @ part[:, :, None] for part in (bank.real, bank.imag))
    return np.sqrt(sq[:, 0, 0])


def _shell_norms(mass, vals, scheme):
    """(m, J) shell norms from the masses |u|^2, each shell summed in node
    order; C order, so a row sums like a lone vector (F order does not)."""
    idx, radii = scheme.shell_indices(vals)
    keys = idx + len(radii) * np.arange(len(mass))[:, None]
    sq = np.bincount(keys.ravel(), mass.ravel(), len(radii) * len(mass))
    return np.sqrt(sq).reshape(len(mass), len(radii)), radii


def _ball_mass(mass, vals):
    """Sorted weight moduli and, per row, the mass below each: column k
    of the cumulative sums is ||F(|A| < R) u||^2 for R just above the
    k smallest moduli (column 0 is the empty ball)."""
    absvals = np.abs(vals)
    order = np.argsort(absvals, kind="stable")
    cum = np.zeros((len(mass), len(vals) + 1))
    np.cumsum(mass[:, order], axis=1, out=cum[:, 1:])
    return absvals[order], cum


def _ball_sup(sorted_abs, cum):
    # the ball norm is a right-continuous step in R jumping at the
    # distinct moduli v, so the sup is attained as R -> v+ (R -> 1+ for
    # v < 1): the candidates are the last index of each run of equal moduli
    ends = np.flatnonzero(np.diff(sorted_abs, append=np.inf))
    ratios = cum[:, ends + 1] / np.maximum(sorted_abs[ends], 1.0)
    return np.sqrt(np.max(ratios, axis=1, initial=0.0))


def shell_decompose(u, a, scheme: ShellScheme) -> ShellProfile:
    """Split each row of the bank u into weight shells and collect every
    derived norm.

    The shells partition the index set, so the shell norms satisfy
    sum_j ||F_j u||^2 = ||u||^2 exactly.
    """
    bank, vals = _check_pair(u, a)
    mass = np.abs(bank) ** 2
    norms, radii = _shell_norms(mass, vals, scheme)
    return ShellProfile(
        radii=radii,
        shell_norms=norms,
        total_norm=_row_norms(bank),
        besov=np.sum(np.sqrt(radii) * norms, axis=1),
        dual=np.max(norms / np.sqrt(radii), axis=1),
        ball_sup=_ball_sup(*_ball_mass(mass, vals)),
    )


def besov_norm(u, a, scheme: ShellScheme) -> np.ndarray:
    """sum_j R_j^{1/2} ||F_j u||, per bank row."""
    bank, vals = _check_pair(u, a)
    norms, radii = _shell_norms(np.abs(bank) ** 2, vals, scheme)
    return np.sum(np.sqrt(radii) * norms, axis=1)


# ---------------------------------------------------------------------------
# Vanishing-at-infinity defect
# ---------------------------------------------------------------------------

def defect_ladder(u, a, ladder, exponent: float, annulus_eps: float) -> np.ndarray:
    """R^{-exponent} ||F(annulus_eps R <= |A| < R) u|| on the ladder, per bank row.

    annulus_eps = 0 gives the ball form R^{-exponent} ||F(|A| < R) u||;
    ball and annulus forms vanish along R -> oo exactly when the vector
    lies in the small dual space.
    """
    bank, vals = _check_pair(u, a)
    ladder = np.asarray(ladder, dtype=float)
    if ladder.size == 0:
        raise ValueError("radius ladder is empty")
    absvals = np.abs(vals)
    out = np.empty((len(bank), len(ladder)))
    for i, radius in enumerate(ladder):
        mask = (absvals >= annulus_eps * radius) & (absvals < radius)
        out[:, i] = _row_norms(bank[:, mask]) / radius ** exponent
    return out


def loglog_slope(radii, values) -> float:
    """Least-squares slope of log(values) against log(radii), over the
    positive values; nan when fewer than two are positive."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if np.count_nonzero(keep) < 2:
        return math.nan
    lx = np.log(radii[keep])
    ly = np.log(values[keep])
    lx = lx - lx.mean()
    denom = float(np.dot(lx, lx))
    if denom == 0.0:
        return math.nan
    return float(np.dot(lx, ly - ly.mean()) / denom)


def tail_slope(ladder, values) -> float:
    """``loglog_slope`` over the top half of a radius ladder, the finite
    stand-in for a limit as the radius goes to infinity."""
    half = len(ladder) // 2
    return loglog_slope(ladder[half:], values[half:])


# ---------------------------------------------------------------------------
# Ratios and witnesses
# ---------------------------------------------------------------------------

def _serialize_witness(u):
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, dtype=complex)]


def _masked_ratio(num, den, live):
    """num / den on the live rows, 0 on the others."""
    return np.divide(num, den, out=np.zeros(len(num)), where=live)


def _first_over(ratios, bank):
    """The serialized first row whose ratio exceeds 1, or None."""
    over = np.flatnonzero(ratios > 1.0)
    return _serialize_witness(bank[over[0]]) if over.size else None


# ---------------------------------------------------------------------------
# Seeded draws and sample banks
# ---------------------------------------------------------------------------

def _finalize(z):
    """SplitMix64's output mix (Steele, Lea & Flood 2014), in place on uint64."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    z ^= z >> 31
    return z


class Stream:
    """Seeded counter-based draws under numpy's names ``random`` and ``standard_normal``.

    Draw k mixes key + k * gamma, the key itself mixed from the seed so
    that seed s + 1 is no shifted copy of seed s; its top 53 bits give a
    uniform in [0, 1), so uniform draws of n then m equal one of n + m.
    Gaussians take both Box-Muller (1958) outputs of each pair of draws.
    """

    def __init__(self, seed: int):
        self._key = _finalize(np.array([seed % 2**64], dtype=np.uint64))[0]
        self._drawn = 0

    def random(self, shape) -> np.ndarray:
        z = np.arange(self._drawn, self._drawn + int(np.prod(shape)), dtype=np.uint64)
        self._drawn += z.size
        z *= 0x9E3779B97F4A7C15    # SplitMix64's gamma, 2**64 over the golden ratio
        z += self._key
        return ((_finalize(z) >> 11) * 2.0**-53).reshape(shape)

    def standard_normal(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        u = self.random(n + n % 2)
        radius, angle = np.sqrt(-2.0 * np.log1p(-u[0::2])), 2.0 * math.pi * u[1::2]
        u[0::2], u[1::2] = radius * np.cos(angle), radius * np.sin(angle)
        return u[:n].reshape(shape)


def sample_vectors(a, scheme: ShellScheme, n_random: int, rng) -> np.ndarray:
    """A bank (m, n) of random complex Gaussian rows plus shell-boundary probes.

    Adversarial rows put all mass in a single shell or on the nodes
    hugging a shell radius from either side, the configurations that
    saturate the shell-sum/shell-sup inequalities.
    """
    vals = as_spectrum_values(a)
    n = len(vals)
    gauss = rng.standard_normal((n_random, 2, n))
    rows = [(gauss[:, 0] + 1j * gauss[:, 1]) / math.sqrt(2)]
    del gauss
    absvals = np.abs(vals)
    for nodes in scheme.shells(vals)[0]:
        if nodes.size == 0:
            continue
        # a full-shell random row, then unit mass at either shell edge
        probe = np.zeros((3, n), dtype=complex)
        probe[0, nodes] = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
        probe[1, nodes[np.argmin(absvals[nodes])]] = 1.0
        probe[2, nodes[np.argmax(absvals[nodes])]] = 1.0
        rows.append(probe)
    return np.concatenate(rows)


# ---------------------------------------------------------------------------
# Base-change equivalence
# ---------------------------------------------------------------------------

def base_equivalence_constants(p: float) -> tuple[float, float]:
    """Constants (C_to_p, C_from_p) of the base-p norm equivalence:

    ||u||_{B_p} <= C_to_p ||u||_{B_2}   with C_to_p  = 1 + sqrt(p) (2 + ln2/ln p),
    ||u||_{B_2} <= C_from_p ||u||_{B_p} with C_from_p = 1 + sqrt(2) (2 + ln p/ln 2).
    """
    if not p > 1.0:
        raise ValueError("base must exceed 1")
    c_to = 1.0 + math.sqrt(p) * (2.0 + math.log(2.0) / math.log(p))
    c_from = 1.0 + math.sqrt(2.0) * (2.0 + math.log(p) / math.log(2.0))
    return c_to, c_from


def verify_base_equivalence(samples, a, nb, p: float) -> tuple[CheckResult, list | None]:
    """Check both directions of the base-p equivalence on every sample
    against its base-2 norms ``nb`` (its ``ShellProfile.besov``); the
    witness is the first row attaining the worst ratio, when over 1."""
    c_to, c_from = base_equivalence_constants(p)
    bank = np.asarray(samples, dtype=complex)
    npnorm = besov_norm(bank, a, ShellScheme(p))
    # a row has both norms zero or neither: the same |u|^2 fill the shells
    live = nb > 0.0
    ratio = np.maximum(_masked_ratio(npnorm, c_to * nb, live),
                       _masked_ratio(nb, c_from * npnorm, live))
    k = int(np.argmax(ratio))
    worst = float(ratio[k])
    check = CheckResult(f"base-equivalence-p{p:g}", "base-equivalence", worst,
                        1 + 1e-12, "<=", f"both base-{p:g} constants hold")
    return check, _serialize_witness(bank[k]) if worst > 1.0 else None


# ---------------------------------------------------------------------------
# Scaling of the weight operator
# ---------------------------------------------------------------------------

def verify_scaling(samples, a, c: float) -> tuple[CheckResult, list | None]:
    """Check ||u||_{B(cA)} <= 8 |c|^{1/2} ||u||_{B(A)}.

    For |c| <= 1 the inequality needs u = F(|cA| >= 1) u, so samples
    are projected onto that range, and the sharper 3 |c|^{1/2} bound
    of that branch is checked as well: the value is the worse of the
    two ratios.  The witness is the first row over the 8 |c|^{1/2} bound.
    """
    vals = as_spectrum_values(a)
    scheme = ShellScheme(2.0)
    small = abs(c) <= 1.0
    bank = np.asarray(samples, dtype=complex)
    if small:
        bank = np.where(np.abs(c * vals) >= 1.0, bank, 0.0)
    nb = besov_norm(bank, vals, scheme)
    nbc = besov_norm(bank, c * vals, scheme)
    ratio = _masked_ratio(nbc, 8.0 * math.sqrt(abs(c)) * nb, nb != 0.0)
    worst = float(np.max(ratio, initial=0.0))
    if small:
        sharp = _masked_ratio(nbc, 3.0 * math.sqrt(abs(c)) * nb, nb != 0.0)
        worst = max(worst, float(np.max(sharp, initial=0.0)))
    check = CheckResult(f"weight-scaling-c{c:g}", "weight-scaling", worst,
                        1 + 1e-12, "<=",
                        "scaled-norm bound 8|c|^1/2 (and 3|c|^1/2 for |c| <= 1)")
    return check, _first_over(ratio, bank)


# ---------------------------------------------------------------------------
# Power-map isomorphism
# ---------------------------------------------------------------------------

def power_map_constant(s: float) -> float:
    """Norm constant of A^{-s/2}: B(A) -> B(A^{1+s}) for spectra >= 1.

    Assembled as the power-base factor 2^{max(s/2,0)/(1+s)} times the
    base-change constant for p = 2^{1/(1+s)}.
    """
    if not s > -1.0:
        raise ValueError("power parameter must exceed -1")
    p = 2.0 ** (1.0 / (1.0 + s))
    c_to, _ = base_equivalence_constants(p) if p != 2.0 else (1.0, 1.0)
    return 2.0 ** (max(s / 2.0, 0.0) / (1.0 + s)) * c_to


def verify_power_map(samples, a, nb, s: float) -> tuple[CheckResult, list | None]:
    """Check both directions of the power-map norm bounds on spectra >= 1
    against the samples' base-2 norms ``nb`` (their ``ShellProfile.besov``);
    the witness is the first row over either direction's constant."""
    vals = as_spectrum_values(a)
    if np.any(vals < 1.0):
        raise ValueError("power map requires a spectrum bounded below by 1")
    scheme = ShellScheme(2.0)
    c_fwd = power_map_constant(s)
    s_inv = -s / (1.0 + s)
    c_inv = power_map_constant(s_inv)
    powered = vals ** (1.0 + s)
    bank = np.asarray(samples, dtype=complex)
    fwd = _masked_ratio(besov_norm(vals ** (-s / 2.0) * bank, powered, scheme),
                        c_fwd * nb, nb > 0.0)
    nbp = besov_norm(bank, powered, scheme)
    inv = _masked_ratio(besov_norm(vals ** (s / 2.0) * bank, vals, scheme),
                        c_inv * nbp, nbp > 0.0)
    worst = max(float(np.max(fwd, initial=0.0)), float(np.max(inv, initial=0.0)))
    check = CheckResult(f"power-map-s{s:g}", "power-map", worst, 1 + 1e-12, "<=",
                        "both power-map direction constants hold")
    return check, _first_over(np.maximum(fwd, inv), bank)


# ---------------------------------------------------------------------------
# Unit-width block bracket and the dense dual norm
# ---------------------------------------------------------------------------

def unit_blocks(values) -> tuple[np.ndarray, list[np.ndarray]]:
    """Group node indices by the half-open unit block floor(a) <= a < floor(a) + 1.

    Returns ``(labels, blocks)``: ``blocks`` holds the ascending index
    arrays of the occupied blocks in ascending anchor order, and
    ``labels[i]`` is the position in ``blocks`` of node i's block.
    """
    anchors = np.floor(np.asarray(values, dtype=float)).astype(int)
    _, labels = np.unique(anchors, return_inverse=True)
    order = np.argsort(labels, kind="stable")
    return labels, np.split(order, np.cumsum(np.bincount(labels))[:-1])


def _size_groups(blocks) -> list[np.ndarray]:
    """The index arrays of equal-size blocks stacked, one (count, size) array per size."""
    return [np.stack([b for b in blocks if len(b) == s]) for s in sorted(set(map(len, blocks)))]


def _spectral_norm(m) -> float:
    # of a matrix, or the largest over a stack (0 for none): a batched SVD
    # makes per matrix the call of np.linalg.norm(m, 2), bit for bit
    return float(np.linalg.svd(m, compute_uv=False).max(initial=0.0))


def _operator(T, a) -> tuple[np.ndarray, np.ndarray]:
    """A dense matrix and the spectrum it acts on, validated together."""
    T = np.asarray(T)
    vals = as_spectrum_values(a)
    if T.shape != (len(vals), len(vals)):
        raise DimensionError(f"matrix shape {T.shape} does not match spectrum length {len(vals)}")
    return T, vals


def schur_block_bound(T, a) -> float:
    """Unit-block sup of a dense matrix, sup ||F(m <= A < m+1) T F(n <= A < n+1)||
    over unit-width block pairs; twice it bounds the B(A) -> B(A)* norm.
    One SVD batch per pair of block sizes; an all-zero pair (norm 0) is skipped."""
    T, vals = _operator(T, a)
    groups = _size_groups(unit_blocks(vals)[1])
    best = 0.0
    for rows in groups:
        for cols in groups:
            pairs = T[rows[:, None, :, None], cols[None, :, None, :]]
            pairs = pairs.reshape(-1, rows.shape[1], cols.shape[1])
            best = max(best, _spectral_norm(pairs[pairs.any(axis=(1, 2))]))
    return best


def accretive_bound(T, a) -> float | None:
    """2 C_1 + C_2 + C_3, which bounds the unit-block sup of an accretive
    dense matrix; None when T + T* has an eigenvalue below rounding level.
    C_1 is the largest norm of a diagonal unit block, C_2 of a block's
    columns on the blocks below it, C_3 of its rows on it and those above."""
    T, vals = _operator(T, a)
    if np.min(np.linalg.eigvalsh(T + T.conj().T)) < -1e-10 * max(1.0, _spectral_norm(T)):
        return None
    labels, blocks = unit_blocks(vals)
    c1 = max(_spectral_norm(T[g[:, :, None], g[:, None, :]]) for g in _size_groups(blocks))
    # each restriction has its own shape, and zero-padded batches round differently
    c2 = c3 = 0.0
    for g, cols in enumerate(blocks):
        c2 = max(c2, _spectral_norm(T[np.ix_(np.flatnonzero(labels < g), cols)]))
        c3 = max(c3, _spectral_norm(T[np.ix_(cols, np.flatnonzero(labels >= g))]))
    return 2.0 * c1 + c2 + c3


def bstar_norm_dense(T, a) -> float:
    """Exact B(A) -> B(A)* norm of a dense matrix.

    The source norm is a weighted l1 sum over shells and the target a
    weighted sup, so the dual-pairing optimum is attained on a single
    shell pair; exhausting all pairs gives the exact value

        max_{j,k} R_j^{-1/2} R_k^{-1/2} || F_j T F_k ||.
    """
    T, vals = _operator(T, a)
    shells, radii = ShellScheme(2.0).shells(vals)
    best = 0.0
    for rows, r_row in zip(shells, radii):
        for cols, r_col in zip(shells, radii):
            best = max(best, _spectral_norm(T[np.ix_(rows, cols)]) / math.sqrt(r_row * r_col))
    return best

