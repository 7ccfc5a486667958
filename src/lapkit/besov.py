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
the base-change, scaling, power-map, interpolation, and block-bound
inequalities that the norms satisfy, each with its explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DimensionError

__all__ = [
    "ShellScheme",
    "ShellProfile",
    "LemmaReport",
    "BlockBound",
    "as_spectrum_values",
    "shell_decompose",
    "besov_norm",
    "dual_norm",
    "ball_sup",
    "bstar0_defect",
    "defect_ladder",
    "loglog_slope",
    "base_equivalence_constants",
    "verify_base_equivalence",
    "verify_scaling",
    "power_map_constant",
    "verify_power_map",
    "unit_blocks",
    "schur_block_bound",
    "bstar_norm_dense",
    "verify_interpolation",
    "sample_vectors",
]


# ---------------------------------------------------------------------------
# Schemes and spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShellScheme:
    """Dyadic-type shell ladder with radii R_0 = 0 and R_j = base**(j-1)."""

    base: float = 2.0

    def __post_init__(self):
        if not self.base > 1.0:
            raise ValueError(f"shell base must exceed 1, got {self.base}")

    def radii(self, count: int) -> np.ndarray:
        """Radii R_1..R_count (R_0 = 0 is implicit)."""
        return self.base ** np.arange(count, dtype=float)

    def shell_count(self, max_abs: float) -> int:
        """Smallest J with R_J > max_abs, so shells 1..J cover [0, max_abs]."""
        if max_abs < 1.0:
            return 1
        # R_J = base**(J-1) must exceed max_abs strictly
        j = int(math.floor(math.log(max_abs) / math.log(self.base))) + 2
        while self.base ** (j - 2) > max_abs:
            j -= 1
        while self.base ** (j - 1) <= max_abs:
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
    """Per-shell norms of a vector together with the derived scalars."""

    scheme: ShellScheme
    radii: np.ndarray            # R_1..R_J
    shell_norms: np.ndarray      # ||F_j u|| for j = 1..J
    total_norm: float            # ||u||
    besov: float                 # sum_j R_j^{1/2} ||F_j u||
    dual: float                  # sup_j R_j^{-1/2} ||F_j u||
    ladder: np.ndarray           # radii where ball norms were sampled
    ball_norms: np.ndarray       # ||F(|A| < R) u|| on the ladder
    ball_sup: float              # exact sup_{R>1} R^{-1/2} ||F(|A| < R) u||


def _check_pair(u, a):
    u = np.asarray(u, dtype=complex)
    vals = as_spectrum_values(a)
    if u.ndim != 1 or vals.ndim != 1:
        raise DimensionError("expected 1-d vector and 1-d spectrum")
    if len(u) != len(vals):
        raise DimensionError(
            f"vector length {len(u)} does not match spectrum length {len(vals)}"
        )
    if not (np.all(np.isfinite(u.real)) and np.all(np.isfinite(u.imag))):
        raise DataError("vector contains non-finite entries")
    return u, vals


def _shell_norms(u, vals, scheme):
    idx, radii = scheme.shell_indices(vals)
    sq = np.zeros(len(radii))
    np.add.at(sq, idx, np.abs(u) ** 2)
    return np.sqrt(sq), radii


def ball_sup(u, a) -> float:
    """Exact sup over R > 1 of R^{-1/2} ||F(|A| < R) u||.

    The ball norm is a right-continuous step function of R jumping at
    the distinct weight moduli, so the sup is attained in the limit
    R -> v+ over those moduli v >= 1 (plus the R -> 1+ endpoint).
    """
    u, vals = _check_pair(u, a)
    absvals = np.abs(vals)
    order = np.argsort(absvals, kind="stable")
    sorted_abs = absvals[order]
    cum = np.cumsum(np.abs(u[order]) ** 2)
    best = 0.0
    # candidates: just above each distinct modulus v (clamped to R > 1)
    distinct_end = np.searchsorted(sorted_abs, sorted_abs, side="right") - 1
    for i in np.unique(distinct_end):
        v = max(sorted_abs[i], 1.0)
        best = max(best, math.sqrt(cum[i] / v))
    return best


def shell_decompose(u, a, scheme: ShellScheme | None = None,
                    ladder: Sequence[float] | None = None) -> ShellProfile:
    """Split u into weight shells and collect every derived norm.

    The shells partition the index set, so the shell norms satisfy
    sum_j ||F_j u||^2 = ||u||^2 exactly.  Ball norms are sampled on
    ``ladder`` (default: the shell radii themselves).
    """
    u, vals = _check_pair(u, a)
    scheme = scheme or ShellScheme()
    norms, radii = _shell_norms(u, vals, scheme)
    total = float(np.linalg.norm(u))
    besov = float(np.sum(np.sqrt(radii) * norms))
    dual = float(np.max(norms / np.sqrt(radii))) if len(radii) else 0.0
    if ladder is None:
        ladder = radii
    ladder = np.asarray(ladder, dtype=float)
    absvals = np.sort(np.abs(vals))
    cum = np.concatenate([[0.0], np.cumsum(np.abs(u[np.argsort(np.abs(vals), kind="stable")]) ** 2)])
    balls = np.sqrt(cum[np.searchsorted(absvals, ladder, side="left")])
    return ShellProfile(
        scheme=scheme,
        radii=radii,
        shell_norms=norms,
        total_norm=total,
        besov=besov,
        dual=dual,
        ladder=ladder,
        ball_norms=balls,
        ball_sup=ball_sup(u, vals),
    )


def besov_norm(u, a, scheme: ShellScheme | None = None) -> float:
    """sum_j R_j^{1/2} ||F_j u||."""
    u, vals = _check_pair(u, a)
    norms, radii = _shell_norms(u, vals, scheme or ShellScheme())
    return float(np.sum(np.sqrt(radii) * norms))


def dual_norm(u, a, scheme: ShellScheme | None = None) -> float:
    """sup_j R_j^{-1/2} ||F_j u||."""
    u, vals = _check_pair(u, a)
    norms, radii = _shell_norms(u, vals, scheme or ShellScheme())
    return float(np.max(norms / np.sqrt(radii))) if len(radii) else 0.0


# ---------------------------------------------------------------------------
# Vanishing-at-infinity defect
# ---------------------------------------------------------------------------

def defect_ladder(u, a, ladder, exponent: float = 0.5,
                  annulus_eps: float | None = None) -> np.ndarray:
    """R^{-exponent} ||F(|A| < R) u|| on the ladder.

    With ``annulus_eps`` set, uses the annulus form
    R^{-exponent} ||F(eps R <= |A| < R) u|| instead; both vanish along
    R -> oo exactly when the vector lies in the small dual space.
    """
    u, vals = _check_pair(u, a)
    ladder = np.asarray(ladder, dtype=float)
    if ladder.size == 0:
        raise ValueError("radius ladder is empty")
    absvals = np.abs(vals)
    out = np.empty(len(ladder))
    for i, radius in enumerate(ladder):
        if annulus_eps is None:
            mask = absvals < radius
        else:
            mask = (absvals >= annulus_eps * radius) & (absvals < radius)
        out[i] = np.linalg.norm(u[mask]) / radius ** exponent
    return out


def bstar0_defect(u, a, ladder, exponent: float = 0.5,
                  annulus_eps: float | None = None) -> float:
    """Tail statistic: max of the defect over the top half of the ladder.

    A small value is finite-size evidence that the vector belongs to
    the small dual space (normalized ball norms vanishing at infinity);
    the limit itself is undecidable on finite data.
    """
    values = defect_ladder(u, a, ladder, exponent=exponent,
                           annulus_eps=annulus_eps)
    return float(np.max(values[len(values) // 2:]))


def loglog_slope(radii, values, floor: float = 0.0) -> float:
    """Least-squares slope of log(values) against log(radii)."""
    radii = np.asarray(radii, dtype=float)
    values = np.maximum(np.asarray(values, dtype=float), floor)
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


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    """Outcome of one inequality check over a sample bank."""

    lemma: str
    constant: float
    worst_ratio: float
    samples: int
    seed: int | None
    passed: bool
    details: dict = field(default_factory=dict)
    witness: list | None = None

    def to_dict(self) -> dict:
        out = {
            "lemma": self.lemma,
            "constant": self.constant,
            "worst_ratio": self.worst_ratio,
            "samples": self.samples,
            "seed": self.seed,
            "passed": self.passed,
        }
        if self.details:
            out["details"] = self.details
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _serialize_witness(u):
    return [[float(z.real), float(z.imag)] for z in np.asarray(u, dtype=complex)]


# ---------------------------------------------------------------------------
# Sample banks
# ---------------------------------------------------------------------------

def sample_vectors(a, scheme: ShellScheme, n_random: int,
                   rng: np.random.Generator) -> list[np.ndarray]:
    """Random complex Gaussian vectors plus shell-boundary probes.

    Adversarial vectors put all mass in a single shell or on the nodes
    hugging a shell radius from either side, the configurations that
    saturate the shell-sum/shell-sup inequalities.
    """
    vals = as_spectrum_values(a)
    n = len(vals)
    out = [(rng.standard_normal(n) + 1j * rng.standard_normal(n)) / math.sqrt(2)
           for _ in range(n_random)]
    absvals = np.abs(vals)
    for nodes in scheme.shells(vals)[0]:
        if nodes.size == 0:
            continue
        # full-shell random vector
        v = np.zeros(n, dtype=complex)
        v[nodes] = rng.standard_normal(nodes.size) + 1j * rng.standard_normal(nodes.size)
        out.append(v)
        # mass at the shell edges
        for pick in (nodes[np.argmin(absvals[nodes])], nodes[np.argmax(absvals[nodes])]):
            e = np.zeros(n, dtype=complex)
            e[pick] = 1.0
            out.append(e)
    return out


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


def verify_base_equivalence(samples, a, p: float,
                            seed: int | None = None) -> LemmaReport:
    """Check both directions of the base-p equivalence on every sample."""
    c_to, c_from = base_equivalence_constants(p)
    dyadic = ShellScheme(2.0)
    other = ShellScheme(p)
    worst = 0.0
    witness = None
    count = 0
    worst_pair = (0.0, 0.0)
    for u in samples:
        nb = besov_norm(u, a, dyadic)
        npnorm = besov_norm(u, a, other)
        if nb == 0.0 and npnorm == 0.0:
            count += 1
            continue
        r1 = npnorm / (c_to * nb) if nb > 0 else math.inf
        r2 = nb / (c_from * npnorm) if npnorm > 0 else math.inf
        r = max(r1, r2)
        if r > worst:
            worst = r
            worst_pair = (npnorm / nb if nb else math.inf,
                          nb / npnorm if npnorm else math.inf)
            if r > 1.0:
                witness = _serialize_witness(u)
        count += 1
    return LemmaReport(
        lemma="base-equivalence",
        constant=max(c_to, c_from),
        worst_ratio=worst,
        samples=count,
        seed=seed,
        passed=worst <= 1.0 + 1e-12,
        details={"base": p, "constant_to_p": c_to, "constant_from_p": c_from,
                 "worst_to_p": worst_pair[0], "worst_from_p": worst_pair[1]},
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Scaling of the weight operator
# ---------------------------------------------------------------------------

def verify_scaling(samples, a, c: float,
                   seed: int | None = None) -> LemmaReport:
    """Check ||u||_{B(cA)} <= 8 |c|^{1/2} ||u||_{B(A)}.

    For |c| <= 1 the inequality needs u = F(|cA| >= 1) u, so samples
    are projected onto that range.  The sharper 3 |c|^{1/2} bound
    of the small-|c| branch is checked as well.
    """
    vals = as_spectrum_values(a)
    scheme = ShellScheme(2.0)
    bound8 = 8.0 * math.sqrt(abs(c))
    bound3 = 3.0 * math.sqrt(abs(c))
    small = abs(c) <= 1.0
    worst = 0.0
    worst_sharp = 0.0
    witness = None
    count = 0
    for u in samples:
        u = np.asarray(u, dtype=complex)
        if small:
            u = np.where(np.abs(c * vals) >= 1.0, u, 0.0)
        nb = besov_norm(u, vals, scheme)
        nbc = besov_norm(u, c * vals, scheme)
        if nb == 0.0:
            count += 1
            continue
        worst = max(worst, nbc / (bound8 * nb))
        if small:
            worst_sharp = max(worst_sharp, nbc / (bound3 * nb))
        if worst > 1.0 and witness is None:
            witness = _serialize_witness(u)
        count += 1
    passed = worst <= 1.0 + 1e-12 and (not small or worst_sharp <= 1.0 + 1e-12)
    details = {"c": c, "bound": bound8}
    if small:
        details["sharp_bound"] = bound3
        details["worst_sharp_ratio"] = worst_sharp
    return LemmaReport(
        lemma="weight-scaling",
        constant=bound8,
        worst_ratio=worst,
        samples=count,
        seed=seed,
        passed=passed,
        details=details,
        witness=witness,
    )


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


def verify_power_map(samples, a, s: float, seed: int | None = None) -> LemmaReport:
    """Check both directions of the power-map norm bounds on spectra >= 1."""
    vals = as_spectrum_values(a)
    if np.any(vals < 1.0):
        raise ValueError("power map requires a spectrum bounded below by 1")
    if not s > -1.0:
        raise ValueError("power parameter must exceed -1")
    scheme = ShellScheme(2.0)
    c_fwd = power_map_constant(s)
    s_inv = -s / (1.0 + s)
    c_inv = power_map_constant(s_inv)
    powered = vals ** (1.0 + s)
    worst = 0.0
    worst_fwd = 0.0
    worst_inv = 0.0
    witness = None
    count = 0
    for u in samples:
        u = np.asarray(u, dtype=complex)
        nb = besov_norm(u, vals, scheme)
        if nb > 0.0:
            fwd = besov_norm(vals ** (-s / 2.0) * u, powered, scheme) / (c_fwd * nb)
            worst_fwd = max(worst_fwd, fwd)
        nbp = besov_norm(u, powered, scheme)
        if nbp > 0.0:
            inv = besov_norm(vals ** (s / 2.0) * u, vals, scheme) / (c_inv * nbp)
            worst_inv = max(worst_inv, inv)
        worst = max(worst_fwd, worst_inv)
        if worst > 1.0 and witness is None:
            witness = _serialize_witness(u)
        count += 1
    return LemmaReport(
        lemma="power-map",
        constant=c_fwd,
        worst_ratio=worst,
        samples=count,
        seed=seed,
        passed=worst <= 1.0 + 1e-12,
        details={"s": s, "constant_forward": c_fwd, "constant_inverse": c_inv,
                 "worst_forward": worst_fwd, "worst_inverse": worst_inv},
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Unit-width block bound and the dense dual norm
# ---------------------------------------------------------------------------

@dataclass
class BlockBound:
    """Two-sided bracket for an operator norm from B(A_1) to B(A_2)*."""

    upper: float                # 2 x unit-block sup
    probe_lower: float          # max dual pairing over normalized probes
    block_sup: float            # sup over unit-width block pairs
    accretive: bool = False
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None

    @property
    def accretive_bound(self) -> float | None:
        if self.c1 is None:
            return None
        return 2.0 * self.c1 + self.c2 + self.c3


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


def _spectral_norm(m) -> float:
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def schur_block_bound(T, a1, a2,
                      rng: np.random.Generator | None = None) -> BlockBound:
    """Bracket the B(A_1) -> B(A_2)* norm of a dense matrix.

    Upper bound: twice the sup over unit-width block pairs
    ||F(m <= A_2 < m+1) T F(n <= A_1 < n+1)||.  Lower bound: the best
    dual pairing |<w, T u>| over 32 random probes per side (plus the
    shell-boundary ones) normalized in the respective Besov norms.
    When T is accretive and the two weights coincide, the three
    one-sided block constants are recorded so the combined
    2 C_1 + C_2 + C_3 criterion can be compared against the block sup.
    """
    T = np.asarray(T)
    v1 = as_spectrum_values(a1)
    v2 = as_spectrum_values(a2)
    if T.shape != (len(v2), len(v1)):
        raise DimensionError(
            f"matrix shape {T.shape} does not match spectra ({len(v2)}, {len(v1)})")
    labels1, blocks1 = unit_blocks(v1)
    _, blocks2 = unit_blocks(v2)
    block_sup = 0.0
    for rows in blocks2:
        sub = T[rows]
        for cols in blocks1:
            block_sup = max(block_sup, _spectral_norm(sub[:, cols]))

    rng = rng or np.random.default_rng(0)
    scheme = ShellScheme(2.0)
    probes_u = sample_vectors(v1, scheme, 32, rng)
    probes_w = sample_vectors(v2, scheme, 32, rng)
    lower = 0.0
    for u, w in zip(probes_u, probes_w):
        bu = besov_norm(u, v1, scheme)
        bw = besov_norm(w, v2, scheme)
        if bu == 0.0 or bw == 0.0:
            continue
        lower = max(lower, abs(np.vdot(w, T @ u)) / (bu * bw))

    result = BlockBound(upper=2.0 * block_sup, probe_lower=lower,
                        block_sup=block_sup)
    same_weight = len(v1) == len(v2) and np.array_equal(v1, v2)
    if same_weight:
        herm = T + T.conj().T
        if np.min(np.linalg.eigvalsh(herm)) >= -1e-10 * max(1.0, _spectral_norm(T)):
            result.accretive = True
            c1 = c2 = c3 = 0.0
            for g, cols in enumerate(blocks1):
                c1 = max(c1, _spectral_norm(T[np.ix_(cols, cols)]))
                below = np.flatnonzero(labels1 < g)
                c2 = max(c2, _spectral_norm(T[np.ix_(below, cols)]))
                atleast = np.flatnonzero(labels1 >= g)
                c3 = max(c3, _spectral_norm(T[np.ix_(cols, atleast)]))
            result.c1, result.c2, result.c3 = c1, c2, c3
    return result


def bstar_norm_dense(T, a1, a2, scheme: ShellScheme | None = None) -> float:
    """Exact B(A_1) -> B(A_2)* norm of a dense matrix.

    The source norm is a weighted l1 sum over shells and the target a
    weighted sup, so the dual-pairing optimum is attained on a single
    shell pair; exhausting all pairs gives the exact value

        max_{j,k} R_j^{-1/2} R_k^{-1/2} || F_j T F_k ||.
    """
    T = np.asarray(T)
    v1 = as_spectrum_values(a1)
    v2 = as_spectrum_values(a2)
    if T.shape != (len(v2), len(v1)):
        raise DimensionError("matrix shape does not match spectra")
    scheme = scheme or ShellScheme()
    shells1, radii1 = scheme.shells(v1)
    shells2, radii2 = scheme.shells(v2)
    best = 0.0
    for rows, r2 in zip(shells2, radii2):
        for cols, r1 in zip(shells1, radii1):
            # an empty shell gives an empty block of norm 0
            val = _spectral_norm(T[np.ix_(rows, cols)]) / math.sqrt(r2 * r1)
            best = max(best, val)
    return best


def verify_interpolation(T, a1, a2, s: float,
                         rng: np.random.Generator | None = None,
                         seed: int | None = None) -> LemmaReport:
    """Probe the interpolation bound ||T||_{B->B} <= C (||T|| + ||T||_{s}).

    The constant C(s) is not explicit, so the report only records the
    observed ratio of a probe-based B -> B norm estimate (64 random
    probes plus the shell-boundary ones) against the
    sum of the plain and weighted operator norms; blow-up is detected
    by comparing ratios across refinements, not here.
    """
    if not s > 0.5:
        raise ValueError("interpolation exponent must exceed 1/2")
    T = np.asarray(T)
    v1 = as_spectrum_values(a1)
    v2 = as_spectrum_values(a2)
    if T.shape != (len(v2), len(v1)):
        raise DimensionError("matrix shape does not match spectra")
    scheme = ShellScheme(2.0)
    rng = rng or np.random.default_rng(0)
    hnorm = _spectral_norm(T)
    w2 = (1.0 + v2 ** 2) ** (s / 2.0)
    w1 = (1.0 + v1 ** 2) ** (-s / 2.0)
    wnorm = _spectral_norm(w2[:, None] * T * w1[None, :])
    denom = hnorm + wnorm
    numer = 0.0
    count = 0
    for u in sample_vectors(v1, scheme, 64, rng):
        bu = besov_norm(u, v1, scheme)
        if bu == 0.0:
            continue
        numer = max(numer, besov_norm(T @ u, v2, scheme) / bu)
        count += 1
    ratio = numer / denom if denom > 0 else math.inf
    return LemmaReport(
        lemma="interpolation",
        constant=math.nan,
        worst_ratio=ratio,
        samples=count,
        seed=seed,
        passed=math.isfinite(ratio),
        details={"s": s, "plain_norm": hnorm, "weighted_norm": wnorm,
                 "besov_probe_norm": numer},
    )
