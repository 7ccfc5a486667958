"""Complex shifted solves and resolvent-norm estimators on one ray.

Sweep energies are z = m RAY for moduli m in (0, LAMBDA0], on the
bisector of the sector arg z in (0, 3 pi / 4), |z| <= LAMBDA0.  Every
factorized operator is a tridiagonal ``BandMatrix`` (H, H + cap and the
commutator-regularized operator), ``_tridiagonal`` checks that it is
complex symmetric, and one LU with partial pivoting (``_band_lu``)
serves every solve.  The plain resolvent norm of a self-adjoint H is
exact (``spectral_distance``); every other operator norm is a certified
lower bound from one Lanczos run (``_lanczos``).
``TridiagonalResolvent`` reads any entry of a tridiagonal resolvent off
two pivot sequences, and the shell-space bracket
(``besov_bstar_estimate``) takes every entry it evaluates there.  Every
LAPACK routine here comes from numpy's OpenBLAS through ``_lapack``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import COL_MAJOR, LIB, call, dstebz, dstevd, zhetrd
from .besov import ShellScheme, Stream, loglog_slope, unit_blocks
from .errors import DimensionError, SolverError
from .operators import BandMatrix, dilation_eigenbasis
from .potential import (PotentialModel, WeightParams, bracket, virial_w,
                        weight_exponent, weight_f)

__all__ = [
    "ShiftedSolver",
    "TridiagonalResolvent",
    "spectral_distance",
    "spectral_free_solve",
    "OpNormEstimate",
    "operator_norm_lower",
    "weighted_opnorm",
    "BesovEstimate",
    "besov_bstar_estimate",
    "HoelderReport",
    "hoelder_estimate",
    "BoundaryValueResult",
    "boundary_value",
    "mourre_resolvent",
    "QuadraticReport",
    "quadratic_check",
]


# normwise backward error a shifted solve is accepted to.  zgttrf and zgttrs on A = M - z give
# (A + dA) u = v, |dA| <= 7u |L||U|, u = 2^-53 (no inner product has over 3 terms).  Pivoting
# keeps |L| <= 1 and, a tridiagonal's growth factor being at most 2, |U| <= 2 max |a_ij|, with
# <= 3 entries a row or column in each: ||dA||_2 <= 126u ||A||_inf.  Forming r adds 5u; complex
# arithmetic at most triples each rounding: eta <= 393u (Higham, 2002, ch. 3 and 9; README).
BACKWARD_TOL = 400 * 2.0**-53
# residual every column of a TridiagonalResolvent is certified to, ||e_c|| being 1
KERNEL_RTOL = 1e-10
# every operator-norm Lanczos run stops once its top Ritz residual is at
# most LANCZOS_RTOL times the Ritz value, or after LANCZOS_STEPS steps
LANCZOS_RTOL = 1e-10
LANCZOS_STEPS = 128
# the power of two scaling TridiagonalResolvent's off-diagonals in zgttrf
PIVOT_SCALE = 300
# the sector arg z in (0, 3 pi / 4), 0 < |z| <= LAMBDA0, is sampled on its
# bisector: every sweep point and ray-ladder rung is a modulus times RAY
LAMBDA0 = 1.0
RAY = cmath.exp(1j * (0.75 * math.pi / 2.0))


# ---------------------------------------------------------------------------
# Shifted solves
# ---------------------------------------------------------------------------

def _tridiagonal(operator: BandMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(main, off): the diagonal and the off-diagonal of a tridiagonal operator;
    ValueError unless it is complex symmetric, its lower diagonal its upper."""
    main, off = operator.main, operator.upper
    scale = max(np.max(np.abs(np.concatenate((main, off)))), 1e-300)
    if np.max(np.abs(operator.lower - off), initial=0.0) > 1e-12 * scale:
        raise ValueError("operator is not complex symmetric")
    return main, off


def _band_lu(bands):
    """Solver b -> A^{-1} b for the complex-symmetric tridiagonal A with
    diagonal bands[0] and off-diagonals bands[1]: one zgttrf (Gaussian
    elimination with partial pivoting, LAPACK Users' Guide, 3rd ed., 1999,
    section 2.4.3), then one zgttrs per solve, of a vector or of columns,
    called with the factors' addresses read once.  SolverError on a zero
    pivot."""
    n = len(bands[0])
    # dl, d, du and the second superdiagonal that row interchanges fill
    factors = [np.array(bands[j], dtype=complex) for j in (1, 0, 1)]
    factors += [np.zeros(max(n - 2, 0), dtype=complex), np.empty(n, dtype=np.int64)]
    if info := call("zgttrf_work", n, *factors):
        raise SolverError(f"zero pivot {info} of {n}: spectrally degenerate")
    routine = LIB["zgttrs_work"]
    args = [a.ctypes.data for a in factors]

    def solve(rhs):
        b = np.array(rhs, dtype=complex, order="F")
        routine(COL_MAJOR, b"N", n, b.size // n, *args, b.ctypes.data, n)
        return b

    solve.factors = factors         # the arrays ``args`` point into
    return solve


class ShiftedSolver:
    """LU factorization of (M - z); each solve is accepted by its backward error.

    M must be a complex-symmetric tridiagonal ``BandMatrix`` (``matrix``), and ``_band_lu``
    factors M - z once; being symmetric, it gives adjoint solves by conjugation.  A solve u
    of (M - z) u = v raises SolverError unless its normwise backward error (Rigal & Gaches,
    J. ACM 14 (1967) 543) eta = ||v + z u - M u|| / (||M - z||_inf ||u|| + ||v||), from
    ``residual``, is at most BACKWARD_TOL; the forward error is then about 2 kappa(M - z) eta.
    """

    def __init__(self, operator: BandMatrix, z: complex):
        self.matrix, self.shape, self.z = operator, operator.shape, complex(z)
        main, off = _tridiagonal(self.matrix)
        self._lu = _band_lu([main - self.z, off])
        self._norm = float(np.max(abs(main - self.z) + abs(np.r_[0, off]) + abs(np.r_[off, 0])))

    def solve(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.shape[0],):
            raise DimensionError("right-hand side length mismatch")
        u = self._lu(v)
        if not (eta := self.residual(u, v)) <= BACKWARD_TOL:
            raise SolverError(f"solve at z = {self.z} has backward error "
                              f"{eta:.3e} (tolerance {BACKWARD_TOL:.1e})")
        return u

    def solve_adjoint(self, w: np.ndarray) -> np.ndarray:
        """(M - z)^{-*} w via conjugation, valid for symmetric M - z."""
        return np.conj(self.solve(np.conj(np.asarray(w, dtype=complex))))

    def residual(self, u, v) -> float:
        """The normwise backward error eta of u as a solution of (M - z) u = v."""
        r = self.z * u      # v + z u - M u in one buffer, same rounding
        r += v
        r -= self.matrix @ u
        scale = self._norm * np.linalg.norm(u) + np.linalg.norm(v)
        return float(np.linalg.norm(r) / max(scale, 1e-300))


# ---------------------------------------------------------------------------
# Tridiagonal resolvent kernel and the distance to the spectrum
# ---------------------------------------------------------------------------

def spectral_distance(operator, z: complex) -> float:
    """dist(z, spectrum of H); its reciprocal is ||(H - z)^{-1}|| (Kato, 1966).

    For real lambda, |lambda - z|^2 = (lambda - Re z)^2 + (Im z)^2, so
    any window around Re z that holds an eigenvalue holds the nearest
    one.  Bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)
    386) lists the eigenvalues in a window of half-width Im z / 256,
    widened fourfold until it is not empty, so the nearest is bisected
    nearly alone.  The error is at most eps ||H||_1 / Im z, relative:
    below 1e-9 at desk scale for |z| >= 1e-4.  ValueError unless H is
    real and symmetric.
    """
    main, off = _tridiagonal(operator)
    if np.any(np.imag(main)) or np.any(np.imag(off)):
        raise ValueError("operator is not real tridiagonal")
    main, off, z = main.real, off.real, complex(z)
    half = abs(z.imag) / 256.0 or 1.0
    while True:
        vals = dstebz(main, off, z.real - half, z.real + half)
        if vals.size:
            return float(np.min(np.hypot(vals - z.real, z.imag)))
        half *= 4.0

class TridiagonalResolvent:
    """Entries of R = (M - z)^{-1} for a complex-symmetric tridiagonal M - z.

    With a = diag(M) - z and off-diagonal b, the top-down pivots
    d_i = a_i - b_{i-1}^2 / d_{i-1} and the bottom-up pivots
    e_i = a_i - b_i^2 / e_{i+1} are the two LU factorizations without
    pivoting; they are stable because Im(M - z) = -Im z is definite for
    a Hermitian M (Higham, Math. Comp. 67 (1998) 1591).  Each is one
    zgttrf of (dl, d, du) = (2^-k b, a, 2^k b), k = PIVOT_SCALE, or of its
    reversal: powers of two scale exactly, so its update a_i - fl(dl / d)
    du is a_i - fl(b / d) b, and 2^+-k |b| stay normal for |b| in
    (2^-700, 2^700).  zgttrf swaps rows only where |d| < 2^-k |b| in
    1-norms of (Re, Im), far below Im z <= |d|: a swap, like a zero
    pivot, is a SolverError.  Column c of R has R[i, c] = up_i R[i+1, c]
    above the diagonal (up_i = -b_i / d_i), R[i+1, c] = dn_i R[i, c] below
    it (dn_i = -b_i / e_{i+1}), and R[c, c] = g_c = 1 / (d_c + e_c - a_c).
    So R is semiseparable (Meurant, SIAM J. Matrix Anal. Appl. 13
    (1992) 707): with the prefix sums U and D of log up and log dn
    (``log_up`` and ``log_dn``),

        R[i, c] = exp(U_c - U_i) g_c  (i <= c),
        R[i, c] = exp(D_i - D_c) g_c  (i >= c),

    and any entry costs O(1) with no solve.  The prefix sums are kept
    compensated, so an entry carries a relative rounding error of
    about u (|log R[i, c] / g_c| + 4), not u times the grid length.

    Construction certifies every column in one O(n) pass.  Outside
    the diagonal, row i of (M - z) R[:, c] - e_c is R[i, c] q_i, where
    the local residual q_i = a_i + b_{i-1} up_{i-1} + b_i / up_i above
    the diagonal (the mirror with dn below) does not depend on c, so
    the residual norms of all columns are two accumulated log-sums.
    Each |q_i| carries a rounding allowance of 4u times the sum of its
    terms' moduli.  SolverError unless every column's residual is at
    most KERNEL_RTOL; column c's error is then at most ||R|| KERNEL_RTOL.
    """

    def __init__(self, operator, z: complex):
        main, upper = _tridiagonal(operator)
        self.z, self.n = complex(z), len(main)
        self.a, self.b = main.astype(complex) - self.z, upper.astype(complex)
        pivots = []
        for a, b in ((self.a, self.b), (self.a[::-1], self.b[::-1])):
            lu = [b * 2.0**-PIVOT_SCALE, np.array(a), b * 2.0**PIVOT_SCALE,
                  np.empty(max(self.n - 2, 0), dtype=complex), np.empty(self.n, dtype=np.int64)]
            if call("zgttrf_work", self.n, *lu) or np.any(lu[4] != np.arange(1, self.n + 1)):
                raise SolverError(f"zero pivot at z = {self.z}: spectrally degenerate")
            pivots.append(lu[1])
        self.d, self.e = pivots[0], pivots[1][::-1]
        if not np.all(self.b):
            raise ValueError("operator decouples: zero off-diagonal entry")
        self.up, self.dn = -self.b / self.d[:-1], -self.b / self.e[1:]
        self.g = 1.0 / (self.d + self.e - self.a)
        self.log_up, self.log_dn = _prefix_sums(np.log(self.up)), _prefix_sums(np.log(self.dn))
        self._certify()

    def entries(self, rows, cols) -> np.ndarray:
        """R[rows, cols] for index arrays that broadcast against each other."""
        log = np.where(rows <= cols, _span(self.log_up, rows, cols),
                       _span(self.log_dn, cols, rows))
        return np.exp(log) * self.g[cols]

    def _certify(self) -> None:
        """Raise SolverError unless ||(M - z) R[:, c] - e_c|| <= KERNEL_RTOL for every c."""
        a, b, up, dn, g = self.a, self.b, self.up, self.dn, self.g
        n, u = self.n, np.finfo(float).eps / 2
        zero = np.zeros(1, dtype=complex)

        def bound(*terms):
            return np.abs(sum(terms)) + 4 * u * sum(np.abs(t) for t in terms)

        # rows above c add |up_i...up_{c-1}|^2 bound_i^2, rows below |dn_c...dn_{i-1}|^2
        # bound_i^2; each set of terms of row i's residual over R[i, c] lives for its bound
        re_u, re_d = self.log_up[0].real, self.log_dn[0].real
        acc = np.logaddexp.accumulate(2 * np.log(bound(
            a[:-1], np.concatenate((zero, b[:-1] * up[:-1])), b / up)) - 2 * re_u[:-1])
        rows_sq = np.zeros(n)
        rows_sq[1:] = np.exp(2 * re_u[1:] + acc)
        acc = np.logaddexp.accumulate((2 * np.log(bound(
            a[1:], b / dn, np.concatenate((b[1:] * dn[1:], zero)))) + 2 * re_d[1:])[::-1])[::-1]
        rows_sq[:-1] += np.exp(acc - 2 * re_d[:-1])
        res_sq = np.abs(g) ** 2 * rows_sq + bound(
            g * a, g * np.concatenate((zero, b * up)),
            g * np.concatenate((b * dn, zero)), -np.ones(n)) ** 2
        worst = math.sqrt(float(np.max(res_sq)))
        if not worst <= KERNEL_RTOL:
            raise SolverError(
                f"resolvent columns at z = {self.z} reached residual "
                f"{worst:.3e} (requested {KERNEL_RTOL:.1e})")


def _span(sums, j, k):
    """s_k - s_j for prefix sums held as a pair (hi, lo)."""
    hi, lo = sums
    return (hi[k] - hi[j]) + (lo[k] - lo[j])


def _prefix_sums(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums s_i = t_0 + ... + t_{i-1} as an unevaluated pair hi + lo.

    Each running sum's rounding error is recovered exactly (Knuth's
    TwoSum, componentwise for complex values) and accumulated in lo,
    so a difference s_j - s_i is exact to about u |s_j - s_i|.
    """
    hi = np.concatenate(([0.0], np.cumsum(t)))
    step = hi[1:] - hi[:-1]
    err = (hi[:-1] - (hi[1:] - step)) + (t - step)
    return hi, np.concatenate(([0.0], np.cumsum(err)))


def spectral_free_solve(grid, z: complex, v) -> np.ndarray:
    """Free resolvent (-Delta - z)^{-1} v through the FFT diagonalization.

    Uses the quantization of the exact kinetic symbol xi^2 (a periodic
    spectral discretization), so for sources decaying inside the box
    the result matches the continuum free resolvent to near machine
    precision at interior points; the second-order stencil cannot do
    that because of its O(h^2) dispersion error.
    """
    v = np.asarray(v, dtype=complex)
    if len(v) != grid.size:
        raise DimensionError("vector length does not match grid size")
    xi = 2.0 * math.pi * np.fft.fftfreq(grid.size, d=grid.spacing)
    return np.fft.ifft(np.fft.fft(v) / (xi**2 - z))


# ---------------------------------------------------------------------------
# Operator-norm estimation
# ---------------------------------------------------------------------------

@dataclass
class OpNormEstimate:
    lower: float
    converged: bool
    iterations: int


def _lanczos(gram, start, norm_of) -> tuple[float, int, bool]:
    """(norm_of(y), steps, converged) for the top Ritz vector y of ``gram``.

    ``gram`` applies A* A for the operator A whose norm is sought, and
    ``norm_of(y)`` evaluates ||A y|| for a unit vector y.  Lanczos with
    full reorthogonalization (Golub & Kahan, SIAM J. Numer. Anal. B 2
    (1965) 205) runs from ``start`` until the top Ritz pair's residual
    is at most LANCZOS_RTOL times its value, until the Krylov space is
    exhausted, or for LANCZOS_STEPS steps (unconverged).  The returned
    value is ||A y||, a lower bound whether or not Lanczos converged;
    it is also flagged unconverged when it differs from the square root
    of the Ritz value by more than sqrt(LANCZOS_RTOL) relative.
    """
    m = len(start)
    basis = [start / np.linalg.norm(start)]
    alpha: list[float] = []
    beta: list[float] = []
    for step in range(1, min(m, LANCZOS_STEPS) + 1):
        v = gram(basis[-1])
        alpha.append(float(np.vdot(basis[-1], v).real))
        # modified Gram-Schmidt against the whole basis, as level-1 products:
        # their rounding is pinned, and a matrix product would go to threaded
        # BLAS in a process that loaded numpy before lapkit
        for q in basis:
            v -= np.vdot(q, v) * q
        theta, vecs = dstevd(alpha, beta)
        top = vecs[:, -1]
        size = float(np.linalg.norm(v))
        converged = size * abs(top[-1]) <= LANCZOS_RTOL * theta[-1] or step == m
        if converged or step == LANCZOS_STEPS:
            break
        beta.append(size)
        basis.append(v / size)
    ritz = sum(c * q for c, q in zip(top, basis))
    del basis, v        # the evaluation below makes solves of its own
    value = float(norm_of(ritz / np.linalg.norm(ritz)))
    # an evaluation of A off from the Gram product shows as a disagreement
    sigma = math.sqrt(max(theta[-1], 0.0))
    agrees = abs(value - sigma) <= math.sqrt(LANCZOS_RTOL) * value
    return value, step, bool(converged and agrees)


def operator_norm_lower(matvec, rmatvec, dim: int, rng) -> OpNormEstimate:
    """Largest-singular-value lower bound ||M y|| by Lanczos on M* M.

    ``_lanczos`` runs from a complex Gaussian start drawn from ``rng``
    and re-evaluates its unit Ritz vector y through ``matvec``, so the
    value is certified from below; ``iterations`` counts the Lanczos
    steps, each one ``matvec`` and one ``rmatvec``.
    """
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lower, steps, converged = _lanczos(
        lambda u: rmatvec(matvec(u)), start, lambda y: np.linalg.norm(matvec(y)))
    return OpNormEstimate(lower=lower, converged=converged, iterations=steps)


def weighted_opnorm(operator, z: complex, left_weight, right_weight, rng) -> OpNormEstimate:
    """Lower bound for || W_l R(z) W_r || with diagonal weights.

    ``operator`` is the ShiftedSolver the sweep factorized at z, or H
    (the benchmark's tracer test passes H and z).
    """
    wl = np.asarray(left_weight, dtype=float)
    wr = np.asarray(right_weight, dtype=float)
    solver = operator if isinstance(operator, ShiftedSolver) else ShiftedSolver(operator, z)
    if solver.z != complex(z):
        raise ValueError(f"solver was factorized at {solver.z}, not {z}")
    return operator_norm_lower(lambda u: wl * solver.solve(wr * u),
                               lambda w: wr * solver.solve_adjoint(wl * w), len(wl), rng=rng)


# ---------------------------------------------------------------------------
# Shell-space (Besov) estimate of the weighted resolvent
# ---------------------------------------------------------------------------

@dataclass
class BesovEstimate:
    """Bracket for || f^{1/2} R(z) f^{1/2} || from shell space to its dual."""

    lower: float
    upper: float
    diagonal: float             # the diagonal shell pairs' run: its value,
    lanczos_steps: int          # its steps
    converged: bool             # and whether it converged


def besov_bstar_estimate(solver: ShiftedSolver, f, grid) -> BesovEstimate:
    """Two-sided estimate of the shell-space norm of f^{1/2} R(z) f^{1/2}.

    ``solver`` factors H - z, z = solver.z, for a complex-symmetric tridiagonal H; ``f``
    holds the weight on the grid nodes (the sweep's local momentum weight at lambda = |z|,
    K = 1).  The stages do not stack: the ``TridiagonalResolvent`` kernel serves the upper
    bound, the separated pairs and the Schur complements, and is freed before K is factored
    and the Lanczos run, which sees only K's factors and ``solver``, starts.

    Upper bound: twice the exact sup over pairs of unit |x| blocks
    (``_block_sup``): separated blocks in closed form (``_separated_pairs``),
    diagonal ones, about 10 x 10 at desk spacing, by ``_block_norm``.  Block
    row p is bounded by its diagonal block's Frobenius norm and the root of its
    pairs' largest trace, and rows go in decreasing order of bound until the
    next bound times 1 + 1e-6 is at most the running max: the slack covers
    rounding (about 1e-13 relative at desk scale), so the sup is exact to the bit.

    Lower bound: the best dyadic shell pair, scaled by R_j^{-1/2} R_k^{-1/2}:
    the shell-dual norm itself.  Pairs j != k take the blocks' closed form, and
    the diagonal pairs one Lanczos run (``_diagonal_shell_pairs``), a lower
    bound whether or not it converged, as ``lanczos_steps`` and ``converged`` say.
    """
    absx = np.abs(grid.nodes)
    kernel = TridiagonalResolvent(solver.matrix, solver.z)
    center = int(np.argmin(absx))
    upper = 2.0 * _block_sup(kernel, f, *unit_blocks(absx), center)
    shell_of, radii = ShellScheme(2.0).shell_indices(absx)
    inner, outer = np.triu_indices(len(radii), 1)
    pairs = (_separated_pairs(kernel, f, shell_of, len(radii), center)[0](inner, outer)
             / np.sqrt(radii[inner] * radii[outer]))
    bands = _schur_bands(kernel, shell_of)
    del kernel              # K's factors go where the kernel was
    k_inv = _band_lu(bands)
    del bands               # the Lanczos run sees only K's factors and the solver
    diagonal, _, steps, converged = _diagonal_shell_pairs(k_inv, solver, np.sqrt(f),
                                                          shell_of, radii)
    lower = max(diagonal, float(np.max(pairs, initial=0.0)))
    if lower > upper * (1 + 1e-6):
        raise SolverError(f"shell-space bracket inverted at z = {solver.z}: "
                          f"lower {lower:.6g} > upper {upper:.6g}")
    return BesovEstimate(lower=lower, upper=upper, diagonal=diagonal,
                         lanczos_steps=steps, converged=converged)


def _block_sup(kernel: TridiagonalResolvent, f, labels, blocks, center: int) -> float:
    """max over p <= q of ||F R[G_p, G_q] F||, F = diag(f)^{1/2}, G_p = blocks[p], row by
    row in decreasing order of bound, as ``besov_bstar_estimate`` says."""
    norms, row_bounds = _separated_pairs(kernel, f, labels, len(blocks), center)
    bounds = np.maximum(_frobenius_norms(kernel, f, labels, blocks), row_bounds)
    best = 0.0
    for p in np.argsort(-bounds):
        if bounds[p] * (1 + 1e-6) <= best:     # slack for rounding
            break
        best = max(best, _block_norm(kernel, np.sqrt(f[blocks[p]]), blocks[p]),
                   float(np.max(norms(p, np.arange(p + 1, len(blocks))), initial=0.0)))
    return best


def _frobenius_norms(kernel: TridiagonalResolvent, f, labels, blocks) -> np.ndarray:
    """||F R[G_p, G_p] F||_F for every p in one pass over block positions, each block
    padded with its last node at weight 0: R is symmetric, and for i <= c, |R[i, c]|
    = exp(Re (U_c - U_i)) |g_c|, so column c adds f_c |g_c|^2 (f_c + 2 t_c) with the
    tail t_c = sum_{i < c} f_i |R[i, c] / g_c|^2 = (t_b + f_b) |R[b, c] / g_c|^2, b = c - 1."""
    sizes = np.bincount(labels, minlength=len(blocks))
    order, filled = np.concatenate(blocks), np.arange(sizes.max()) < sizes[:, None]
    idx = np.repeat(order[np.cumsum(sizes) - 1, None], filled.shape[1], axis=1)
    idx[filled] = order
    w, g_sq = np.where(filled, f[idx], 0.0), np.abs(kernel.g[idx]) ** 2
    real_up = tuple(part.real for part in kernel.log_up)
    total = tail = 0.0
    for c in range(idx.shape[1]):
        if c:
            tail = (tail + w[:, c - 1]) * np.exp(2 * _span(real_up, idx[:, c - 1], idx[:, c]))
        total = total + w[:, c] * g_sq[:, c] * (w[:, c] + 2 * tail)
    return np.sqrt(total)


def _block_norm(kernel: TridiagonalResolvent, fh, block) -> float:
    """||F R[G, G] F|| for G = block, fh = f[G]^{1/2}: the top eigenvalue of
    the Gram S* S, S = F R[G, G] F, summed without a matrix product and
    reduced by zhetrd to a real tridiagonal for dstevd."""
    sub = kernel.entries(block[:, None], block) * fh[:, None] * fh
    return math.sqrt(dstevd(*zhetrd(np.einsum("ij,ik->jk", sub.conj(), sub)))[0][-1])


def _separated_pairs(kernel: TridiagonalResolvent, f, labels, count: int, center: int):
    """(norms, bounds): norms(p, q) = ||F R[G_p, G_q] F|| for index arrays
    p < q, F = diag(f)^{1/2}, and bounds[p] >= norms(p, q) for all q > p.

    Group p holds the nodes labelled p, and ``center`` is a node of
    least |x|; the groups are levels of |x| (unit blocks or shells),
    so for p < q every node of G_q lies before G_p's first node a
    (when it precedes ``center``) or after its last node b.  A column
    c before a has R[i, c] = alpha_i beta_c with alpha_i = dn_a ...
    dn_{i-1} and beta_c = R[a, c], and a column after b has R[i, c] =
    gamma_i delta_c with gamma_i = up_i ... up_{b-1} and delta_c =
    R[b, c].  The block is alpha beta^T + gamma delta^T with beta and
    delta on disjoint columns, so its squared norm is the top
    eigenvalue of the positive semidefinite [[S_aa B, S_ag (B D)^{1/2}],
    [conj, S_gg D]], with the row sums S = sum f conj(.) (.) over G_p
    and B, D = sum f |beta|^2, sum f |delta|^2 over G_q's two sides.
    Each column sum is its side's own sum, anchored at the side's end
    nearest the center, times the squared ratio product across the
    separation.  So B and D are a factor of p times one of q, and the
    trace S_aa B + S_gg D, at least the squared norm, is bounded for
    every row at once by suffix maxima over q in the log domain.
    """
    nodes = np.arange(kernel.n)
    first, start = np.full((2, count), kernel.n - 1)
    last, end = np.zeros((2, count), dtype=int)
    np.minimum.at(first, labels, nodes)
    np.maximum.at(last, labels, nodes)
    alpha = np.exp(_span(kernel.log_dn, first[labels], nodes))
    gamma = np.exp(_span(kernel.log_up, nodes, last[labels]))

    def group_sum(idx, weights):
        return np.bincount(labels[idx], weights=weights, minlength=count)

    s_aa = group_sum(nodes, f * np.abs(alpha) ** 2)
    s_gg = group_sum(nodes, f * np.abs(gamma) ** 2)
    cross = f * np.conj(alpha) * gamma
    s_ag = np.abs(group_sum(nodes, cross.real) + 1j * group_sum(nodes, cross.imag))

    # each outer side anchored at its node nearest the center
    left, right = nodes[:center], nodes[center:]
    np.maximum.at(end, labels[left], left)
    np.minimum.at(start, labels[right], right)
    beta = np.exp(_span(kernel.log_dn, left, end[labels[left]])) * kernel.g[left]
    delta = np.exp(_span(kernel.log_up, start[labels[right]], right)) * kernel.g[right]
    side_b = group_sum(left, f[left] * np.abs(beta) ** 2)
    side_d = group_sum(right, f[right] * np.abs(delta) ** 2)
    real_up, real_dn = ((hi.real, lo.real) for hi, lo in (kernel.log_up, kernel.log_dn))

    def norms(p, q):
        # an empty group or side has a zero sum, and its anchors are not read
        live = s_aa[p] > 0
        big_b = side_b[q] * np.exp(np.where(
            live & (side_b[q] > 0), 2 * _span(real_dn, end[q], first[p]), -np.inf))
        big_d = side_d[q] * np.exp(np.where(
            live & (side_d[q] > 0), 2 * _span(real_up, last[p], start[q]), -np.inf))
        pp, rr = s_aa[p] * big_b, s_gg[p] * big_d
        return np.sqrt((pp + rr) / 2 + np.hypot((pp - rr) / 2, s_ag[p] * np.sqrt(big_b * big_d)))

    def row_max(p_log, q_log):
        # log of max_{q > p} exp(p_log[p] + q_log[q]), -inf for the last row
        return p_log + np.append(np.maximum.accumulate(q_log[::-1])[-2::-1], -np.inf)

    with np.errstate(divide="ignore"):
        up_at, dn_at = (hi.real + lo.real for hi, lo in (kernel.log_up, kernel.log_dn))
        log_b = row_max(np.log(s_aa) + 2 * dn_at[first], np.log(side_b) - 2 * dn_at[end])
        log_d = row_max(np.log(s_gg) - 2 * up_at[last], np.log(side_d) + 2 * up_at[start])
    return norms, np.sqrt(np.exp(log_b) + np.exp(log_d))


def _shell_inverse(kernel: TridiagonalResolvent, idx) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of R[S, S]^{-1}, tridiagonal in S order.

    R[S, S]^{-1} is the Schur complement of M - z onto S: M[S, S] minus
    the coupling through each stretch of nodes outside S.  The stretch
    before S (after S) touches only S's first (last) node, and its
    term b^2 / d (b^2 / e) is a global pivot.  A gap between two runs
    of S couples the last node before it to the first node after it,
    which are neighbours in S order; its 2 x 2 term takes the corner
    entries of the gap block's inverse from one ``_band_lu``.
    """
    a, b, n = kernel.a, kernel.b, kernel.n
    diag = a[idx]
    off = np.zeros(len(idx) - 1, dtype=complex)
    adjacent = np.diff(idx) == 1
    off[adjacent] = b[idx[:-1][adjacent]]
    if idx[0] > 0:
        diag[0] -= b[idx[0] - 1] ** 2 / kernel.d[idx[0] - 1]
    if idx[-1] < n - 1:
        diag[-1] -= b[idx[-1]] ** 2 / kernel.e[idx[-1] + 1]
    for t in np.flatnonzero(~adjacent):
        g0, g1 = idx[t] + 1, idx[t + 1] - 1            # the gap g0..g1
        corners = np.zeros((g1 - g0 + 1, 2), dtype=complex)
        corners[0, 0] = corners[-1, 1] = 1.0
        inv = _band_lu([a[g0:g1 + 1], b[g0:g1]])(corners)
        left, right = b[idx[t]], b[g1]
        diag[t] -= left**2 * inv[0, 0]
        diag[t + 1] -= right**2 * inv[-1, 1]
        off[t] = -left * right * inv[0, 1]
    return diag, off


def _schur_bands(kernel: TridiagonalResolvent, labels) -> list:
    """[diagonal, off-diagonal] of K: the live shells' ``_shell_inverse``
    tridiagonals on one diagonal, uncoupled by a zero entry at each joint."""
    diag, off = zip(*(_shell_inverse(kernel, np.flatnonzero(labels == j))
                      for j in np.flatnonzero(np.bincount(labels))))
    return [np.concatenate(diag), np.concatenate([np.append(o, 0.0) for o in off])[:-1]]


def _diagonal_shell_pairs(k_inv, solver, fh, labels, radii) -> tuple[float, int, int, bool]:
    """(lower bound for max_j ||A_j|| / R_j, that shell j, Lanczos steps, converged).

    A_j = F_j R[S_j, S_j] F_j on the nodes S_j labelled j.  The max is the norm of the
    direct sum of the A_j / R_j, whose inverse is K (``_schur_bands``; ``k_inv`` solves
    with it).  One ``_lanczos`` run, two K solves per step, sees only K and ``solver``,
    which re-evaluates ||A y|| by a certified solve per shell: no kernel is alive.
    """
    live = np.flatnonzero(np.bincount(labels))
    shells = [np.flatnonzero(labels == j) for j in live]
    ends = np.cumsum([idx.size for idx in shells])[:-1]
    weights = [fh[idx] / math.sqrt(radii[j]) for j, idx in zip(live, shells)]
    w = np.concatenate(weights)
    terms = np.zeros(len(shells))

    def gram(v):
        # K is complex symmetric, so K^{-*} y = conj(K^{-1} conj(y))
        u = w * k_inv(w * v)
        return w * np.conj(k_inv(np.conj(w * u)))

    def norm_of(y):
        for t, (idx, wj, yj) in enumerate(zip(shells, weights, np.split(y, ends))):
            probe = np.zeros(solver.shape[0], dtype=complex)
            probe[idx] = wj * yj
            terms[t] = np.linalg.norm(wj * solver.solve(probe)[idx]) ** 2
        return math.sqrt(float(np.sum(terms)))

    # two real draws, not [1, 1j] @ draws: the sum's rounding is pinned, and
    # that product runs threaded BLAS when numpy was loaded before lapkit
    re, im = Stream(0).standard_normal((2, len(w)))
    value, steps, converged = _lanczos(gram, re + 1j * im, norm_of)
    return value, int(live[np.argmax(terms)]), steps, converged


# ---------------------------------------------------------------------------
# Hoelder continuity probe
# ---------------------------------------------------------------------------

@dataclass
class HoelderReport:
    pairs: list                 # (z1, z2, distance, difference norm)
    fitted_gamma: float
    sup_quotient: float         # at the exponent used
    unconverged: int            # pairs left out of the fit


def hoelder_estimate(operator, s: float, pairs, grid, rng,
                     gamma: float | None = None) -> HoelderReport:
    """Difference norms ||T(z1) - T(z2)|| for T(z) = <x>^{-s} R(z) <x>^{-s}.

    Fits the growth exponent of the difference norm against the pair
    distance and reports the sup quotient at that exponent (or at a
    caller-supplied one, so runs on different grids stay comparable).
    The theory needs s > s0; the caller chooses s.  At least 3 pairs
    are required.  A pair whose Lanczos run did not converge is left out
    of the fit and counted in ``unconverged``; its value is still a
    certified lower bound, so it stays in the sup quotient.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 sector pairs")
    w = bracket(grid.nodes) ** (-s)
    # one factorization per distinct z of a pair of distinct points
    solvers = {z: ShiftedSolver(operator, z) for z in dict.fromkeys(
        z for z1, z2 in pairs if z1 != z2 for z in (z1, z2))}
    rows = []
    converged = []
    for z1, z2 in pairs:
        dist = abs(z1 - z2)
        if dist == 0.0:
            rows.append((z1, z2, 0.0, 0.0))
            continue
        s1, s2 = solvers[z1], solvers[z2]

        def matvec(u):
            return w * (s1.solve(w * u) - s2.solve(w * u))

        def rmatvec(v):
            return w * (s1.solve_adjoint(w * v) - s2.solve_adjoint(w * v))

        est = operator_norm_lower(matvec, rmatvec, len(w), rng=rng)
        rows.append((z1, z2, dist, est.lower))
        converged.append(est.converged)
    dists = np.array([r[2] for r in rows if r[2] > 0])
    norms = np.array([r[3] for r in rows if r[2] > 0])
    converged = np.array(converged, dtype=bool)
    # nan with fewer than two converged nonzero pairs
    fitted_gamma = loglog_slope(dists[converged], norms[converged])
    used = fitted_gamma if gamma is None else gamma
    # a distance power that is not positive makes a nonzero norm's quotient inf
    quot = max((nrm / d**used if d**used > 0 else math.inf if nrm > 0 else 0.0
                for d, nrm in zip(dists, norms)), default=0.0)
    return HoelderReport(
        pairs=rows, fitted_gamma=fitted_gamma, sup_quotient=float(quot),
        unconverged=int(np.count_nonzero(~converged)))


# ---------------------------------------------------------------------------
# Boundary values along a ray
# ---------------------------------------------------------------------------

# the ray ladder: rungs LAMBDA0 LADDER_RATIO^k RAY for k below
# LADDER_STEPS, stopped once a weighted difference is within LADDER_TOL
LADDER_RATIO = 0.5
LADDER_STEPS = 24
LADDER_TOL = 1e-4


@dataclass
class BoundaryValueResult:
    u: np.ndarray
    z_values: list[complex]
    diffs: list[float]          # successive weighted differences
    converged: bool


def boundary_value(operator, v, grid, weight_s: float) -> BoundaryValueResult:
    """Approach R(0 + i0) v along the bisector: evidence, not the definition.

    Solves at z_k = LAMBDA0 LADDER_RATIO^k RAY until the successive
    weighted differences ||u_{k+1} - u_k||_{-s} drop below
    LADDER_TOL * ||u||_{-s}.  A ladder that does not get there within
    LADDER_STEPS rungs (one that stops decreasing, say) returns its last
    iterate and its differences unconverged.  Both zero-energy runners
    filter the capped solve at z = 0; ``radiation`` keeps this ladder as
    evidence for the limiting absorption principle and measures its last
    iterate's distance from that solve.
    """
    v = np.asarray(v, dtype=complex)
    zs = [LAMBDA0 * LADDER_RATIO**k * RAY for k in range(LADDER_STEPS)]
    w = bracket(grid.nodes) ** (-weight_s)
    diffs: list[float] = []
    u_prev = ShiftedSolver(operator, zs[0]).solve(v)
    for rungs, z in enumerate(zs[1:], 2):
        u = ShiftedSolver(operator, z).solve(v)
        diffs.append(float(np.linalg.norm(w * (u - u_prev))))
        if diffs[-1] <= LADDER_TOL * float(np.linalg.norm(w * u)):
            return BoundaryValueResult(u=u, z_values=zs[:rungs], diffs=diffs,
                                       converged=True)
        u_prev = u
    return BoundaryValueResult(u=u_prev, z_values=zs, diffs=diffs, converged=False)


# ---------------------------------------------------------------------------
# Commutator-regularized resolvent and the quadratic estimate
# ---------------------------------------------------------------------------

def mourre_resolvent(h_op: BandMatrix, model: PotentialModel, grid,
                     z: complex, eps: float) -> ShiftedSolver:
    """Factorize H - i eps i[H, A] - z, defined for eps Im z > 0.

    With V2 = 0, the virial identity i[H, A] = 2H + W with W = -2 V1 -
    x V1' (``virial_w``; criterion 2 checks it at stencil order) turns
    the regularized operator into the tridiagonal (1 - 2i eps) H - i eps W,
    built diagonal by diagonal and complex symmetric for a real symmetric
    H.  ValueError for a model with V2.
    """
    if eps * z.imag <= 0:
        raise ValueError("regularization requires eps Im z > 0")
    if model.v2 is not None:
        raise ValueError("virial identity requires V2 = 0")
    main, off = _tridiagonal(h_op)
    scale = 1.0 - 2j * eps
    main = scale * main - 1j * eps * virial_w(model, grid.nodes)
    return ShiftedSolver(BandMatrix([scale * off, main, scale * off]), z)


@dataclass
class QuadraticReport:
    rows: list                  # dicts with z, eps, probe, lhs, rhs, q, converged
    constants: dict             # probe -> sup of q over the grid

    def stability(self, probe: str) -> float:
        """max/min of the per-z sup for one probe (1 = perfectly flat)."""
        per_z: dict[complex, float] = {}
        for row in self.rows:
            if row["probe"] == probe:
                per_z[row["z"]] = max(per_z.get(row["z"], 0.0), row["q"])
        values = list(per_z.values())
        return max(values) / min(values) if values else math.inf


def quadratic_check(h_op: BandMatrix, a_op: BandMatrix,
                    model: PotentialModel, grid, z_values, eps_values,
                    rng) -> QuadraticReport:
    """Evaluate ||f R_z(eps) T||^2 <= C |eps|^{-1} ||T* R_z(eps) T||.

    Probes: T = f^{1/2} <x>^{-s} (diagonal, s = s0 + 0.05, weight
    constant K = 1) and T = f <A>^{-1}, the second applied through the
    eigendecomposition of the dilation generator ``a_op``; R_z(eps) is
    ``mourre_resolvent``'s.  Reports q = LHS |eps| / RHS per (z, eps,
    probe) and the sup per probe; the estimate predicts q bounded by a
    constant depending only on the sector opening.  A row's ``converged``
    is true when the Lanczos runs of both its LHS and its RHS converged.
    """
    x = grid.nodes
    s = weight_exponent(model.mu)
    avals, avecs = dilation_eigenbasis(a_op)
    avecs_h = avecs.conj().T
    ainv = 1.0 / np.sqrt(1.0 + avals**2)

    rows = []
    constants: dict[str, float] = {}
    for z in z_values:
        params = WeightParams(lam=abs(z), kappa=1.0, mu=model.mu)
        f = weight_f(params, x)
        diag_probe = np.sqrt(f) * bracket(x) ** (-s)

        def t_diag(u):
            return diag_probe * u

        def t_dil(u):
            return f * (avecs @ (ainv * (avecs_h @ u)))

        def t_dil_adj(u):
            return avecs @ (ainv * (avecs_h @ (f * u)))

        probes = {
            "f12_bracket": (t_diag, t_diag),
            "f_dilation": (t_dil, t_dil_adj),
        }
        for eps in eps_values:
            solver = mourre_resolvent(h_op, model, grid, z, eps)
            for name, (t_fwd, t_adj) in probes.items():
                # each run finishes inside this iteration, so the closures
                # see this iteration's solver and probe
                lhs = operator_norm_lower(
                    lambda u: f * solver.solve(t_fwd(u)),
                    lambda w: t_adj(solver.solve_adjoint(f * w)), len(x), rng=rng)
                rhs = operator_norm_lower(
                    lambda u: t_adj(solver.solve(t_fwd(u))),
                    lambda w: t_adj(solver.solve_adjoint(t_fwd(w))), len(x), rng=rng)
                q = (lhs.lower**2) * abs(eps) / rhs.lower if rhs.lower > 0 else math.inf
                rows.append({"z": z, "eps": eps, "probe": name,
                             "lhs": lhs.lower, "rhs": rhs.lower, "q": q,
                             "converged": lhs.converged and rhs.converged})
                constants[name] = max(constants.get(name, 0.0), q)
    return QuadraticReport(rows=rows, constants=constants)
