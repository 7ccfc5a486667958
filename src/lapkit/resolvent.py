"""Complex shifted solves and resolvent-norm estimators over a sector.

Energies live in the open sector arg z in (0, theta), |z| <= lambda_0;
zero-energy quantities are reached only by extrapolation along rays.
Every factorized operator here is complex symmetric (transpose equals
itself), so adjoint solves reduce to conjugated forward solves and a
single LU factorization serves both directions.

The plain resolvent norm of a self-adjoint H is exact, 1 / dist(z,
spectrum), with the distance from ``spectral_distance``.  Every other
operator norm is one Lanczos run on A* A (``_lanczos``) whose Ritz
vector is re-evaluated through A, so the value is a certified lower
bound: the weighted norms (``weighted_opnorm``), the Hoelder difference
norms, the quadratic estimate and the diagonal shell pairs.

Every Hamiltonian here is complex-symmetric tridiagonal, so its
resolvent is semiseparable.  ``TridiagonalResolvent`` holds per-z
generators from the two pivot sequences: log-domain prefix sums of
the pivot ratios and the diagonal 1 / (d + e - a).  Any entry is one
exponential, and one O(n) pass certifies the residual of every
column.  The shell-space bracket takes every entry from them.  Blocks
and shells are levels of |x|, so two different ones are separated
and their weighted block has rank <= 2, with a closed-form norm from
segment sums; the unit-block sup (upper bound) and the off-diagonal
shell pairs are exact.  A diagonal shell pair inverts to a
tridiagonal Schur complement, on which Lanczos runs, so the lower
bound is the shell-dual norm to the Lanczos tolerance.  The LU path
stays for everything else, including the pentadiagonal
commutator-regularized operator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
from scipy.linalg.lapack import zgtsv

from .besov import ShellScheme, loglog_slope, unit_blocks
from .errors import DimensionError, ExtrapolationError, SolverError
from .operators import dilation_eigenbasis
from .potential import PotentialModel, WeightParams, bracket, weight_f

__all__ = [
    "Sector",
    "ShiftedSolver",
    "TridiagonalResolvent",
    "spectral_distance",
    "solve",
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


# relative residual every shifted solve and resolvent column is certified to
SOLVE_RTOL = 1e-10
# every operator-norm Lanczos run stops once its top Ritz residual is at
# most LANCZOS_RTOL times the Ritz value, or after LANCZOS_STEPS steps
LANCZOS_RTOL = 1e-10
LANCZOS_STEPS = 128
# groups per vectorized batch of block pairs and diagonal blocks in the
# shell-space bracket; it bounds their temporaries (a bench sweep peaked
# about 4 MB higher with 64 than with 16)
BATCH = 16


# ---------------------------------------------------------------------------
# Sector geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sector:
    """Complex energies with arg z in (0, theta) and 0 < |z| <= lambda0."""

    theta: float = 0.75 * math.pi
    lambda0: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError("sector opening must lie in (0, pi)")
        if self.lambda0 <= 0:
            raise ValueError("modulus bound must be positive")

    def contains(self, z: complex) -> bool:
        if z == 0 or abs(z) > self.lambda0 * (1 + 1e-12):
            return False
        arg = cmath.phase(z)
        return 0.0 < arg < self.theta

    def default_ray(self) -> float:
        return self.theta / 2.0

    def points(self, moduli, rays=None) -> list[complex]:
        rays = [self.default_ray()] if rays is None else list(rays)
        out = []
        for arg in rays:
            if not 0.0 < arg < self.theta:
                raise ValueError(f"ray argument {arg} outside the sector")
            for m in moduli:
                z = m * cmath.exp(1j * arg)
                if not self.contains(z):
                    raise ValueError(f"point {z} outside the sector")
                out.append(z)
        return out

    def ray_ladder(self, arg: float, ratio: float, count: int) -> list[complex]:
        return [self.lambda0 * ratio**k * cmath.exp(1j * arg)
                for k in range(count)]


# ---------------------------------------------------------------------------
# Shifted solves
# ---------------------------------------------------------------------------

class ShiftedSolver:
    """LU factorization of (M - z) with iterative refinement on solves.

    The shifted matrix must be complex symmetric; the transpose trick
    then gives adjoint solves from the same factorization.  ``matrix``
    is M as a sparse matrix.  A solve takes up to four refinement
    steps to reach a relative residual of SOLVE_RTOL.
    """

    def __init__(self, operator, z: complex):
        m = sp.csr_matrix(operator)
        self.matrix = m
        self.shape = m.shape
        self.z = complex(z)
        shifted = (m - self.z * sp.identity(m.shape[0], dtype=complex)).tocsc()
        asym = abs(shifted - shifted.T)
        scale = max(abs(shifted).max(), 1e-300)
        if asym.nnz and asym.max() > 1e-12 * scale:
            raise ValueError("shifted operator is not complex symmetric")
        self._shifted = shifted.tocsr()
        try:
            self._lu = spla.splu(shifted)
        except RuntimeError as exc:
            raise SolverError(
                f"factorization failed at z = {self.z}: spectrally degenerate "
                f"({exc})") from exc

    def solve(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.shape[0],):
            raise DimensionError("right-hand side length mismatch")
        u = self._lu.solve(v)
        vnorm = np.linalg.norm(v)
        if vnorm == 0.0:
            return np.zeros_like(v)
        for _ in range(4):
            r = v - self._shifted @ u
            if np.linalg.norm(r) <= SOLVE_RTOL * vnorm:
                return u
            u = u + self._lu.solve(r)
        resid = np.linalg.norm(v - self._shifted @ u) / vnorm
        if resid > SOLVE_RTOL:
            raise SolverError(
                f"solve at z = {self.z} reached residual {resid:.3e} "
                f"(requested {SOLVE_RTOL:.1e})")
        return u

    def solve_adjoint(self, w: np.ndarray) -> np.ndarray:
        """(M - z)^{-*} w via conjugation, valid for symmetric M - z."""
        return np.conj(self.solve(np.conj(np.asarray(w, dtype=complex))))

    def residual(self, u, v) -> float:
        v = np.asarray(v, dtype=complex)
        return float(np.linalg.norm(v - self._shifted @ u)
                     / max(np.linalg.norm(v), 1e-300))


def _solver_at(operator, z: complex) -> ShiftedSolver:
    """ShiftedSolver for operator - z; a solver already built at z is reused."""
    if isinstance(operator, ShiftedSolver):
        if operator.z != complex(z):
            raise ValueError(f"solver was factorized at {operator.z}, not {z}")
        return operator
    return ShiftedSolver(operator, z)


def solve(operator, z: complex, v) -> np.ndarray:
    """u = (H - z)^{-1} v with residual certified below SOLVE_RTOL ||v||."""
    return ShiftedSolver(operator, z).solve(v)


# ---------------------------------------------------------------------------
# Tridiagonal resolvent kernel and the distance to the spectrum
# ---------------------------------------------------------------------------

def _tridiagonal(operator) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal), or ValueError unless complex-symmetric tridiagonal."""
    m = sp.csr_matrix(operator)
    n = m.shape[0]
    if m.shape != (n, n):
        raise DimensionError("operator must be square")
    main, upper, lower = m.diagonal(), m.diagonal(1), m.diagonal(-1)
    if (np.count_nonzero(main) + np.count_nonzero(upper)
            + np.count_nonzero(lower) != m.count_nonzero()):
        raise ValueError("operator is not tridiagonal")
    scale = max(np.max(np.abs(main)), np.max(np.abs(upper), initial=0.0), 1e-300)
    if np.max(np.abs(upper - lower), initial=0.0) > 1e-12 * scale:
        raise ValueError("operator is not complex symmetric")
    return main, upper


def spectral_distance(operator, z: complex) -> float:
    """dist(z, spectrum of H); its reciprocal is ||(H - z)^{-1}|| (Kato, 1966).

    For real lambda, |lambda - z|^2 = (lambda - Re z)^2 + (Im z)^2, so
    any window around Re z that holds an eigenvalue holds the nearest
    one.  Bisection (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)
    386) lists the eigenvalues in a window of half-width Im z / 16,
    widened fourfold until it is not empty.  The error is at most the
    bisection tolerance eps ||H||_1 over Im z, relative: below 1e-9 at
    desk scale for |z| >= 1e-4.  ValueError unless H is real, symmetric
    and tridiagonal.
    """
    main, off = _tridiagonal(operator)
    if np.any(np.imag(main)) or np.any(np.imag(off)):
        raise ValueError("operator is not real")
    main, off, z = main.real, off.real, complex(z)
    half = abs(z.imag) / 16.0 or 1.0
    while True:
        vals = eigvalsh_tridiagonal(main, off, select="v",
                                    select_range=(z.real - half, z.real + half))
        if vals.size:
            return float(np.min(np.hypot(vals - z.real, z.imag)))
        half *= 4.0

class TridiagonalResolvent:
    """Entries of R = (M - z)^{-1} for a complex-symmetric tridiagonal M - z.

    With a = diag(M) - z and off-diagonal b, the top-down pivots
    d_i = a_i - b_{i-1}^2 / d_{i-1} and the bottom-up pivots
    e_i = a_i - b_i^2 / e_{i+1} are the two LU factorizations without
    pivoting; they are stable because Im(M - z) = -Im z is definite for
    a Hermitian M (Higham, Math. Comp. 67 (1998) 1591).  Column c of R
    satisfies R[i, c] = up_i R[i+1, c] above the diagonal
    (up_i = -b_i / d_i) and R[i+1, c] = dn_i R[i, c] below it
    (dn_i = -b_i / e_{i+1}), and R[c, c] = g_c = 1 / (d_c + e_c - a_c).
    So R is semiseparable (Meurant, SIAM J. Matrix Anal. Appl. 13
    (1992) 707): with the prefix sums U and D of log up and log dn,

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
    most ``rtol``.
    """

    def __init__(self, operator, z: complex, rtol: float = SOLVE_RTOL):
        main, upper = _tridiagonal(operator)
        self.z = complex(z)
        self.rtol = rtol
        self.n = n = len(main)
        self.a = main.astype(complex) - self.z
        self.b = upper.astype(complex)
        a, b2 = self.a.tolist(), (self.b**2).tolist()
        self.d, self.e = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        d = self.d[0] = a[0]
        e = self.e[n - 1] = a[n - 1]
        try:
            for i in range(1, n):
                d = self.d[i] = a[i] - b2[i - 1] / d
                e = self.e[n - 1 - i] = a[n - 1 - i] - b2[n - 1 - i] / e
        except ZeroDivisionError as exc:
            raise SolverError(
                f"zero pivot at z = {self.z}: spectrally degenerate") from exc
        if not np.all(self.b):
            raise ValueError("operator decouples: zero off-diagonal entry")
        self.up = -self.b / self.d[:-1]
        self.dn = -self.b / self.e[1:]
        self.g = 1.0 / (self.d + self.e - self.a)
        self._log_up = _prefix_sums(np.log(self.up))
        self._log_dn = _prefix_sums(np.log(self.dn))
        self._certify()

    def log_up(self, i, c):
        """log of up_i ... up_{c-1}, so R[i, c] = exp(log_up(i, c)) g_c for i <= c."""
        return _span(self._log_up, i, c)

    def log_dn(self, c, i):
        """log of dn_c ... dn_{i-1}, so R[i, c] = exp(log_dn(c, i)) g_c for i >= c."""
        return _span(self._log_dn, c, i)

    def entries(self, rows, cols) -> np.ndarray:
        """R[rows, cols] for index arrays that broadcast against each other."""
        log = np.where(rows <= cols, self.log_up(rows, cols),
                       self.log_dn(cols, rows))
        return np.exp(log) * self.g[cols]

    def _certify(self) -> None:
        """Raise SolverError unless ||(M - z) R[:, c] - e_c|| <= rtol for every c."""
        a, b, up, dn, g = self.a, self.b, self.up, self.dn, self.g
        n, u = self.n, np.finfo(float).eps / 2
        zero = np.zeros(1, dtype=complex)
        # the terms of row i's residual divided by R[i, c], for columns c
        # right of i (above) and left of i (below), and the diagonal row's
        above = (a[:-1], np.concatenate((zero, b[:-1] * up[:-1])), b / up)
        below = (a[1:], b / dn, np.concatenate((b[1:] * dn[1:], zero)))
        diag = (g * a, g * np.concatenate((zero, b * up)),
                g * np.concatenate((b * dn, zero)), -np.ones(n))

        def bound(terms):
            return np.abs(sum(terms)) + 4 * u * sum(np.abs(t) for t in terms)

        res_sq = bound(diag) ** 2
        if n > 1:
            # rows above column c: sum_{i<c} |up_i...up_{c-1}|^2 bound_i^2
            re_u, re_d = self._log_up[0].real, self._log_dn[0].real
            acc = np.logaddexp.accumulate(2 * np.log(bound(above)) - 2 * re_u[:-1])
            rows_sq = np.zeros(n)
            rows_sq[1:] = np.exp(2 * re_u[1:] + acc)
            # rows below: sum_{i>c} |dn_c...dn_{i-1}|^2 bound_i^2
            acc = np.logaddexp.accumulate((2 * np.log(bound(below))
                                           + 2 * re_d[1:])[::-1])[::-1]
            rows_sq[:-1] += np.exp(acc - 2 * re_d[:-1])
            res_sq += np.abs(g) ** 2 * rows_sq
        worst = math.sqrt(float(np.max(res_sq)))
        if not worst <= self.rtol:
            raise SolverError(
                f"resolvent columns at z = {self.z} reached residual "
                f"{worst:.3e} (requested {self.rtol:.1e})")


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
        # a matrix product here goes to multithreaded BLAS, whose first calls
        # in a process took 0.2-0.5 s each on a 2-core host
        for q in basis:
            v -= np.vdot(q, v) * q
        theta, vecs = eigh_tridiagonal(np.array(alpha), np.array(beta))
        top = vecs[:, -1]
        size = float(np.linalg.norm(v))
        converged = size * abs(top[-1]) <= LANCZOS_RTOL * theta[-1] or step == m
        if converged or step == LANCZOS_STEPS:
            break
        beta.append(size)
        basis.append(v / size)
    ritz = sum(c * q for c, q in zip(top, basis))
    value = float(norm_of(ritz / np.linalg.norm(ritz)))
    # an evaluation of A off from the Gram product shows as a disagreement
    sigma = math.sqrt(max(theta[-1], 0.0))
    agrees = abs(value - sigma) <= math.sqrt(LANCZOS_RTOL) * value
    return value, step, bool(converged and agrees)


def operator_norm_lower(matvec, rmatvec, dim: int,
                        rng: np.random.Generator | None = None) -> OpNormEstimate:
    """Largest-singular-value lower bound ||M y|| by Lanczos on M* M.

    ``_lanczos`` runs from a complex Gaussian start drawn from ``rng``
    and re-evaluates its unit Ritz vector y through ``matvec``, so the
    value is certified from below; ``iterations`` counts the Lanczos
    steps, each one ``matvec`` and one ``rmatvec``.
    """
    rng = rng or np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    lower, steps, converged = _lanczos(
        lambda u: rmatvec(matvec(u)), start, lambda y: np.linalg.norm(matvec(y)))
    return OpNormEstimate(lower=lower, converged=converged, iterations=steps)


def weighted_opnorm(operator, z: complex, left_weight, right_weight,
                    rng: np.random.Generator | None = None) -> OpNormEstimate:
    """Lower bound for || W_l R(z) W_r || with diagonal weights.

    ``operator`` is H, or a ShiftedSolver already factorized at z.
    """
    wl = np.asarray(left_weight, dtype=float)
    wr = np.asarray(right_weight, dtype=float)
    if np.all(wl == 0.0) or np.all(wr == 0.0):
        return OpNormEstimate(lower=0.0, converged=True, iterations=0)
    solver = _solver_at(operator, z)

    def matvec(u):
        return wl * solver.solve(wr * u)

    def rmatvec(w):
        return wr * solver.solve_adjoint(wl * w)

    return operator_norm_lower(matvec, rmatvec, len(wl), rng=rng)


# ---------------------------------------------------------------------------
# Shell-space (Besov) estimate of the weighted resolvent
# ---------------------------------------------------------------------------

@dataclass
class BesovEstimate:
    """Bracket for || f^{1/2} R(z) f^{1/2} || from shell space to its dual."""

    lower: float
    upper: float
    block_sup: float
    z: complex
    details: dict = field(default_factory=dict)


def besov_bstar_estimate(operator, z: complex, model: PotentialModel,
                         grid) -> BesovEstimate:
    """Two-sided estimate of the shell-space norm of f^{1/2} R(z) f^{1/2}.

    f is the local momentum weight at lambda = |z| with K = 1.

    ``operator`` is H, or a ShiftedSolver already factorized at z; H
    must be complex-symmetric tridiagonal.  Every resolvent entry is
    read off the certified generators of ``TridiagonalResolvent``.

    Upper bound: the exact unit-width block sup over |x| blocks,
    doubled.  Two different blocks are separated (the outer block's
    nodes lie wholly before or after the inner block's), so their
    weighted block has rank <= 2 and its norm is a closed-form 2 x 2
    eigenvalue of segment sums (``_separated_pair_norms``); only the
    diagonal blocks are built, about 10 x 10 at desk spacing.

    Lower bound: the best dyadic shell pair, scaled by
    R_j^{-1/2} R_k^{-1/2}; the best pair is the shell-dual norm
    itself.  Pairs j != k have rank <= 2 and take the same path as the
    blocks.  A diagonal pair is ||F_S R[S, S] F_S||, where R[S, S] is
    the inverse of a tridiagonal Schur complement (``_shell_inverse``);
    Lanczos on its A* A finds the top singular value in O(|S|) per
    step, and the Ritz vector is re-evaluated through one certified
    solve with H - z, so the value is a lower bound whether or not
    Lanczos converged.  ``details`` records the best pair, whether the
    term that set ``lower`` converged (separated pairs are exact), the
    Lanczos steps and the diagonal pairs that did not converge.
    """
    x = grid.nodes
    absx = np.abs(x)
    f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=model.mu), x)
    fh = np.sqrt(f)
    solver = _solver_at(operator, z)
    kernel = TridiagonalResolvent(solver.matrix, z)
    center = int(np.argmin(absx))

    # --- exact unit-width block sup (upper bound) -------------------------
    labels, blocks = unit_blocks(absx)
    block_sup = max(
        float(np.max(_diagonal_block_norms(kernel, fh, blocks))),
        float(np.max(_separated_pair_norms(kernel, f, labels, len(blocks),
                                           center), initial=0.0)))

    # --- shell pairs (lower bound) ----------------------------------------
    shell_of, radii = ShellScheme().shell_indices(absx)
    inner, outer = np.triu_indices(len(radii), 1)
    pairs = (_separated_pair_norms(kernel, f, shell_of, len(radii), center)
             / np.sqrt(radii[inner] * radii[outer]))
    lower, best_pair, lower_converged = 0.0, None, True
    if pairs.size:
        best = int(np.argmax(pairs))
        lower, best_pair = float(pairs[best]), (int(inner[best]) + 1,
                                               int(outer[best]) + 1)
    steps = unconverged = 0
    for j, radius in enumerate(radii):
        idx = np.flatnonzero(shell_of == j)
        if idx.size == 0:
            continue
        norm, used, converged = _diagonal_shell_norm(kernel, solver, fh, idx)
        steps += used
        unconverged += not converged
        if norm / radius > lower:
            lower, best_pair, lower_converged = norm / radius, (j + 1, j + 1), converged

    upper = 2.0 * block_sup
    if lower > upper * (1 + 1e-6):
        raise AssertionError("shell-space bracket inverted")
    return BesovEstimate(lower=lower, upper=upper, block_sup=block_sup, z=z,
                         details={"best_shell_pair": best_pair,
                                  "lower_converged": lower_converged,
                                  "lanczos_steps": steps,
                                  "unconverged_shell_pairs": unconverged})


def _separated_pair_norms(kernel: TridiagonalResolvent, f, labels, count: int,
                          center: int) -> np.ndarray:
    """||F R[G_p, G_q] F|| for all p < q, F = diag(f)^{1/2}, in triu_indices order.

    Group p holds the nodes labelled p, and ``center`` is a node of
    least |x|; the groups are levels of |x| (unit blocks or shells),
    so for p < q every node of G_q lies before G_p's first node a
    (when it precedes ``center``) or after its last node b.  A column
    c before a has R[i, c] = alpha_i beta_c with alpha_i = dn_a ...
    dn_{i-1} and beta_c = R[a, c], and a column after b has
    R[i, c] = gamma_i delta_c with gamma_i = up_i ... up_{b-1} and
    delta_c = R[b, c].  The block is alpha beta^T +
    gamma delta^T with beta and delta on disjoint columns, so its
    squared norm is the top eigenvalue of [[S_aa B, S_ag (B D)^{1/2}],
    [conj, S_gg D]], with the row sums S = sum f conj(.) (.) over G_p
    and B, D = sum f |beta|^2, sum f |delta|^2 over G_q's two sides.
    Each column sum is its side's own sum, anchored at the side's end
    nearest the center, times the squared ratio product across the
    separation.  O(n + count^2), in batches of BATCH rows.
    """
    n = kernel.n
    nodes = np.arange(n)
    first = np.full(count, n - 1)
    last = np.zeros(count, dtype=int)
    np.minimum.at(first, labels, nodes)
    np.maximum.at(last, labels, nodes)
    alpha = np.exp(kernel.log_dn(first[labels], nodes))
    gamma = np.exp(kernel.log_up(nodes, last[labels]))

    def group_sum(idx, weights):
        return np.bincount(labels[idx], weights=weights, minlength=count)

    s_aa = group_sum(nodes, f * np.abs(alpha) ** 2)
    s_gg = group_sum(nodes, f * np.abs(gamma) ** 2)
    cross = f * np.conj(alpha) * gamma
    s_ag = np.abs(group_sum(nodes, cross.real) + 1j * group_sum(nodes, cross.imag))

    # each outer side anchored at its node nearest the center
    left, right = nodes[:center], nodes[center:]
    end = np.zeros(count, dtype=int)
    start = np.full(count, n - 1)
    np.maximum.at(end, labels[left], left)
    np.minimum.at(start, labels[right], right)
    beta = np.exp(kernel.log_dn(left, end[labels[left]])) * kernel.g[left]
    delta = np.exp(kernel.log_up(start[labels[right]], right)) * kernel.g[right]
    side_b = group_sum(left, f[left] * np.abs(beta) ** 2)
    side_d = group_sum(right, f[right] * np.abs(delta) ** 2)

    real_up = tuple(part.real for part in kernel._log_up)
    real_dn = tuple(part.real for part in kernel._log_dn)
    out = []
    for top in range(0, count, BATCH):
        p, q = np.nonzero(np.arange(top, min(top + BATCH, count))[:, None]
                          < np.arange(count))
        p += top
        # an empty group or side has a zero sum, and its anchors are not read
        live = s_aa[p] > 0
        big_b = side_b[q] * np.exp(np.where(
            live & (side_b[q] > 0), 2 * _span(real_dn, end[q], first[p]), -np.inf))
        big_d = side_d[q] * np.exp(np.where(
            live & (side_d[q] > 0), 2 * _span(real_up, last[p], start[q]), -np.inf))
        pp, rr = s_aa[p] * big_b, s_gg[p] * big_d
        out.append(np.sqrt((pp + rr) / 2 + np.hypot((pp - rr) / 2,
                                                    s_ag[p] * np.sqrt(big_b * big_d))))
    return np.concatenate(out)


def _diagonal_block_norms(kernel: TridiagonalResolvent, fh, blocks) -> np.ndarray:
    """||F R[B, B] F|| for every block, from zero-padded batches of blocks."""
    norms = []
    for top in range(0, len(blocks), BATCH):
        batch = blocks[top:top + BATCH]
        sizes = np.array([len(block) for block in batch])
        filled = np.arange(sizes.max()) < sizes[:, None]
        idx = np.repeat([[block[0]] for block in batch], filled.shape[1], axis=1)
        idx[filled] = np.concatenate(batch)
        w = np.where(filled, fh[idx], 0.0)
        sub = (kernel.entries(idx[:, :, None], idx[:, None, :])
               * w[:, :, None] * w[:, None, :])
        norms.append(np.linalg.norm(sub, 2, axis=(1, 2)))
    return np.concatenate(norms)


def _shell_inverse(kernel: TridiagonalResolvent, idx) -> tuple[np.ndarray, np.ndarray]:
    """(diagonal, off-diagonal) of R[S, S]^{-1}, tridiagonal in S order.

    R[S, S]^{-1} is the Schur complement of M - z onto S: M[S, S] minus
    the coupling through each stretch of nodes outside S.  The stretch
    before S (after S) touches only S's first (last) node, and its
    term b^2 / d (b^2 / e) is a global pivot.  A gap between two runs
    of S couples the last node before it to the first node after it,
    which are neighbours in S order; its 2 x 2 term takes the corner
    entries of the gap block's inverse from one tridiagonal solve.
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
        inv = _gtsv(b[g0:g1], a[g0:g1 + 1], corners)
        left, right = b[idx[t]], b[g1]
        diag[t] -= left**2 * inv[0, 0]
        diag[t + 1] -= right**2 * inv[-1, 1]
        off[t] = -left * right * inv[0, 1]
    return diag, off


def _gtsv(off, diag, rhs) -> np.ndarray:
    """Solve T x = rhs for the complex-symmetric tridiagonal T (LAPACK zgtsv)."""
    if len(diag) == 1:                  # the wrapper rejects empty off-diagonals
        return rhs / diag[0]
    *_, x, info = zgtsv(off, diag, off, rhs)
    if info:
        raise SolverError(f"singular tridiagonal block (zgtsv info {info})")
    return x


def _diagonal_shell_norm(kernel: TridiagonalResolvent, solver: ShiftedSolver,
                         fh, idx) -> tuple[float, int, bool]:
    """(lower bound for ||F_S R[S, S] F_S||, Lanczos steps, converged).

    ``_lanczos`` on A* A, A = F_S K^{-1} F_S with K = R[S, S]^{-1} from
    ``_shell_inverse``, from a fixed Gaussian start, two O(|S|)
    tridiagonal solves per step.  The Ritz vector is re-evaluated by a
    certified solve with H - z itself, so a Schur complement off from
    H - z would show as a disagreement.
    """
    m = len(idx)
    w = fh[idx]
    diag, off = _shell_inverse(kernel, idx)

    def gram(v):
        # K is complex symmetric, so K^{-*} y = conj(K^{-1} conj(y))
        u = w * _gtsv(off, diag, (w * v)[:, None])[:, 0]
        return w * np.conj(_gtsv(off, diag, np.conj(w * u)[:, None])[:, 0])

    def norm_of(y):
        probe = np.zeros(kernel.n, dtype=complex)
        probe[idx] = w * y
        return np.linalg.norm(w * solver.solve(probe)[idx])

    start = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, m))
    return _lanczos(gram, start, norm_of)


# ---------------------------------------------------------------------------
# Hoelder continuity probe
# ---------------------------------------------------------------------------

@dataclass
class HoelderReport:
    s: float
    pairs: list                 # (z1, z2, distance, difference norm)
    fitted_gamma: float
    sup_quotient: float         # at the exponent used
    gamma_used: float
    in_hypothesis: bool
    unconverged: int            # pairs left out of the fit


def hoelder_estimate(operator, s: float, pairs, grid,
                     s0: float | None = None,
                     gamma: float | None = None,
                     rng: np.random.Generator | None = None) -> HoelderReport:
    """Difference norms ||T(z1) - T(z2)|| for T(z) = <x>^{-s} R(z) <x>^{-s}.

    Fits the growth exponent of the difference norm against the pair
    distance and reports the sup quotient at that exponent (or at a
    caller-supplied one, so runs on different grids stay comparable).
    Pairs with s <= s0 are still evaluated but flagged out of
    hypothesis.  A pair whose Lanczos run did not converge is left out
    of the fit and counted in ``unconverged``; its value is still a
    certified lower bound, so it stays in the sup quotient.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 sector pairs")
    rng = rng or np.random.default_rng(0)
    w = bracket(grid.nodes) ** (-s)
    rows = []
    converged = []
    for z1, z2 in pairs:
        dist = abs(z1 - z2)
        if dist == 0.0:
            rows.append((z1, z2, 0.0, 0.0))
            continue
        s1 = ShiftedSolver(operator, z1)
        s2 = ShiftedSolver(operator, z2)

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
    good = (norms > 0) & converged
    if np.count_nonzero(good) >= 2:
        fitted_gamma = loglog_slope(dists[good], norms[good])
    else:
        fitted_gamma = math.nan
    used = fitted_gamma if gamma is None else gamma
    quot = 0.0
    for d, nrm in zip(dists, norms):
        denom = d**used
        if denom > 0:
            quot = max(quot, nrm / denom)
        elif nrm > 0:
            quot = math.inf
    return HoelderReport(
        s=s, pairs=rows, fitted_gamma=fitted_gamma,
        sup_quotient=float(quot), gamma_used=used,
        in_hypothesis=(s0 is None or s > s0),
        unconverged=int(np.count_nonzero(~converged)))


# ---------------------------------------------------------------------------
# Boundary values along a ray
# ---------------------------------------------------------------------------

@dataclass
class BoundaryValueResult:
    u: np.ndarray
    sign: int
    ray_arg: float
    ratio: float
    z_values: list[complex]
    diffs: list[float]          # successive weighted differences
    tol: float
    converged: bool

    @property
    def final_z(self) -> complex:
        return self.z_values[-1]


def boundary_value(operator, v, grid, sector: Sector | None = None,
                   ray_arg: float | None = None, ratio: float = 0.5,
                   tol: float = 1e-4, sign: int = +1, max_steps: int = 24,
                   weight_s: float = 0.8,
                   rise_factor: float = 2.0) -> BoundaryValueResult:
    """Extrapolate R(0 + i0) v (or the -i0 value) along a sector ray.

    Solves at z_k = lambda0 ratio^k e^{i arg} until the successive
    weighted differences ||u_{k+1} - u_k||_{-s} drop below
    tol * ||u||_{-s}.  On a finite box the ladder shows a transient
    wobble where |z| crosses the box scale before resuming geometric
    decrease, so non-convergence is declared on the envelope: the
    ladder fails once a difference exceeds ``rise_factor`` times the
    running minimum.  The -i0 value walks the conjugate ray conj(z_k)
    with the conjugate operator conj(M).  For a real potential that
    mirrors the +i0 ladder through the real axis, absorbing layer
    included, so it yields conj(R(0 + i0) conj(v)).
    """
    v = np.asarray(v, dtype=complex)
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    sector = sector or Sector()
    arg = sector.default_ray() if ray_arg is None else ray_arg
    if not 0.0 < arg < sector.theta:
        raise ValueError("ray argument outside the sector")
    zs = sector.ray_ladder(arg, ratio, max_steps)
    if sign == -1:
        operator = operator.conj()
        zs = [z.conjugate() for z in zs]
    w = bracket(grid.nodes) ** (-weight_s)
    if np.linalg.norm(v) == 0.0:
        return BoundaryValueResult(
            u=np.zeros_like(v), sign=sign, ray_arg=arg, ratio=ratio,
            z_values=zs[:1], diffs=[], tol=tol, converged=True)

    u_prev = None
    diffs: list[float] = []
    used: list[complex] = []
    running_min = math.inf
    for z in zs:
        u = ShiftedSolver(operator, z).solve(v)
        used.append(z)
        if u_prev is not None:
            d = float(np.linalg.norm(w * (u - u_prev)))
            scale = float(np.linalg.norm(w * u))
            diffs.append(d)
            if d > rise_factor * running_min:
                raise ExtrapolationError(
                    "difference ladder stopped decreasing", ladder=diffs)
            running_min = min(running_min, d)
            if d <= tol * scale:
                return BoundaryValueResult(
                    u=u, sign=sign, ray_arg=arg, ratio=ratio, z_values=used,
                    diffs=diffs, tol=tol, converged=True)
        u_prev = u
    return BoundaryValueResult(
        u=u_prev, sign=sign, ray_arg=arg, ratio=ratio, z_values=used,
        diffs=diffs, tol=tol, converged=False)


# ---------------------------------------------------------------------------
# Commutator-regularized resolvent and the quadratic estimate
# ---------------------------------------------------------------------------

def mourre_resolvent(hm: sp.csr_matrix, am: sp.csr_matrix,
                     z: complex, eps: float) -> ShiftedSolver:
    """Factorize H - i eps i[H, A] - z, defined for eps Im z > 0.

    The commutator is formed as the discrete product i (H A - A H),
    which is real symmetric for a real H and the symmetrized dilation
    generator, so the regularized operator stays complex symmetric.
    """
    if eps * z.imag <= 0:
        raise ValueError("regularization requires eps Im z > 0")
    comm = 1j * (hm @ am - am @ hm)
    reg = hm - 1j * eps * comm
    return ShiftedSolver(reg, z)


@dataclass
class QuadraticReport:
    rows: list                  # dicts with z, eps, probe, lhs, rhs, q, converged
    constants: dict             # probe -> sup of q over the grid

    def stability(self, probe: str) -> float:
        """max/min of the per-z sup for one probe (1 = perfectly flat)."""
        per_z: dict[complex, float] = {}
        for row in self.rows:
            if row["probe"] != probe:
                continue
            key = row["z"]
            per_z[key] = max(per_z.get(key, 0.0), row["q"])
        values = list(per_z.values())
        return max(values) / min(values) if values else math.inf


def quadratic_check(h_op: sp.csr_matrix, a_op: sp.csr_matrix,
                    model: PotentialModel, grid, z_values, eps_values,
                    rng: np.random.Generator | None = None) -> QuadraticReport:
    """Evaluate ||f R_z(eps) T||^2 <= C |eps|^{-1} ||T* R_z(eps) T||.

    Probes: T = f^{1/2} <x>^{-s} (diagonal, s = s0 + 0.05, weight
    constant K = 1) and T = f <A>^{-1}, the second applied through the
    eigendecomposition of the dilation generator.  Reports q = LHS |eps| / RHS per (z, eps, probe) and
    the sup per probe; the estimate predicts q bounded by a constant
    depending only on the sector opening.  A row's ``converged`` is
    true when the Lanczos runs of both its LHS and its RHS converged.
    """
    rng = rng or np.random.default_rng(0)
    x = grid.nodes
    s = model.s0 + 0.05
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
            solver = mourre_resolvent(h_op, a_op, z, eps)
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
