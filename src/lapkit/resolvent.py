"""Complex shifted solves and resolvent-norm estimators over a sector.

Energies live in the open sector arg z in (0, theta), |z| <= lambda_0;
zero-energy quantities are reached only by extrapolation along rays.
Every factorized operator here is complex symmetric (transpose equals
itself), so adjoint solves reduce to conjugated forward solves and a
single LU factorization serves both directions.

The plain resolvent norm of a self-adjoint H is exact, 1 / dist(z,
spectrum), with the distance from ``spectral_distance``.  Weighted
norms come in certified one-sided pairs: power iteration
(``weighted_opnorm``) yields lower bounds, unit-width spectral block
enumeration yields upper bounds (twice the block sup), and the two
bracket the true weighted or shell-space operator norm.

Every Hamiltonian here is complex-symmetric tridiagonal, so its
resolvent is semiseparable.  ``TridiagonalResolvent`` reads any block
of columns of R(z) off two pivot sequences and their ratios, with no
solve and a residual certificate per block.  The shell-space bracket
uses it for the unit-block upper bound and for the exact norms of the
off-diagonal shell pairs, which have rank <= 2; only the diagonal
shell pairs run power iteration, through ``weighted_opnorm`` on the
LU solver.  The LU path stays for everything else, including the
pentadiagonal commutator-regularized operator.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigvalsh_tridiagonal

from .besov import ShellScheme, loglog_slope, unit_blocks
from .errors import DimensionError, ExtrapolationError, SolverError
from .operators import DiscreteOperator, dilation_eigenbasis
from .potential import PotentialModel, WeightParams, bracket, weight_f

__all__ = [
    "Sector",
    "ShiftedSolver",
    "TridiagonalResolvent",
    "ResolventPiece",
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


# relative residual every shifted solve and resolvent piece is certified to
SOLVE_RTOL = 1e-10


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

def _as_sparse(op):
    if isinstance(op, DiscreteOperator):
        return op.matrix
    return sp.csr_matrix(op)


class ShiftedSolver:
    """LU factorization of (M - z) with iterative refinement on solves.

    The shifted matrix must be complex symmetric; the transpose trick
    then gives adjoint solves from the same factorization.  ``matrix``
    is M as a sparse matrix.  A solve takes up to four refinement
    steps to reach a relative residual of SOLVE_RTOL.
    """

    def __init__(self, operator, z: complex):
        m = _as_sparse(operator)
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
    m = _as_sparse(operator)
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

@dataclass(frozen=True)
class ResolventPiece:
    """Columns J = c0..c1 of R = (M - z)^{-1}: R[J, J] and one ratio vector.

    For every c in J, R[i, c] = tail[i] R[c0, c] for rows i < c0 and
    R[i, c] = tail[i] R[c1, c] for rows i > c1; ``tail`` is 1 on J.
    """

    c0: int
    c1: int
    block: np.ndarray           # R[J, J]
    tail: np.ndarray            # length n

    def rows(self, idx) -> np.ndarray:
        """R[idx, J] for any row indices."""
        idx = np.asarray(idx)
        out = np.empty((idx.size, self.block.shape[1]), dtype=complex)
        above = idx < self.c0
        below = idx > self.c1
        inside = ~(above | below)
        out[above] = np.outer(self.tail[idx[above]], self.block[0])
        out[inside] = self.block[idx[inside] - self.c0]
        out[below] = np.outer(self.tail[idx[below]], self.block[-1])
        return out

    def row_norms_sq(self, weight_sq: np.ndarray) -> np.ndarray:
        """Squared row norms of diag(w) R[:, J] diag(w[J]), w^2 = weight_sq."""
        c0, c1 = self.c0, self.c1
        inner = np.abs(self.block) ** 2 @ weight_sq[c0:c1 + 1]
        sq = self.tail.real**2 + self.tail.imag**2
        sq[:c0] *= inner[0]
        sq[c0:c1 + 1] = inner
        sq[c1 + 1:] *= inner[-1]
        sq *= weight_sq
        return sq


class TridiagonalResolvent:
    """Entries of R = (M - z)^{-1} for a complex-symmetric tridiagonal M - z.

    With a = diag(M) - z and off-diagonal b, the top-down pivots
    d_i = a_i - b_{i-1}^2 / d_{i-1} and the bottom-up pivots
    e_i = a_i - b_i^2 / e_{i+1} are the two LU factorizations without
    pivoting; they are stable because Im(M - z) = -Im z is definite for
    a Hermitian M (Higham, Math. Comp. 67 (1998) 1591).  Column c of R
    satisfies R[i, c] = up_i R[i+1, c] above the diagonal
    (up_i = -b_i / d_i) and R[i+1, c] = dn_i R[i, c] below it
    (dn_i = -b_i / e_{i+1}), so R is semiseparable (Meurant, SIAM J.
    Matrix Anal. Appl. 13 (1992) 707) and a run of columns is its small
    diagonal block plus products of ratios anchored at the run's ends,
    with no solve.  Every piece is certified by its column residuals.
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
        self.up = -self.b / self.d[:-1]
        self.dn = -self.b / self.e[1:]

    def piece(self, c0: int, c1: int) -> ResolventPiece:
        """Columns c0..c1 of R, certified to column residual <= rtol."""
        w = c1 - c0 + 1
        # R[J, J] is the inverse of T[J, J] with the Schur terms
        # b_{c0-1}^2 / d_{c0-1} and b_{c1}^2 / e_{c1+1} taken off its
        # corners; that block's pivots are d[J] and e[J], so its diagonal
        # is 1 / (d + e - a) and R[i, c] = up_i R[i+1, c] above it
        block = np.diag(1.0 / (self.d[c0:c1 + 1] + self.e[c0:c1 + 1]
                               - self.a[c0:c1 + 1]))
        for i in range(w - 2, -1, -1):
            row = self.up[c0 + i] * block[i + 1, i + 1:]
            block[i, i + 1:] = row
            block[i + 1:, i] = row
        tail = np.ones(self.n, dtype=complex)
        if c0 > 0:
            np.cumprod(self.up[c0 - 1::-1], out=tail[c0 - 1::-1])
        np.cumprod(self.dn[c1:], out=tail[c1 + 1:])
        piece = ResolventPiece(c0, c1, block, tail)
        self._certify(piece)
        return piece

    def _certify(self, piece: ResolventPiece) -> None:
        """Raise SolverError unless ||(M - z) R[:, c] - e_c|| <= rtol.

        Outside J the residual of column c is one vector, the residual
        of ``tail``, times R[c0, c] (above) or R[c1, c] (below), so the
        check costs O(n).
        """
        a, b = self.a, self.b
        c0, c1, block, tail = piece.c0, piece.c1, piece.block, piece.tail
        rho = a * tail
        rho[1:] += b * tail[:-1]
        rho[:-1] += b * tail[1:]
        above, below = rho[:c0], rho[c1 + 1:]
        inside = a[c0:c1 + 1, None] * block
        inside[:-1] += b[c0:c1, None] * block[1:]
        inside[1:] += b[c0:c1, None] * block[:-1]
        inside.flat[::c1 - c0 + 2] -= 1.0          # minus the identity
        if c0 > 0:
            inside[0] += b[c0 - 1] * tail[c0 - 1] * block[0]
        if c1 < self.n - 1:
            inside[-1] += b[c1] * tail[c1 + 1] * block[-1]
        res_sq = (np.sum(np.abs(inside) ** 2, axis=0)
                  + np.vdot(above, above).real * np.abs(block[0]) ** 2
                  + np.vdot(below, below).real * np.abs(block[-1]) ** 2)
        worst = math.sqrt(float(np.max(res_sq)))
        if not worst <= self.rtol:
            raise SolverError(
                f"resolvent columns {c0}..{c1} at z = {self.z} reached "
                f"residual {worst:.3e} (requested {self.rtol:.1e})")


def _runs(idx: np.ndarray) -> list[list[int]]:
    """[first, last] of each run of consecutive values in ascending idx."""
    runs: list[list[int]] = []
    for i in idx.tolist():
        if runs and i == runs[-1][1] + 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return runs


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
    converged: bool = True
    iterations: int = 0


def operator_norm_lower(matvec, rmatvec, dim: int,
                        rng: np.random.Generator | None = None,
                        tol: float = 1e-8, maxiter: int = 300) -> OpNormEstimate:
    """Largest-singular-value lower bound by power iteration on M* M.

    Every iterate produces the certified lower bound ||M u|| with
    ||u|| = 1, from a random complex Gaussian start; the best one is
    returned, flagged unconverged when the relative gain has not
    flattened within ``maxiter``.
    """
    rng = rng or np.random.default_rng(0)
    u = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    u = u / np.linalg.norm(u)
    best = 0.0
    flat = 0
    for it in range(1, maxiter + 1):
        w = matvec(u)
        sigma = np.linalg.norm(w)
        if sigma <= 1e-300:
            return OpNormEstimate(lower=0.0, converged=True, iterations=it)
        gain = (sigma - best) / sigma
        best = max(best, float(sigma))
        u = rmatvec(w)
        u = u / np.linalg.norm(u)
        if gain < tol:
            flat += 1
            if flat >= 2:
                return OpNormEstimate(lower=best, converged=True, iterations=it)
        else:
            flat = 0
    return OpNormEstimate(lower=best, converged=False, iterations=maxiter)


def weighted_opnorm(operator, z: complex, left_weight, right_weight,
                    rng: np.random.Generator | None = None,
                    tol: float = 1e-8, maxiter: int = 300) -> OpNormEstimate:
    """Lower bound for || W_l R(z) W_r || with diagonal weights.

    ``operator`` is H, or a ShiftedSolver already factorized at z.
    """
    wl = np.asarray(left_weight, dtype=float)
    wr = np.asarray(right_weight, dtype=float)
    if np.all(wl == 0.0) or np.all(wr == 0.0):
        return OpNormEstimate(lower=0.0)
    solver = _solver_at(operator, z)

    def matvec(u):
        return wl * solver.solve(wr * u)

    def rmatvec(w):
        return wr * solver.solve_adjoint(wl * w)

    return operator_norm_lower(matvec, rmatvec, len(wl), rng=rng,
                               tol=tol, maxiter=maxiter)


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


def besov_bstar_estimate(operator, z: complex, model: PotentialModel, grid,
                         rng: np.random.Generator | None = None) -> BesovEstimate:
    """Two-sided estimate of the shell-space norm of f^{1/2} R(z) f^{1/2}.

    f is the local momentum weight at lambda = |z| with K = 1.

    ``operator`` is H, or a ShiftedSolver already factorized at z; H
    must be complex-symmetric tridiagonal.  Upper bound: exact
    unit-width block sup over |x| blocks, doubled.  The columns of each
    block come from the pivot ratios of ``TridiagonalResolvent`` with no
    solve; per-row-block Frobenius norms, taken from the ratio tails'
    vector norms, prune which block pairs need an exact spectral norm.
    Lower bound: the best dyadic shell pair, scaled by
    R_j^{-1/2} R_k^{-1/2}.  Disjoint shells j != k give a block of
    rank <= 2 whose norm is exact; only the diagonal pairs j == k use
    power iteration, as ``weighted_opnorm`` with the weight f^{1/2}
    cut to the shell, on the LU solver.  Every term is at most the
    shell-dual norm, so the best one is a certified lower bound.
    ``details`` records whether
    the term that set ``lower`` converged (exact pairs count as
    converged), the number of diagonal power runs and how many of them
    did not converge.
    """
    rng = rng or np.random.default_rng(0)
    x = grid.nodes
    absx = np.abs(x)
    f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=model.mu), x)
    fh = np.sqrt(f)                             # f^{1/2}
    solver = _solver_at(operator, z)
    kernel = TridiagonalResolvent(solver.matrix, z)

    # --- exact unit-width block sup (upper bound) -------------------------
    labels, blocks = unit_blocks(absx)
    block_sup = 0.0
    for cols in blocks:
        pieces = [kernel.piece(c0, c1) for c0, c1 in _runs(cols)]
        # Frobenius norms per row block dominate the spectral norms
        sq = sum(p.row_norms_sq(f) for p in pieces)
        frob_sq = np.bincount(labels, weights=sq, minlength=len(blocks))
        for m_idx in np.argsort(frob_sq)[::-1]:
            if math.sqrt(frob_sq[m_idx]) <= block_sup:
                break
            rows = blocks[m_idx]
            sub = np.hstack([p.rows(rows) * fh[p.c0:p.c1 + 1]
                             for p in pieces]) * fh[rows, None]
            block_sup = max(block_sup, float(np.linalg.norm(sub, 2)))

    # --- shell pairs (lower bound) ----------------------------------------
    shells, radii = ShellScheme().shells(absx)
    lower = 0.0
    best_pair = None
    lower_converged = True
    diagonal_runs = unconverged = 0
    # R is complex symmetric, so the pair (k, j) has the norm of (j, k)
    for k, outer in enumerate(shells):
        if outer.size == 0:
            continue
        runs = _runs(outer)
        anchors: dict[int, ResolventPiece] = {}     # shared by all j < k
        for j in range(k + 1):
            inner = shells[j]
            if inner.size == 0:
                continue
            if j < k:
                norm = _separated_pair_norm(kernel, anchors, fh, inner, runs)
                converged = True
            else:
                w = np.zeros(len(x))
                w[inner] = fh[inner]
                # each term need only be a lower bound: a loose budget
                est = weighted_opnorm(solver, z, w, w, rng=rng, tol=1e-4,
                                      maxiter=40)
                norm, converged = est.lower, est.converged
                diagonal_runs += 1
                unconverged += not converged
            val = norm / math.sqrt(radii[j] * radii[k])
            if val > lower:
                lower = val
                best_pair = (j + 1, k + 1)
                lower_converged = converged

    upper = 2.0 * block_sup
    if lower > upper * (1 + 1e-6):
        raise AssertionError("shell-space bracket inverted")
    return BesovEstimate(lower=lower, upper=upper, block_sup=block_sup, z=z,
                         details={"best_shell_pair": best_pair,
                                  "lower_converged": lower_converged,
                                  "diagonal_pair_runs": diagonal_runs,
                                  "unconverged_pair_runs": unconverged})


def _separated_pair_norm(kernel: TridiagonalResolvent, anchors: dict, fh,
                         rows, runs) -> float:
    """Exact ||F R[rows, cols] F|| when no column run meets the rows' span.

    ``runs`` lists the [first, last] runs of cols.  Rows from an inner
    shell and columns from an outer one satisfy the condition, since
    grid nodes ascend.  For a run wholly before (after) the rows,
    anchored at its edge a nearest them, R[i, c] = R[i, a] R[a, c] / R[a, a]:
    the run's block is rank one.  The runs have disjoint supports, so
    the norm is the spectral norm of the rows x runs matrix of anchor
    columns scaled by the runs' ratio-vector norms.  ``anchors`` caches
    the anchor columns by index.
    """
    factors = []
    for c0, c1 in runs:
        if c0 <= rows[-1] and c1 >= rows[0]:
            raise ValueError("shell pair is not separated")
        a = c1 if c1 < rows[0] else c0
        if a not in anchors:
            anchors[a] = kernel.piece(a, a)
        anchor = anchors[a]
        ratio = (anchor.rows(np.arange(c0, c1 + 1))[:, 0] * fh[c0:c1 + 1]
                 / anchor.block[0, 0])
        factors.append(anchor.rows(rows)[:, 0] * fh[rows]
                       * np.linalg.norm(ratio))
    return float(np.linalg.norm(np.column_stack(factors), 2))


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


def hoelder_estimate(operator, s: float, pairs, grid,
                     s0: float | None = None,
                     gamma: float | None = None,
                     rng: np.random.Generator | None = None) -> HoelderReport:
    """Difference norms ||T(z1) - T(z2)|| for T(z) = <x>^{-s} R(z) <x>^{-s}.

    Fits the growth exponent of the difference norm against the pair
    distance and reports the sup quotient at that exponent (or at a
    caller-supplied one, so runs on different grids stay comparable).
    Pairs with s <= s0 are still evaluated but flagged out of
    hypothesis.
    """
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 sector pairs")
    rng = rng or np.random.default_rng(0)
    w = bracket(grid.nodes) ** (-s)
    rows = []
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

        est = operator_norm_lower(matvec, rmatvec, len(w), rng=rng,
                                  tol=1e-6, maxiter=120)
        rows.append((z1, z2, dist, est.lower))
    dists = np.array([r[2] for r in rows if r[2] > 0])
    norms = np.array([r[3] for r in rows if r[2] > 0])
    good = norms > 0
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
        in_hypothesis=(s0 is None or s > s0))


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
        operator = _as_sparse(operator).conj()
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

def mourre_resolvent(h_op: DiscreteOperator, a_op: DiscreteOperator,
                     z: complex, eps: float) -> ShiftedSolver:
    """Factorize H - i eps i[H, A] - z, defined for eps Im z > 0.

    The commutator is formed as the discrete product i (H A - A H),
    which is real symmetric for a real H and the symmetrized dilation
    generator, so the regularized operator stays complex symmetric.
    """
    if eps * z.imag <= 0:
        raise ValueError("regularization requires eps Im z > 0")
    hm, am = h_op.matrix, a_op.matrix
    comm = 1j * (hm @ am - am @ hm)
    reg = hm - 1j * eps * comm
    return ShiftedSolver(reg, z)


@dataclass
class QuadraticReport:
    rows: list                  # dicts with z, eps, probe, lhs, rhs, q
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


def quadratic_check(h_op: DiscreteOperator, a_op: DiscreteOperator,
                    model: PotentialModel, grid, z_values, eps_values,
                    rng: np.random.Generator | None = None) -> QuadraticReport:
    """Evaluate ||f R_z(eps) T||^2 <= C |eps|^{-1} ||T* R_z(eps) T||.

    Probes: T = f^{1/2} <x>^{-s} (diagonal, s = s0 + 0.05, weight
    constant K = 1) and T = f <A>^{-1}, the second applied through the
    eigendecomposition of the dilation generator.  Reports q = LHS |eps| / RHS per (z, eps, probe) and
    the sup per probe; the estimate predicts q bounded by a constant
    depending only on the sector opening.
    """
    rng = rng or np.random.default_rng(0)
    x = grid.nodes
    s = model.s0 + 0.05
    avals, avecs = dilation_eigenbasis(a_op)
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
            return f * (avecs @ (ainv * (avecs.conj().T @ u)))

        def t_dil_adj(u):
            return avecs @ (ainv * (avecs.conj().T @ (f * u)))

        probes = {
            "f12_bracket": (t_diag, t_diag),
            "f_dilation": (t_dil, t_dil_adj),
        }
        for eps in eps_values:
            solver = mourre_resolvent(h_op, a_op, z, eps)
            for name, (t_fwd, t_adj) in probes.items():
                def lhs_mv(u, t_fwd=t_fwd, solver=solver):
                    return f * solver.solve(t_fwd(u))

                def lhs_rmv(w, t_adj=t_adj, solver=solver):
                    return t_adj(solver.solve_adjoint(f * w))

                lhs = operator_norm_lower(lhs_mv, lhs_rmv, len(x), rng=rng,
                                          tol=1e-4, maxiter=100).lower

                def rhs_mv(u, t_fwd=t_fwd, t_adj=t_adj, solver=solver):
                    return t_adj(solver.solve(t_fwd(u)))

                def rhs_rmv(w, t_fwd=t_fwd, t_adj=t_adj, solver=solver):
                    return t_adj(solver.solve_adjoint(t_fwd(w)))

                rhs = operator_norm_lower(rhs_mv, rhs_rmv, len(x), rng=rng,
                                          tol=1e-4, maxiter=100).lower
                q = (lhs**2) * abs(eps) / rhs if rhs > 0 else math.inf
                rows.append({"z": z, "eps": eps, "probe": name,
                             "lhs": lhs, "rhs": rhs, "q": q})
                constants[name] = max(constants.get(name, 0.0), q)
    return QuadraticReport(rows=rows, constants=constants)
