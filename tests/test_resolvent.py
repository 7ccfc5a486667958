import cmath
import math
import weakref

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (free_resolvent_gaussian, free_resolvent_kernel,
                      lattice_free_kernel)
from lapkit.besov import (ShellScheme, Stream, bstar_norm_dense, loglog_slope,
                          schur_block_bound, unit_blocks)
from lapkit.config import parse_config_text
from lapkit.errors import SolverError
from lapkit.experiments import run_lap_sweep
from lapkit.operators import (BandMatrix, Grid1D, RadialGrid, build_dilation,
                              build_hamiltonian, commutator_residual,
                              gaussian_probe, matched_absorber)
from lapkit.potential import (WeightParams, bracket, coulomb_model,
                              standard_model, virial_w, weight_f)
from lapkit.resolvent import (BACKWARD_TOL, LADDER_STEPS, LADDER_TOL, LANCZOS_STEPS,
                              RAY, ShiftedSolver, TridiagonalResolvent,
                              _band_lu, _block_norm, _block_sup,
                              _diagonal_shell_pairs, _frobenius_norms,
                              _schur_bands, _separated_pairs,
                              _shell_inverse, besov_bstar_estimate,
                              boundary_value, hoelder_estimate, mourre_resolvent,
                              operator_norm_lower, quadratic_check,
                              spectral_distance, spectral_free_solve,
                              weighted_opnorm)

MODEL = standard_model(1.0, 1.0, 1)
Z0 = 0.5 + 0.5j
# the diagonals of a complex-symmetric band of width 2, outermost first:
# a BandMatrix refuses them, so no solver or kernel is handed one
PENTADIAGONAL = [np.full(6, 0.5), np.full(7, 1.0), np.full(8, 4.0 + 1j),
                 np.full(7, 1.0), np.full(6, 0.5)]
# the boundary-value ladder's weight exponent, s0 + 0.05
WEIGHT_S = MODEL.s0 + 0.05


def sweep_weight(z, grid):
    """The sweep's weight f at lambda = |z|, K = 1 and the model's mu."""
    return weight_f(WeightParams(abs(z), 1.0, MODEL.mu), grid.nodes)


# ---------------------------------------------------------------------------
# sector
# ---------------------------------------------------------------------------

# the unit on the bisector of the sector arg z in (0, 3 pi / 4), written
# out: every sweep point and ladder rung built from RAY keeps these bits
BISECTOR = cmath.exp(1j * (0.75 * math.pi / 2.0))


def test_sweep_points_and_ladder_rungs_keep_their_bits(monkeypatch):
    assert 0.0 < cmath.phase(RAY) < 0.75 * math.pi
    # every lap-sweep point, at the default moduli and at the bound 1
    cfg = parse_config_text("[grid]\nlength = 20.0\nsize = 128\n"
                            "[sector]\nmoduli = 1e-4, 1e-3, 1, 1e-2, 1e-1\n")
    rows = run_lap_sweep(cfg).artifacts["csv_rows"]
    assert ([complex(row["re_z"], row["im_z"]) for row in rows[::3]]
            == [m * BISECTOR for m in (1.0, 1e-1, 1e-2, 1e-3, 1e-4)])
    # every rung of the ray ladder, kept from converging
    rungs = []

    def recording(operator, z):
        rungs.append(z)
        return ShiftedSolver(operator, z)

    monkeypatch.setattr("lapkit.resolvent.ShiftedSolver", recording)
    monkeypatch.setattr("lapkit.resolvent.LADDER_TOL", 0.0)
    grid = Grid1D(20.0, 128)
    res = boundary_value(build_hamiltonian(MODEL, grid), gaussian_probe(grid),
                         grid, WEIGHT_S)
    assert not res.converged
    assert rungs == res.z_values == [1.0 * 0.5**k * BISECTOR for k in range(24)]


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def test_solve_residual_contract(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    solver = ShiftedSolver(h_op, Z0)
    u = solver.solve(v)
    assert solver.residual(u, v) <= BACKWARD_TOL


def test_solve_conjugation_symmetry(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    u = ShiftedSolver(h_op, Z0).solve(v)
    u_bar = ShiftedSolver(h_op, np.conj(Z0)).solve(np.conj(v))
    assert np.allclose(np.conj(u_bar), u, atol=1e-10 * np.linalg.norm(u))


def test_first_resolvent_identity(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for z1, z2 in [(0.3 + 0.4j, 0.05 + 0.2j), (0.9 + 0.05j, 0.01 + 0.01j)]:
        r1, r2 = ShiftedSolver(h_op, z1).solve, ShiftedSolver(h_op, z2).solve
        lhs = r1(v) - r2(v)
        rhs = (z1 - z2) * r1(r2(v))
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
    # the fixed-point form against z = i
    zi = 1j
    z = 0.2 + 0.3j
    r, ri = ShiftedSolver(h_op, z).solve, ShiftedSolver(h_op, zi).solve
    lhs = r(v)
    rhs = ri(v) + (z - zi) * r(ri(v))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


def test_solve_raises_on_a_perturbed_first_solve(rng):
    # a first solve that is off by 1e-6 is refused at once, with no second solve
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    solver = ShiftedSolver(h_op, Z0)
    lu, calls = solver._lu, []

    def off(rhs):
        calls.append(rhs)
        return lu(rhs) * (1.0 + 1e-6)

    solver._lu = off
    with pytest.raises(SolverError) as raised:
        solver.solve(v)
    assert str(raised.value).startswith(f"solve at z = {Z0} has backward error ")
    assert len(calls) == 1


def test_solve_raises_when_every_solve_is_doubled(rng):
    # every solve doubled: r = -v, a backward error far above BACKWARD_TOL
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    solver = ShiftedSolver(h_op, Z0)
    lu = solver._lu
    solver._lu = lambda rhs: 2.0 * lu(rhs)
    with pytest.raises(SolverError, match="backward error"):
        solver.solve(v)


def test_singular_shift_reported():
    with pytest.raises(SolverError):
        ShiftedSolver(BandMatrix([np.zeros(2), [1.0, 2.0, 3.0], np.zeros(2)]), 2.0)


def _check_against_dense(solver, rng):
    """solve and solve_adjoint against inv(M - z), backward errors within BACKWARD_TOL."""
    n = solver.shape[0]
    dense = sla.inv(solver.matrix.toarray() - solver.z * np.eye(n))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = solver.solve(v)
    assert np.linalg.norm(u - dense @ v) <= 1e-12 * np.linalg.norm(dense @ v)
    assert solver.residual(u, v) <= BACKWARD_TOL
    w = solver.solve_adjoint(v)
    ref = dense.conj().T @ v
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_banded_solver_at_smallest_sizes(n, rng):
    off = rng.standard_normal(n - 1)
    h_op = BandMatrix([off, rng.standard_normal(n), off])
    _check_against_dense(ShiftedSolver(h_op, Z0), rng)


def test_banded_solver_on_mourre_operator(rng):
    grid = Grid1D(20.0, 128)
    solver = mourre_resolvent(build_hamiltonian(MODEL, grid), MODEL, grid, Z0, 0.1)
    offsets = np.unique(np.subtract(*np.nonzero(solver.matrix.toarray())))
    assert offsets.tolist() == [-1, 0, 1]
    _check_against_dense(solver, rng)


def test_shifted_solver_rejects_non_symmetric_operator():
    op = BandMatrix([[1.0, 1.0], [2.0, 3.0, 4.0], [1.0, 5.0]])
    with pytest.raises(ValueError, match="complex symmetric"):
        ShiftedSolver(op, Z0)


def test_shifted_solver_rejects_pentadiagonal_operator(rng):
    with pytest.raises(ValueError, match="values to unpack"):
        ShiftedSolver(BandMatrix(PENTADIAGONAL), Z0)
    # its inner three diagonals are a tridiagonal the solver factors
    _check_against_dense(ShiftedSolver(BandMatrix(PENTADIAGONAL[1:4]), Z0), rng)


@pytest.mark.parametrize("idx", [[5], [3, 4, 6, 7], [0, 2], [13, 15]])
def test_shell_inverse_of_one_node_shell_and_gap(idx):
    # R[S, S]^{-1} for a shell of one node and for gaps of one node,
    # at either end of the grid too
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 16))
    idx = np.array(idx)
    diag, off = _shell_inverse(TridiagonalResolvent(h_op, Z0), idx)
    schur = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    dense = sla.inv(h_op.toarray() - Z0 * np.eye(16))
    ref = sla.inv(dense[np.ix_(idx, idx)])
    assert np.linalg.norm(schur - ref) <= 1e-12 * np.linalg.norm(ref)


def test_spectral_free_solve_matches_continuum_kernel():
    # interior match of the FFT free resolvent against the closed-form
    # convolution of the kernel with a Gaussian source
    grid = Grid1D(60.0, 4096)
    width = 2.0
    v = np.exp(-grid.nodes**2 / (2.0 * width**2)).astype(complex)
    u = spectral_free_solve(grid, Z0, v)
    exact = free_resolvent_gaussian(Z0, grid.nodes, width)
    interior = np.abs(grid.nodes) <= 30.0
    err = np.abs(u - exact)[interior] / np.abs(exact)[interior]
    assert np.max(err) <= 1e-6


def test_stencil_solve_matches_lattice_kernel():
    # the second-order stencil has its own exact kernel through the
    # lattice dispersion; the sparse solver must reproduce it
    grid = Grid1D(60.0, 2048)
    h = grid.spacing
    h_op = build_hamiltonian(None, grid)
    j = grid.size // 2
    v = np.zeros(grid.size, dtype=complex)
    v[j] = 1.0 / h
    u = ShiftedSolver(h_op, Z0).solve(v)
    i = np.arange(grid.size)
    exact = lattice_free_kernel(Z0, h, i, j)
    interior = np.abs(grid.nodes) <= 30.0
    err = np.abs(u - exact)[interior] / np.abs(exact)[interior]
    assert np.max(err) <= 1e-8


def test_continuum_kernel_normalization():
    # independent consistency of the two oracle forms
    z = 0.3 + 0.2j
    x = np.linspace(-5, 5, 11)
    vals = free_resolvent_kernel(z, x, 0.0)
    k = cmath.sqrt(z)
    assert vals[5] == pytest.approx(1j / (2 * k), rel=1e-12)


# ---------------------------------------------------------------------------
# norm estimates
# ---------------------------------------------------------------------------

def test_power_iteration_against_dense_svd(rng):
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    wl = np.exp(-np.abs(grid.nodes) / 8.0)
    dense = np.diag(wl) @ sla.inv(h_op.toarray() - Z0 * np.eye(256)) @ np.diag(wl)
    top = sla.svdvals(dense)[0]
    est = weighted_opnorm(h_op, Z0, wl, wl, rng=rng)
    assert est.lower == pytest.approx(top, rel=1e-9)
    assert est.lower <= top * (1 + 1e-9)


def _norm_case(shape):
    """(matvec, rmatvec, dense) for the operator shapes the callers build."""
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    x = grid.nodes
    z = 0.1 * cmath.exp(3j * math.pi / 8)
    w = bracket(x) ** (-(MODEL.s0 + 0.05))

    def inverse(op, z):
        return sla.inv(op.toarray() - z * np.eye(len(x)))

    if shape == "weighted":
        w = w * np.sqrt(weight_f(WeightParams(abs(z), 1.0, MODEL.mu), x))
        solver = ShiftedSolver(h_op, z)
        return (lambda u: w * solver.solve(w * u),
                lambda v: w * solver.solve_adjoint(w * v),
                w[:, None] * inverse(h_op, z) * w)
    if shape == "difference":
        z2 = 0.7 * z
        s1, s2 = ShiftedSolver(h_op, z), ShiftedSolver(h_op, z2)
        return (lambda u: w * (s1.solve(w * u) - s2.solve(w * u)),
                lambda v: w * (s1.solve_adjoint(w * v) - s2.solve_adjoint(w * v)),
                w[:, None] * (inverse(h_op, z) - inverse(h_op, z2)) * w)
    f = weight_f(WeightParams(abs(z), 1.0, MODEL.mu), x)
    t = np.sqrt(f) * w
    solver = mourre_resolvent(h_op, MODEL, grid, z, 0.16)
    return (lambda u: f * solver.solve(t * u),
            lambda v: t * solver.solve_adjoint(f * v),
            f[:, None] * inverse(solver.matrix, z) * t)


@pytest.mark.parametrize("shape", ["weighted", "difference", "mourre"])
def test_operator_norm_matches_dense_svd(shape):
    # W R W, W (R(z1) - R(z2)) W and f R_eps T, as the sweep, the Hoelder
    # probe and the quadratic estimate build them
    matvec, rmatvec, dense = _norm_case(shape)
    top = sla.svdvals(dense)[0]
    est = operator_norm_lower(matvec, rmatvec, dense.shape[0], Stream(0))
    assert est.lower == pytest.approx(top, rel=1e-9)
    assert est.lower <= top * (1 + 1e-9)
    assert est.converged


def test_operator_norm_on_small_matrices():
    # diag(1, 1, 0.2)^2 has two distinct eigenvalues, so every Krylov
    # space is at most two-dimensional and Lanczos breaks down after two
    # steps with the exact top
    mat = np.diag([1.0, 1.0, 0.2])
    est = operator_norm_lower(lambda u: mat @ u, lambda w: mat.T @ w, 3, Stream(0))
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.converged
    assert est.iterations == 2
    zero = np.zeros((3, 3))
    est = operator_norm_lower(lambda u: zero @ u, lambda w: zero @ w, 3, Stream(0))
    assert est.lower == 0.0
    assert est.converged


def test_zero_weights_trivial():
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    est = weighted_opnorm(h_op, Z0, np.zeros(128), np.ones(128), Stream(0))
    assert est.lower == 0.0


def test_unweighted_norm_is_inverse_distance(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    eigs = sla.eigvalsh(h_op.toarray())
    dist = np.min(np.abs(eigs - Z0))
    est = weighted_opnorm(h_op, Z0, np.ones(128), np.ones(128), rng=rng)
    assert est.lower == pytest.approx(1.0 / dist, rel=1e-9)


@pytest.mark.parametrize("model", [MODEL, None], ids=["standard", "free"])
@pytest.mark.parametrize("unit", [RAY, cmath.exp(0.01j)],
                         ids=["default-ray", "near-real-axis"])
def test_spectral_distance_matches_dense_spectrum(model, unit):
    # 1 / dist(z, spectrum) is the plain resolvent norm; bisection on a
    # window around Re z gives the distance to the dense spectrum's
    h_op = build_hamiltonian(model, Grid1D(20.0, 256))
    eigs = sla.eigvalsh(h_op.toarray())
    for z in (m * unit for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        exact = np.min(np.abs(eigs - z))
        assert spectral_distance(h_op, z) == pytest.approx(exact, rel=1e-9)


@pytest.mark.parametrize("grid", [Grid1D(400.0, 4096), Grid1D(800.0, 8192)],
                         ids=["desk-N4096", "desk-N8192"])
def test_spectral_distance_bisects_the_nearest_eigenvalue_nearly_alone(grid, monkeypatch):
    # the first window, half-width Im z / 256, widens fourfold until it
    # holds an eigenvalue: on the desk box every z of the sweep bisects at
    # most two (a window of half-width Im z / 16 bisected 7 and 14 at
    # |z| = 1e-1), and the distance is the one a wide window gives
    import lapkit.resolvent as resolvent
    from lapkit._lapack import dstebz

    h_op = build_hamiltonian(MODEL, grid)
    main, off = h_op.main.real, h_op.upper.real
    found = []

    def counting(*args):
        vals = dstebz(*args)
        found.append(vals.size)
        return vals

    # every Re z lies in (0, 0.04), and this window holds eigenvalues at
    # most 0.05 apart from below -0.05 to above 0.09: each z's nearest
    wide = dstebz(main, off, -0.1, 0.2)
    assert wide[0] < -0.05 and wide[-1] > 0.09 and np.max(np.diff(wide)) < 0.05
    monkeypatch.setattr(resolvent, "dstebz", counting)
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        found.clear()
        distance = spectral_distance(h_op, z)
        assert 1 <= sum(found) <= 2, (z, found)
        assert distance == pytest.approx(np.min(np.hypot(wide - z.real, z.imag)), rel=1e-12)


def test_spectral_distance_rejects_non_real_tridiagonal():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    with pytest.raises(ValueError, match="real"):
        spectral_distance(h_op + matched_absorber(grid, mu=1.0, kappa=1.0), Z0)


def _check_bracket(grid, z):
    h_op = build_hamiltonian(MODEL, grid)
    est = besov_bstar_estimate(ShiftedSolver(h_op, z), sweep_weight(z, grid), grid)
    fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
    dense = fh[:, None] * sla.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    exact = bstar_norm_dense(dense, np.abs(grid.nodes))
    assert est.lower <= exact * (1 + 1e-6)
    assert exact <= est.upper * (1 + 1e-6)
    assert est.lower >= 0.5 * exact      # the shell-pair probe is tight
    # the solve-based upper bound is twice the dense unit-block sup
    block_sup = schur_block_bound(dense, np.abs(grid.nodes))
    assert est.upper == pytest.approx(2.0 * block_sup, rel=1e-12)


def test_besov_estimate_brackets_dense_norm():
    _check_bracket(Grid1D(20.0, 128), Z0)


def test_besov_estimate_brackets_dense_norm_at_desk_spacing():
    # the desk grids' spacing h = 0.1953, at a low energy on the default ray
    _check_bracket(Grid1D(100.0, 1024), 1e-3 * RAY)


@pytest.mark.parametrize("model, grid", [
    (MODEL, Grid1D(20.0, 256)),
    (standard_model(1.0, 1.0, 3), RadialGrid(20.0, 256, dim=3)),
])
def test_kernel_columns_match_dense_inverse(model, grid):
    # every column, read off the log-domain generators with no solve,
    # is the same column of the dense inverse
    h_op = build_hamiltonian(model, grid)
    n = grid.size
    every = np.arange(n)
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        dense = sla.inv(h_op.toarray() - z * np.eye(n))
        cols = TridiagonalResolvent(h_op, z).entries(every[:, None], every)
        err = np.linalg.norm(cols - dense, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(dense, axis=0))


def _mirror_free_image_sum(h_op, z):
    """(theta, D) of the free kernel's periodized lattice sum
    S(m) = (e^{-m theta} + e^{-(P - m) theta}) / D, P = 2N.

    The mirror closure puts antisymmetric walls half a cell beyond the
    end nodes, so with 1-based i and j the images give
    G(i, j) = S(i - j) - S(i + j - 1), where D = b 2 sinh(theta) (1 - e^{-P theta})
    and cosh(theta) = a / (2b) with Re theta > 0.  Here b = -H[0, 1] and
    a = H[1, 1] - z, the shifted interior diagonal as stored; a - 2b is
    exact (Sterbenz), so theta = 2 asinh(sqrt((a - 2b) / (4b))) sees the
    z of the stored matrix and not the rounded z h^2.
    """
    n = h_op.shape[0]
    a, b = h_op.main[1] - z, -h_op.upper[0]
    theta = 2.0 * np.arcsinh(np.sqrt((a - 2.0 * b) / (4.0 * b)))
    return theta, b * 2.0 * np.sinh(theta) * -np.expm1(-2 * n * theta)


def mirror_free_kernel(h_op, z, i, j):
    """G(i, j) of (H - z)^{-1} for the free H, in closed form, for 1-based
    index arrays that broadcast against each other."""
    p = 2 * h_op.shape[0]
    theta, d = _mirror_free_image_sum(h_op, z)

    def s(m):
        return (np.exp(-m * theta) + np.exp(-(p - m) * theta)) / d

    return s(np.abs(i - j)) - s(i + j - 1)


def mirror_free_factors(h_op, z, fh, rows, cols, before):
    """(U, W, D) with diag(fh) G[rows, cols] diag(fh) = U W^T / D for the
    closed-form G of ``mirror_free_kernel``, with 0-based nodes; ``before``
    marks the columns before every row, and every other column must lie
    after every row.

    With t = e^{-theta}, each image term is a product of powers of t in
    i and in j: G(i, j) D = t^i w_1(j) + t^-i w_2(j), where for j < i
    w = (t^-j - t^(j-1), t^(P+j) - t^(P+1-j)) and for j > i
    w = (t^(P-j) - t^(j-1), t^j - t^(P+1-j)).  So the block is U W^T with
    two columns each.
    """
    p = 2 * h_op.shape[0]
    theta, d = _mirror_free_image_sum(h_op, z)

    def t(k):
        return np.exp(-k * theta)

    i, j = rows + 1, cols + 1
    u = fh[rows, None] * np.column_stack((t(i), t(-i)))
    w = fh[cols, None] * np.where(
        before[:, None],
        np.column_stack((t(-j) - t(j - 1), t(p + j) - t(p + 1 - j))),
        np.column_stack((t(p - j) - t(j - 1), t(j) - t(p + 1 - j))))
    return u, w, d


def mirror_free_block_norm(h_op, z, fh, rows, cols):
    """||diag(fh) G[rows, cols] diag(fh)|| for every column before or after
    every row, without forming the block: the norm of R_U R_W^T / D from
    the thin QRs of ``mirror_free_factors``."""
    u, w, d = mirror_free_factors(h_op, z, fh, rows, cols, cols < rows[0])
    r_u, r_w = np.linalg.qr(u, mode="r"), np.linalg.qr(w, mode="r")
    return np.linalg.norm(r_u @ r_w.T, 2) / abs(d)


@pytest.mark.parametrize("grid", [Grid1D(400.0, 4096), Grid1D(800.0, 8192)],
                         ids=["desk", "doubled"])
def test_free_resolvent_matches_closed_form_at_desk_scale(grid):
    # the free H on the desk grid and its doubled box: sampled whole
    # columns of the kernel against the image-sum closed form (at most
    # 1.1e-12 of the column max over 64 columns per z), and the
    # distance to the spectrum 4b sin^2(k pi / 2N), k = 1..N, within the
    # bisection bound eps ||H||_1 / Im z relative
    h_op = build_hamiltonian(None, grid)
    n = grid.size
    b = -h_op.upper[0]
    spectrum = 4.0 * b * np.sin(np.arange(1, n + 1) * math.pi / (2 * n)) ** 2
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        kernel = TridiagonalResolvent(h_op, z)
        for j in (1, n // 4, n // 2 + 1, n):
            exact = mirror_free_kernel(h_op, z, np.arange(1, n + 1), j)
            err = np.max(np.abs(kernel.entries(np.arange(n), j - 1) - exact))
            assert err <= 5e-12 * np.max(np.abs(exact))
        # ||H||_1 = 4b: each column sums to 2b + b + b, or 3b + b at an end
        bound = np.finfo(float).eps * 4.0 * b / z.imag
        exact = np.min(np.abs(spectrum - z))
        assert abs(spectral_distance(h_op, z) - exact) <= bound * exact


def test_separated_shell_pairs_match_the_closed_form_at_desk_scale():
    # every separated shell pair of the free H at N = 4096, |z| = 1e-1
    # and 1e-4 with the sweep's weight, against the closed form's block
    # norms: at most 1.7e-13 relative (3.3e-13 at 1e-2), the level at
    # which the kernel and a certified solve agree (5.9e-13), so 1e-12;
    # where a block has at most 1e5 entries it is also formed and its
    # 2-norm taken by SVD, which the factored norm matches to 1.5e-15
    grid = Grid1D(400.0, 4096)
    h_op = build_hamiltonian(None, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    shell_of, radii = ShellScheme(2.0).shell_indices(absx)
    shells = [np.flatnonzero(shell_of == k) for k in range(len(radii))]
    inner, outer = np.triu_indices(len(radii), 1)
    for z in (1e-1 * RAY, 1e-4 * RAY):
        f = sweep_weight(z, grid)
        fh = np.sqrt(f)
        norms, _ = _separated_pairs(TridiagonalResolvent(h_op, z), f, shell_of,
                                    len(radii), center)
        got = norms(inner, outer)
        for p, q, value in zip(inner, outer, got):
            rows, cols = shells[p], shells[q]
            exact = mirror_free_block_norm(h_op, z, fh, rows, cols)
            assert abs(value / exact - 1) <= 1e-12, (p, q)
            if rows.size * cols.size <= 10**5:
                block = (fh[rows, None] * fh[cols]
                         * mirror_free_kernel(h_op, z, rows[:, None] + 1, cols + 1))
                assert abs(np.linalg.norm(block, 2) / exact - 1) <= 1e-14, (p, q)


def test_block_sup_matches_the_closed_form_at_desk_scale():
    # the unit-block sup of the free H at N = 4096, |z| = 1e-1 and 1e-4
    # with the sweep's weight, against the max over every pair p <= q of
    # the closed form's block norms: each diagonal block (10 to 12 nodes)
    # formed, each separated pair from the rank-2 factors, batched per
    # block row through stacked thin QRs.  A diagonal block sets the sup
    # at both moduli, so every diagonal block and every row's separated
    # max are compared too.  Worst agreement over |z| = 1e-1 to 1e-4:
    # 2.6e-13 (diagonal blocks) and 2.3e-13 (row maxima), at 1e-4; the
    # kernel and a certified solve agree to 5.9e-13, so 1e-12
    grid = Grid1D(400.0, 4096)
    h_op = build_hamiltonian(None, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    labels, blocks = unit_blocks(absx)
    count, every = len(blocks), np.arange(grid.size)
    sizes = np.bincount(labels)
    filled = np.arange(sizes.max()) < sizes[:, None]
    padded = np.zeros(filled.shape, dtype=int)
    padded[filled] = np.concatenate(blocks)
    for z in (1e-1 * RAY, 1e-4 * RAY):
        f = sweep_weight(z, grid)
        fh = np.sqrt(f)
        kernel = TridiagonalResolvent(h_op, z)
        # every node of a block q > p lies before block p's nodes exactly
        # when it lies before the center, which every block's span holds
        u, w, d = mirror_free_factors(h_op, z, fh, every, every, every < center)
        r_u, r_w = (np.linalg.qr(np.where(filled[..., None], x[padded], 0.0), mode="r")
                    for x in (u, w))
        norms, _ = _separated_pairs(kernel, f, labels, count, center)
        exact = 0.0
        for p, block in enumerate(blocks):
            diagonal = np.linalg.norm(fh[block, None] * fh[block] * mirror_free_kernel(
                h_op, z, block[:, None] + 1, block + 1), 2)
            sub = kernel.entries(block[:, None], block) * fh[block, None] * fh[block]
            assert abs(np.linalg.norm(sub, 2) / diagonal - 1) <= 1e-12, p
            exact = max(exact, diagonal)
            if p < count - 1:
                pairs = np.linalg.svd(r_u[p] @ np.swapaxes(r_w[p + 1:], 1, 2),
                                      compute_uv=False)[:, 0].max() / abs(d)
                got = norms(np.full(count - p - 1, p), np.arange(p + 1, count)).max()
                assert abs(got / pairs - 1) <= 1e-12, p
                exact = max(exact, pairs)
        assert abs(_block_sup(kernel, f, labels, blocks, center) / exact - 1) <= 1e-12


def test_block_norms_and_frobenius_bounds_at_desk_scale():
    # every diagonal unit block at N = 4096 and the sweep's four moduli:
    # the zhetrd + dstevd norm against eigvalsh of the same Gram (worst
    # 6.7e-16), and the one-pass Frobenius norm against the dense one
    # (worst 4.4e-16), at least the block's 2-norm as pruning needs
    grid = Grid1D(400.0, 4096)
    h_op = build_hamiltonian(MODEL, grid)
    labels, blocks = unit_blocks(np.abs(grid.nodes))
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        kernel, f = TridiagonalResolvent(h_op, z), sweep_weight(z, grid)
        frobenius = _frobenius_norms(kernel, f, labels, blocks)
        for block, bound in zip(blocks, frobenius):
            fh = np.sqrt(f[block])
            sub = kernel.entries(block[:, None], block) * fh[:, None] * fh
            exact = math.sqrt(np.linalg.eigvalsh(sub.conj().T @ sub)[-1])
            assert abs(_block_norm(kernel, fh, block) / exact - 1) <= 1e-14, block
            assert abs(bound / np.linalg.norm(sub) - 1) <= 1e-12, block
            assert bound >= np.linalg.norm(sub, 2)


def test_kernel_rejects_pentadiagonal_operator():
    # the shell-space bracket reads its kernel off the solver's matrix,
    # so neither is ever handed a band of width 2
    grid = Grid1D(20.0, 8)
    with pytest.raises(ValueError, match="values to unpack"):
        TridiagonalResolvent(BandMatrix(PENTADIAGONAL), Z0)
    with pytest.raises(ValueError, match="values to unpack"):
        besov_bstar_estimate(ShiftedSolver(BandMatrix(PENTADIAGONAL), Z0),
                             sweep_weight(Z0, grid), grid)
    # its inner three diagonals give the kernel the dense inverse
    inner = BandMatrix(PENTADIAGONAL[1:4])
    every = np.arange(8)
    dense = sla.inv(inner.toarray() - Z0 * np.eye(8))
    kernel = TridiagonalResolvent(inner, Z0).entries(every[:, None], every)
    assert np.max(np.abs(kernel - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_kernel_residual_failure_raises(monkeypatch):
    # the one-pass column certificate carries a rounding allowance, so
    # no column passes an impossible tolerance
    import lapkit.resolvent as resolvent

    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    monkeypatch.setattr(resolvent, "KERNEL_RTOL", 1e-30)
    with pytest.raises(SolverError, match="residual"):
        TridiagonalResolvent(h_op, Z0)
    with pytest.raises(SolverError, match="pivot"):
        TridiagonalResolvent(BandMatrix([np.zeros(2), [1.0, 2.0, 3.0], np.zeros(2)]), 2.0)


def _pivot_recurrence(a, b):
    """d_i = a_i - b_{i-1}^2 / d_{i-1}, the two-term recurrence, in Python."""
    d = [complex(a[0])]
    for ai, bi in zip(a[1:], b):
        d.append(complex(ai) - complex(bi) ** 2 / d[-1])
    return np.array(d)


@pytest.mark.parametrize("grid", [Grid1D(20.0, 256), Grid1D(100.0, 1024)],
                         ids=["L20-N256", "L100-N1024"])
def test_kernel_pivots_match_the_recurrence(grid):
    # the scaled zgttrf calls give the unpivoted pivots of M - z, top-down
    # and bottom-up, to rounding
    h_op = build_hamiltonian(MODEL, grid)
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        kernel = TridiagonalResolvent(h_op, z)
        a, b = h_op.main - z, h_op.upper
        down, up = _pivot_recurrence(a, b), _pivot_recurrence(a[::-1], b[::-1])[::-1]
        assert np.max(np.abs(kernel.d / down - 1)) <= 1e-10
        assert np.max(np.abs(kernel.e / up - 1)) <= 1e-10


@pytest.mark.parametrize("a0", [0.0, 1e-95], ids=["zero-pivot", "forced-swap"])
def test_kernel_pivot_that_zgttrf_would_swap_raises(a0):
    # with the off-diagonal scaled by 2^-300 below and 2^300 above, zgttrf
    # swaps rows only past a pivot below 2^-300 |b|: an exact zero pivot,
    # or one that small, is a SolverError, never a pivoted factorization
    with pytest.raises(SolverError, match="pivot"):
        TridiagonalResolvent(BandMatrix([[1.0], [a0, 3.0], [1.0]]), 0.0)
    with pytest.raises(SolverError, match="pivot"):
        TridiagonalResolvent(BandMatrix([[1.0], [3.0, a0], [1.0]]), 0.0)


def _all_rows_max(kernel, f, labels, blocks, center, known=None):
    """(max diagonal block norm, max separated pair norm), every one evaluated.

    Every diagonal block's norm is taken densely, by eigvalsh of S* S.  The
    blocks within 1e-9 of the largest, the only ones that can set the max, are
    evaluated again by _block_sup's own per-block routine, which must agree, so
    the tests comparing the two with == pin the pruning alone; the routine's
    accuracy is pinned against eigvalsh separately.  ``known`` maps (block,
    weights) bytes to values the routine returned for them before."""
    dense = {}
    for p, b in enumerate(blocks):
        if b.size:
            sub = kernel.entries(b[:, None], b) * np.sqrt(f[b])[:, None] * np.sqrt(f[b])
            dense[p] = math.sqrt(max(np.linalg.eigvalsh(sub.conj().T @ sub)[-1], 0.0))
    top, diagonal = max(dense.values(), default=0.0), 0.0
    for p in (p for p, norm in dense.items() if norm >= (1 - 1e-9) * top):
        fh = np.sqrt(f[blocks[p]])
        norm = (known or {}).get((blocks[p].tobytes(), fh.tobytes()))
        norm = _block_norm(kernel, fh, blocks[p]) if norm is None else norm
        assert abs(norm - dense[p]) <= 1e-12 * top
        diagonal = max(diagonal, norm)
    norms, _ = _separated_pairs(kernel, f, labels, len(blocks), center)
    return diagonal, float(np.max(norms(*np.triu_indices(len(blocks), 1)), initial=0.0))


@pytest.mark.parametrize("grid", [Grid1D(20.0, 256), Grid1D(100.0, 1024)],
                         ids=["L20-N256", "L100-N1024"])
def test_block_sup_equals_the_all_rows_max(grid, monkeypatch):
    # the pruned sup skips only rows whose bound shows they cannot set it,
    # so it is the max over every diagonal block and separated pair to
    # the bit, for unit blocks and for shells as the groups; the all-rows
    # max takes the block norms the sup evaluated rather than evaluating
    # shells of hundreds of nodes twice
    import lapkit.resolvent as resolvent
    known = {}

    def recording(kernel, fh, block):
        known[block.tobytes(), fh.tobytes()] = norm = _block_norm(kernel, fh, block)
        return norm

    monkeypatch.setattr(resolvent, "_block_norm", recording)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    shell_of, _ = ShellScheme(2.0).shell_indices(absx)
    groupings = [unit_blocks(absx), (shell_of, ShellScheme(2.0).shells(absx)[0])]
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        kernel = TridiagonalResolvent(h_op, z)
        f = sweep_weight(z, grid)
        for labels, blocks in groupings:
            known.clear()
            sup = _block_sup(kernel, f, labels, blocks, center)
            assert sup == max(_all_rows_max(kernel, f, labels, blocks, center, known))


def test_block_sup_is_set_by_either_kind_of_pair():
    # on the bench grid a diagonal block sets the unit-block sup at |z| =
    # 1e-1 and 1e-2 and a separated pair at 1e-4; both are found exactly
    grid = Grid1D(200.0, 2048)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    labels, blocks = unit_blocks(absx)
    for m, kind in ((1e-1, "diagonal"), (1e-2, "diagonal"), (1e-4, "separated")):
        kernel = TridiagonalResolvent(h_op, m * RAY)
        f = sweep_weight(m * RAY, grid)
        diagonal, separated = _all_rows_max(kernel, f, labels, blocks, center)
        assert (diagonal > separated) == (kind == "diagonal")
        assert _block_sup(kernel, f, labels, blocks, center) == max(diagonal, separated)


def test_block_sup_finds_the_row_after_a_near_tie():
    # weight on the outer block 6 and on one node of the inner block 2:
    # the outer diagonal block's Frobenius bound puts its row first, its
    # norm lies 0.5% below the sup, and the inner row's separated pair
    # sets the sup; a stopping rule with a few percent of slack would
    # return the outer block's norm
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    labels, blocks = unit_blocks(absx)
    kernel = TridiagonalResolvent(h_op, 1e-2 * RAY)
    node, outer = blocks[2][:1], blocks[6]
    sub = kernel.entries(outer[:, None], outer)
    target = 1.005 * np.linalg.norm(sub, 2)
    # the inner row's value max(c |R_jj|, c^1/2 ||R[j, outer]||) is the target
    c = min(target / abs(kernel.entries(node, node)[0]),
            (target / np.linalg.norm(kernel.entries(node, outer))) ** 2)
    f = np.zeros(grid.size)
    f[outer], f[node] = 1.0, c
    diagonal, separated = _all_rows_max(kernel, f, labels, blocks, center)
    assert diagonal == pytest.approx(target / 1.005, rel=1e-12)
    assert separated == pytest.approx(target, rel=1e-12)
    assert np.linalg.norm(sub) > 1.02 * separated
    assert _block_sup(kernel, f, labels, blocks, center) == separated


def _dense_weighted_resolvent(h_op, grid, z):
    fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
    dense = fh[:, None] * sla.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    return fh, dense


def test_separated_shell_pairs_are_exact():
    # j != k shell pairs and different unit-block pairs have rank <= 2;
    # the 2 x 2 closed form gives the dense norm, in either orientation
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    center = int(np.argmin(absx))
    shell_of, radii = ShellScheme(2.0).shell_indices(absx)
    block_of, blocks = unit_blocks(absx)
    assert np.count_nonzero(np.bincount(shell_of)) >= 4
    for z in (Z0, 1e-3 * RAY):
        fh, dense = _dense_weighted_resolvent(h_op, grid, z)
        kernel = TridiagonalResolvent(h_op, z)
        for labels, count in ((shell_of, len(radii)), (block_of, len(blocks))):
            norms, _ = _separated_pairs(kernel, fh**2, labels, count, center)
            inner, outer = np.triu_indices(count, 1)
            groups = [np.flatnonzero(labels == p) for p in range(count)]
            for norm, p, q in zip(norms(inner, outer), inner, outer):
                for rows, cols in ((groups[p], groups[q]), (groups[q], groups[p])):
                    ref = (sla.svdvals(dense[np.ix_(rows, cols)])[0]
                           if rows.size and cols.size else 0.0)
                    assert norm == pytest.approx(ref, rel=1e-10)


def test_diagonal_shell_pairs_match_dense_svd():
    # one Lanczos run on the direct sum of the tridiagonal Schur
    # complements, re-evaluated through certified solves, gives the best
    # shell's own block norm over its radius, and that shell
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    shell_of, radii = ShellScheme(2.0).shell_indices(np.abs(grid.nodes))
    for z in (m * RAY for m in (1e-1, 1e-2, 1e-3, 1e-4)):
        fh, dense = _dense_weighted_resolvent(h_op, grid, z)
        k_inv = _band_lu(_schur_bands(TridiagonalResolvent(h_op, z), shell_of))
        norm, shell, steps, converged = _diagonal_shell_pairs(
            k_inv, ShiftedSolver(h_op, z), fh, shell_of, radii)
        assert converged and 1 <= steps <= LANCZOS_STEPS
        refs = []
        for j, radius in enumerate(radii):
            idx = np.flatnonzero(shell_of == j)
            refs.append(sla.svdvals(dense[np.ix_(idx, idx)])[0] / radius
                        if idx.size else 0.0)
        assert norm == pytest.approx(max(refs), rel=1e-10)
        assert shell == int(np.argmax(refs))


def test_diagonal_shell_pairs_factor_once(monkeypatch):
    # one band LU of the whole block-diagonal K plus one per gap of a
    # shell, however many Lanczos steps the run takes
    import lapkit.resolvent as resolvent

    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    z = 1e-3 * RAY
    fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
    kernel = TridiagonalResolvent(h_op, z)
    solver = ShiftedSolver(h_op, z)
    calls = []

    def counted(bands):
        calls.append(len(bands[0]))
        return band_lu(bands)

    band_lu = resolvent._band_lu
    monkeypatch.setattr(resolvent, "_band_lu", counted)
    shell_of, radii = ShellScheme(2.0).shell_indices(np.abs(grid.nodes))
    k_inv = resolvent._band_lu(_schur_bands(kernel, shell_of))
    _, _, steps, _ = _diagonal_shell_pairs(k_inv, solver, fh, shell_of, radii)
    gaps = sum(np.count_nonzero(np.diff(np.flatnonzero(shell_of == j)) != 1)
               for j in range(len(radii)))
    assert steps > 2
    assert len(calls) == 1 + gaps
    assert calls[-1] == grid.size


def test_diagonal_shell_pairs_with_tied_shells():
    # an even potential on the symmetric box: the two half-lines as
    # shells of one radius have mirror-image blocks, so the direct sum
    # has a doubled top singular value; the run still converges, to the
    # common norm
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    halves = (grid.nodes > 0).astype(int)
    radii = np.array([4.0, 4.0])
    fh, dense = _dense_weighted_resolvent(h_op, grid, Z0)
    refs = [sla.svdvals(dense[np.ix_(idx, idx)])[0]
            for idx in (np.flatnonzero(halves == 0), np.flatnonzero(halves == 1))]
    assert refs[0] == pytest.approx(refs[1], rel=1e-12)
    norm, shell, _, converged = _diagonal_shell_pairs(
        _band_lu(_schur_bands(TridiagonalResolvent(h_op, Z0), halves)),
        ShiftedSolver(h_op, Z0), fh, halves, radii)
    assert converged
    assert norm == pytest.approx(refs[0] / 4.0, rel=1e-10)
    assert shell in (0, 1)


def test_besov_estimate_runs_one_lanczos(monkeypatch):
    # every diagonal shell pair at one z comes from a single run
    import lapkit.resolvent as resolvent

    calls = []

    def counted(*args):
        calls.append(args)
        return lanczos(*args)

    lanczos = resolvent._lanczos
    monkeypatch.setattr(resolvent, "_lanczos", counted)
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    z = 1e-3 * RAY
    est = besov_bstar_estimate(ShiftedSolver(h_op, z), sweep_weight(z, grid), grid)
    assert len(calls) == 1
    assert est.lanczos_steps > 2


def test_kernel_is_freed_before_the_diagonal_pairs_run(monkeypatch):
    # the diagonal shell pairs' Lanczos run sees only K's factors and the
    # solver: when it starts, every kernel the estimate built is freed, and
    # so are its prefix sums, which the separated pairs' closure views
    import lapkit.resolvent as resolvent

    built, alive = [], []

    class Traced(TridiagonalResolvent):
        def __init__(self, *args):
            super().__init__(*args)
            built.extend(map(weakref.ref, (self, self.log_up[0], self.log_dn[0])))

    def entered(*args):
        alive.extend(ref() is not None for ref in built)
        return lanczos(*args)

    lanczos = resolvent._lanczos
    monkeypatch.setattr(resolvent, "TridiagonalResolvent", Traced)
    monkeypatch.setattr(resolvent, "_lanczos", entered)
    grid = Grid1D(100.0, 1024)
    z = 1e-3 * RAY
    besov_bstar_estimate(ShiftedSolver(build_hamiltonian(MODEL, grid), z),
                         sweep_weight(z, grid), grid)
    assert len(built) == 3
    assert alive == [False] * 3


def test_besov_lower_is_the_shell_dual_norm():
    # every shell pair is exact, so the lower end is the shell-dual norm
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    for z in (1e-1 * RAY, 1e-3 * RAY):
        _, dense = _dense_weighted_resolvent(h_op, grid, z)
        est = besov_bstar_estimate(ShiftedSolver(h_op, z), sweep_weight(z, grid), grid)
        exact = bstar_norm_dense(dense, absx)
        assert est.lower == pytest.approx(exact, rel=1e-9)
        assert est.converged


def test_besov_estimate_runs_no_power_iteration(monkeypatch):
    import lapkit.resolvent as resolvent

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration inside the shell-space bracket")

    monkeypatch.setattr(resolvent, "operator_norm_lower", refuse)
    monkeypatch.setattr(resolvent, "weighted_opnorm", refuse)
    grid = Grid1D(20.0, 128)
    est = besov_bstar_estimate(ShiftedSolver(build_hamiltonian(MODEL, grid), Z0),
                               sweep_weight(Z0, grid), grid)
    assert 0 < est.lower <= est.upper


def test_besov_estimate_shares_a_solver(monkeypatch):
    # the sweep's one factorization of H - z serves both estimators, and
    # neither factorizes again; the estimate reads z off the solver
    import lapkit.resolvent as resolvent

    grid = Grid1D(20.0, 128)
    solver = ShiftedSolver(build_hamiltonian(MODEL, grid), Z0)

    def refuse(*args, **kwargs):
        raise AssertionError("a second factorization of H - z")

    monkeypatch.setattr(resolvent.ShiftedSolver, "__init__", refuse)
    est = besov_bstar_estimate(solver, sweep_weight(Z0, grid), grid)
    assert 0 < est.lower <= est.upper
    assert weighted_opnorm(solver, Z0, np.ones(128), np.ones(128), Stream(0)).lower > 0
    with pytest.raises(ValueError):
        weighted_opnorm(solver, 0.1j, np.ones(128), np.ones(128), Stream(0))


def test_besov_estimate_scales_linearly(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    solver = ShiftedSolver(h_op, Z0)
    fh = np.sqrt(weight_f(WeightParams(abs(Z0), 1.0, 1.0), grid.nodes))
    v = gaussian_probe(grid, width=2.0)
    once = fh * solver.solve(fh * v)
    twice = fh * solver.solve(fh * (2.0 * v))
    assert np.allclose(twice, 2.0 * once, rtol=1e-9)


# ---------------------------------------------------------------------------
# Hoelder continuity probe
# ---------------------------------------------------------------------------

def test_hoelder_zero_distance_pair(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    z = 0.2 + 0.2j
    pairs = [(z, z), (z, 0.4 + 0.1j), (0.3 + 0.3j, 0.1 + 0.2j)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs, grid, rng=rng)
    assert rep.pairs[0][3] == 0.0
    with pytest.raises(ValueError, match="at least 3"):
        hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs[:2], grid, rng=rng)


def test_hoelder_factors_once_per_distinct_z(monkeypatch, rng):
    # criterion 5's shape: chained pairs share their points, a second ray
    # pairs with the first; a zero-distance pair needs no factorization
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    zs = [0.7**k * RAY for k in range(5)]
    zs += [0.7**k * cmath.exp(1j * math.pi / 3) for k in range(3)]
    pairs = [(zs[i], zs[i + 1]) for i in range(4)] + list(zip(zs[:3], zs[5:]))
    pairs += [(zs[7], zs[7]), (0.05j, 0.05j)]
    shifts = []
    init = ShiftedSolver.__init__

    def counted(self, operator, z):
        shifts.append(z)
        init(self, operator, z)

    monkeypatch.setattr(ShiftedSolver, "__init__", counted)
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs, grid, rng=rng)
    assert shifts == zs
    assert len(rep.pairs) == len(pairs) and rep.unconverged == 0


def test_hoelder_quotients_bounded_along_ray(rng):
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    ray = 3 * math.pi / 8
    zs = [0.7**k * cmath.exp(1j * ray) for k in range(10)]
    pairs = [(zs[i], zs[i + 1]) for i in range(9)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs, grid, rng=rng)
    assert math.isfinite(rep.sup_quotient)
    assert rep.sup_quotient > 0


def test_hoelder_unconverged_pair_leaves_the_fit(monkeypatch):
    # an unconverged pair is counted and left out of the slope fit; its
    # value is still a lower bound and stays in the sup quotient
    import lapkit.resolvent as resolvent

    real = resolvent.operator_norm_lower
    calls = []

    def flaky(*args, **kwargs):
        est = real(*args, **kwargs)
        calls.append(est)
        if len(calls) == 2:
            est.converged = False
        return est

    monkeypatch.setattr(resolvent, "operator_norm_lower", flaky)
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    ray = 3 * math.pi / 8
    zs = [0.7**k * cmath.exp(1j * ray) for k in range(5)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05,
                           [(zs[i], zs[i + 1]) for i in range(4)], grid,
                           rng=Stream(0))
    assert rep.unconverged == 1
    kept = [row for i, row in enumerate(rep.pairs) if i != 1]
    assert rep.fitted_gamma == pytest.approx(loglog_slope(
        [row[2] for row in kept], [row[3] for row in kept]), rel=1e-12)
    dropped = rep.pairs[1]
    assert rep.sup_quotient >= dropped[3] / dropped[2] ** rep.fitted_gamma


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def test_boundary_value_zero_source():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    res = boundary_value(h_op, np.zeros(128), grid, WEIGHT_S)
    assert res.converged
    assert np.all(res.u == 0.0)


def test_boundary_value_unconverged_returns_its_last_iterate(monkeypatch):
    # three rungs do not reach the tolerance: the last solve is returned
    # with the ladder of its two differences
    grid = Grid1D(100.0, 1024)
    full = build_hamiltonian(MODEL, grid) + matched_absorber(grid, mu=1.0, kappa=1.0)
    v = gaussian_probe(grid, width=2.0)
    monkeypatch.setattr("lapkit.resolvent.LADDER_STEPS", 3)
    res = boundary_value(full, v, grid, WEIGHT_S)
    assert not res.converged
    assert len(res.z_values) == 3 and len(res.diffs) == 2
    assert np.array_equal(res.u, ShiftedSolver(full, res.z_values[-1]).solve(v))
    w = bracket(grid.nodes) ** (-WEIGHT_S)
    assert res.diffs[-1] > LADDER_TOL * np.linalg.norm(w * res.u)


def test_boundary_value_ladder_reaches_the_capped_solve():
    # the ladder is evidence for the capped solve at z = 0, the one
    # definition of the boundary value: its converged last iterate lies
    # within the tolerance of it in the weighted relative norm
    grid = Grid1D(100.0, 1024)
    full = build_hamiltonian(MODEL, grid) + matched_absorber(grid, mu=1.0, kappa=1.0)
    v = gaussian_probe(grid, width=2.0)
    res = boundary_value(full, v, grid, WEIGHT_S)
    assert res.converged
    direct = ShiftedSolver(full, 0.0).solve(v)
    w = bracket(grid.nodes) ** (-WEIGHT_S)
    assert (np.linalg.norm(w * (res.u - direct))
            <= LADDER_TOL * np.linalg.norm(w * direct))


def test_boundary_value_ladder_consistent_with_hoelder(rng, monkeypatch):
    # the operator-norm growth exponent bounds the per-step vector decay
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    cap = matched_absorber(grid, mu=1.0, kappa=1.0)
    full = h_op + cap
    v = gaussian_probe(grid, width=2.0)
    monkeypatch.setattr("lapkit.resolvent.LADDER_TOL", 1e-5)
    res = boundary_value(full, v, grid, WEIGHT_S)
    assert res.converged
    dr = np.array(res.diffs)
    geo_mean = (dr[-1] / dr[0]) ** (1.0 / (len(dr) - 1))
    zs = [0.5**k * RAY for k in range(8)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05,
                           [(zs[i], zs[i + 1]) for i in range(7)], grid, rng=rng)
    bound = 0.5 ** max(rep.fitted_gamma, 0.0)
    assert geo_mean <= bound * (1 + 1e-9)


def test_boundary_value_unabsorbed_ladder_runs_out_unconverged():
    # on the desk box without the layer the ladder rises when |z| crosses
    # the box scale (to 7.4 times its running minimum) and never reaches
    # the tolerance: it returns unconverged after every rung, with its
    # differences and its last iterate
    grid = Grid1D(400.0, 4096)
    h_op = build_hamiltonian(MODEL, grid)
    v = gaussian_probe(grid, width=2.0)
    res = boundary_value(h_op, v, grid, WEIGHT_S)
    assert not res.converged
    assert len(res.z_values) == LADDER_STEPS and len(res.diffs) == LADDER_STEPS - 1
    assert max(d / min(res.diffs[:k]) for k, d in enumerate(res.diffs) if k) > 7.0
    assert np.array_equal(res.u, ShiftedSolver(h_op, res.z_values[-1]).solve(v))
    w = bracket(grid.nodes) ** (-WEIGHT_S)
    assert res.diffs[-1] > LADDER_TOL * np.linalg.norm(w * res.u)


# ---------------------------------------------------------------------------
# commutator-regularized resolvent
# ---------------------------------------------------------------------------

def test_mourre_sign_contract():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    with pytest.raises(ValueError):
        mourre_resolvent(h_op, MODEL, grid, 0.1 + 0.1j, -0.05)
    with pytest.raises(ValueError):
        mourre_resolvent(h_op, MODEL, grid, 0.1 - 0.1j, 0.05)


def test_mourre_operator_is_the_virial_regularization():
    # H - i eps i[H, A] with i[H, A] = 2H + W, diagonal by diagonal; on a
    # smooth probe it differs from the discrete commutator's operator by
    # eps times criterion 2's residual
    grid = Grid1D(20.0, 128)
    h_op, a_op = build_hamiltonian(MODEL, grid), build_dilation(grid)
    eps = 0.1
    m = mourre_resolvent(h_op, MODEL, grid, Z0, eps).matrix
    expected = ((1 - 2j * eps) * h_op.toarray()
                - 1j * eps * np.diag(virial_w(MODEL, grid.nodes)))
    assert np.array_equal(m.toarray(), expected)
    phi = gaussian_probe(grid, width=2.0)
    comm = 1j * (h_op @ (a_op @ phi) - a_op @ (h_op @ phi))
    gap = np.linalg.norm(m @ phi - (h_op @ phi - 1j * eps * comm)) / np.linalg.norm(phi)
    assert 0 < gap <= eps * commutator_residual(h_op, a_op, MODEL, grid) * (1 + 1e-9)


def test_mourre_refuses_a_model_with_v2():
    # the virial identity holds for V1 alone
    model = coulomb_model(1.0, 3)
    grid = RadialGrid(20.0, 128, dim=3)
    with pytest.raises(ValueError, match="V2"):
        mourre_resolvent(build_hamiltonian(model, grid), model, grid, Z0, 0.1)


def test_mourre_small_eps_limit():
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    z = 0.2 + 0.2j
    v = gaussian_probe(grid, width=1.5)
    base = ShiftedSolver(h_op, z).solve(v)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        u = mourre_resolvent(h_op, MODEL, grid, z, eps).solve(v)
        gaps.append(np.linalg.norm(u - base) / np.linalg.norm(base))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] <= 1e-3


def test_quadratic_estimate_stability(rng):
    grid = Grid1D(100.0, 512)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    ray = 3 * math.pi / 8
    zs = [m * cmath.exp(1j * ray) for m in (1e-1, 1e-2)]
    rep = quadratic_check(h_op, a_op, MODEL, grid, zs, [0.32, 0.16], rng=rng)
    for probe, value in rep.constants.items():
        assert math.isfinite(value)
        assert rep.stability(probe) <= 2.0
    assert all(row["converged"] for row in rep.rows)


def test_opnorm_nonconvergence_flag(rng, monkeypatch):
    # one Lanczos step cannot resolve three distinct singular values, so
    # a one-step budget trips the flag; the value is still a lower bound
    import lapkit.resolvent as resolvent

    monkeypatch.setattr(resolvent, "LANCZOS_STEPS", 1)
    mat = np.diag([1.0, 0.5, 0.2])
    est = operator_norm_lower(lambda u: mat @ u, lambda w: mat.T @ w, 3, rng=rng)
    assert est.lower <= 1.0 + 1e-12
    assert not est.converged


def test_estimates_in_dilation_eigenbasis():
    # weighted-resolvent block estimate against the dilation generator:
    # diagonalize A, transport the operator, and reuse the block and
    # shell machinery on the eigenvalue spectrum
    from lapkit.operators import dilation_eigenbasis

    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    avals, avecs = dilation_eigenbasis(a_op)
    f = weight_f(WeightParams(abs(Z0), 1.0, 1.0), grid.nodes)
    dense = np.diag(f) @ sla.inv(h_op.toarray() - Z0 * np.eye(128)) @ np.diag(f)
    transported = avecs.conj().T @ dense @ avecs
    upper = 2.0 * schur_block_bound(transported, avals)
    exact = bstar_norm_dense(transported, avals)
    assert math.isfinite(upper)
    assert 0.0 < exact <= upper * (1 + 1e-9)
