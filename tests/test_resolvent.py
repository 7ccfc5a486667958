import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (free_resolvent_gaussian, free_resolvent_kernel,
                      lattice_free_kernel)
from lapkit.besov import (ShellScheme, bstar_norm_dense, schur_block_bound,
                          unit_blocks)
from lapkit.errors import ExtrapolationError, SolverError
from lapkit.operators import (Grid1D, RadialGrid, absorbing_layer,
                              build_dilation, build_hamiltonian,
                              gaussian_probe, matched_absorber)
from lapkit.potential import WeightParams, standard_model, weight_f
from lapkit.resolvent import (Sector, ShiftedSolver, TridiagonalResolvent,
                              _runs, _separated_pair_norm,
                              besov_bstar_estimate, boundary_value,
                              hoelder_estimate, mourre_resolvent,
                              operator_norm_lower, quadratic_check, solve,
                              spectral_distance, spectral_free_solve,
                              weighted_opnorm)

MODEL = standard_model(1.0, 1.0, 1)
Z0 = 0.5 + 0.5j


# ---------------------------------------------------------------------------
# sector
# ---------------------------------------------------------------------------

def test_sector_membership():
    s = Sector(theta=0.75 * math.pi, lambda0=1.0)
    assert s.contains(0.1 + 0.1j)
    assert not s.contains(-0.1)       # negative real axis excluded
    assert not s.contains(0.1)        # real axis itself excluded
    assert not s.contains(2.0j)       # modulus above the bound
    pts = s.points([1e-1, 1e-2])
    assert all(s.contains(z) for z in pts)
    with pytest.raises(ValueError):
        s.points([1e-1], rays=[0.9 * math.pi])
    with pytest.raises(ValueError):
        Sector(theta=3.5)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------

def test_solve_residual_contract(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    solver = ShiftedSolver(h_op, Z0)
    u = solver.solve(v)
    assert solver.residual(u, v) <= 1e-10


def test_solve_conjugation_symmetry(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    u = solve(h_op, Z0, v)
    u_bar = solve(h_op, np.conj(Z0), np.conj(v))
    assert np.allclose(np.conj(u_bar), u, atol=1e-10 * np.linalg.norm(u))


def test_first_resolvent_identity(rng):
    h_op = build_hamiltonian(MODEL, Grid1D(50.0, 512))
    v = rng.standard_normal(512) + 1j * rng.standard_normal(512)
    for z1, z2 in [(0.3 + 0.4j, 0.05 + 0.2j), (0.9 + 0.05j, 0.01 + 0.01j)]:
        lhs = solve(h_op, z1, v) - solve(h_op, z2, v)
        rhs = (z1 - z2) * solve(h_op, z1, solve(h_op, z2, v))
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)
    # the fixed-point form against z = i
    zi = 1j
    z = 0.2 + 0.3j
    lhs = solve(h_op, z, v)
    rhs = solve(h_op, zi, v) + (z - zi) * solve(h_op, z, solve(h_op, zi, v))
    assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(lhs)


def test_singular_shift_reported():
    import scipy.sparse as sp
    with pytest.raises(SolverError):
        ShiftedSolver(sp.diags([1.0, 2.0, 3.0]), 2.0)


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
    u = solve(h_op, Z0, v)
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
    est = weighted_opnorm(h_op, Z0, wl, wl, rng=rng, tol=1e-10, maxiter=500)
    assert est.lower == pytest.approx(top, rel=1e-6)
    assert est.lower <= top * (1 + 1e-9)


def test_zero_weights_trivial():
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    est = weighted_opnorm(h_op, Z0, np.zeros(128), np.ones(128))
    assert est.lower == 0.0


def test_unweighted_norm_is_inverse_distance(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    eigs = sla.eigvalsh(h_op.toarray())
    dist = np.min(np.abs(eigs - Z0))
    est = weighted_opnorm(h_op, Z0, np.ones(128), np.ones(128), rng=rng,
                          tol=1e-12, maxiter=2000)
    assert est.lower == pytest.approx(1.0 / dist, rel=1e-4)


@pytest.mark.parametrize("model", [MODEL, None], ids=["standard", "free"])
@pytest.mark.parametrize("ray", [Sector().default_ray(), 0.01],
                         ids=["default-ray", "near-real-axis"])
def test_spectral_distance_matches_dense_spectrum(model, ray):
    # 1 / dist(z, spectrum) is the plain resolvent norm; bisection on a
    # window around Re z gives the distance to the dense spectrum's
    h_op = build_hamiltonian(model, Grid1D(20.0, 256))
    eigs = sla.eigvalsh(h_op.toarray())
    for z in Sector().points([1e-1, 1e-2, 1e-3, 1e-4], rays=[ray]):
        exact = np.min(np.abs(eigs - z))
        assert spectral_distance(h_op, z) == pytest.approx(exact, rel=1e-9)


def test_spectral_distance_rejects_non_real_tridiagonal():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    with pytest.raises(ValueError, match="real"):
        spectral_distance(h_op + absorbing_layer(grid), Z0)
    solver = mourre_resolvent(h_op, build_dilation(grid), Z0, 0.1)
    with pytest.raises(ValueError, match="tridiagonal"):
        spectral_distance(solver.matrix, Z0)


def _check_bracket(grid, z, rng):
    h_op = build_hamiltonian(MODEL, grid)
    est = besov_bstar_estimate(h_op, z, MODEL, grid, rng=rng)
    fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
    dense = fh[:, None] * sla.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    exact = bstar_norm_dense(dense, np.abs(grid.nodes), np.abs(grid.nodes))
    assert est.lower <= exact * (1 + 1e-6)
    assert exact <= est.upper * (1 + 1e-6)
    assert est.lower >= 0.5 * exact      # the shell-pair probe is tight
    # the solve-based block sup is the dense unit-block sup
    blocks = schur_block_bound(dense, np.abs(grid.nodes), np.abs(grid.nodes))
    assert est.block_sup == pytest.approx(blocks.block_sup, rel=1e-12)


def test_besov_estimate_brackets_dense_norm(rng):
    _check_bracket(Grid1D(20.0, 128), Z0, rng)


def test_besov_estimate_brackets_dense_norm_at_desk_spacing(rng):
    # the desk grids' spacing h = 0.1953, at a low energy on the default ray
    _check_bracket(Grid1D(100.0, 1024), Sector().points([1e-3])[0], rng)


@pytest.mark.parametrize("model, grid", [
    (MODEL, Grid1D(20.0, 256)),
    (standard_model(1.0, 1.0, 3), RadialGrid(20.0, 256, dim=3)),
])
def test_kernel_columns_match_dense_inverse(model, grid):
    # every unit-block column run, built from pivot ratios with no solve,
    # is the same block of the dense inverse
    h_op = build_hamiltonian(model, grid)
    n = grid.size
    _, blocks = unit_blocks(np.abs(grid.nodes))
    runs = [run for cols in blocks for run in _runs(cols)]
    assert any(c0 == 0 for c0, _ in runs) and any(c1 == n - 1 for _, c1 in runs)
    for z in Sector().points([1e-1, 1e-2, 1e-3, 1e-4]):
        dense = sla.inv(h_op.toarray() - z * np.eye(n))
        kernel = TridiagonalResolvent(h_op, z)
        for c0, c1 in runs:
            cols = kernel.piece(c0, c1).rows(np.arange(n))
            ref = dense[:, c0:c1 + 1]
            assert np.linalg.norm(cols - ref) <= 1e-12 * np.linalg.norm(ref)


def test_kernel_rejects_pentadiagonal_operator():
    # the commutator-regularized operator couples next-nearest nodes;
    # it keeps the LU path, and the kernel refuses it
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    solver = mourre_resolvent(h_op, a_op, Z0, 0.1)
    with pytest.raises(ValueError, match="tridiagonal"):
        TridiagonalResolvent(solver.matrix, Z0)
    with pytest.raises(ValueError, match="tridiagonal"):
        besov_bstar_estimate(solver, Z0, MODEL, grid)


def test_kernel_residual_failure_raises():
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    kernel = TridiagonalResolvent(h_op, Z0, rtol=1e-30)
    with pytest.raises(SolverError, match="residual"):
        kernel.piece(60, 70)
    import scipy.sparse as sp
    with pytest.raises(SolverError, match="pivot"):
        TridiagonalResolvent(sp.diags([1.0, 2.0, 3.0]), 2.0)


def test_separated_shell_pairs_are_exact():
    # j != k shell pairs have rank <= 2; the two-column formula gives the
    # dense shell-to-shell norm, in either orientation
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    shells, _ = ShellScheme().shells(absx)
    shells = [s for s in shells if s.size]
    assert len(shells) >= 4
    for z in (Z0, Sector().points([1e-3])[0]):
        fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
        dense = (fh[:, None] * sla.inv(h_op.toarray() - z * np.eye(grid.size))
                 * fh[None, :])
        kernel = TridiagonalResolvent(h_op, z)
        for k, outer in enumerate(shells):
            anchors = {}
            for inner in shells[:k]:
                exact = _separated_pair_norm(kernel, anchors, fh, inner,
                                             _runs(outer))
                for rows, cols in ((inner, outer), (outer, inner)):
                    ref = sla.svdvals(dense[np.ix_(rows, cols)])[0]
                    assert exact == pytest.approx(ref, rel=1e-10)


def test_besov_estimate_shares_a_solver():
    # a ShiftedSolver factorized at z stands in for the operator
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    solver = ShiftedSolver(h_op, Z0)
    shared = besov_bstar_estimate(solver, Z0, MODEL, grid,
                                  rng=np.random.default_rng(1))
    own = besov_bstar_estimate(h_op, Z0, MODEL, grid,
                               rng=np.random.default_rng(1))
    assert (shared.lower, shared.upper) == (own.lower, own.upper)
    assert shared.details == own.details
    assert weighted_opnorm(solver, Z0, np.ones(128), np.ones(128)).lower > 0
    with pytest.raises(ValueError):
        besov_bstar_estimate(solver, 0.1j, MODEL, grid)


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
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs, grid, s0=MODEL.s0,
                           rng=rng)
    assert rep.pairs[0][3] == 0.0
    assert rep.in_hypothesis


def test_hoelder_quotients_bounded_along_ray(rng):
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    ray = 3 * math.pi / 8
    zs = [0.7**k * cmath.exp(1j * ray) for k in range(10)]
    pairs = [(zs[i], zs[i + 1]) for i in range(9)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05, pairs, grid, s0=MODEL.s0,
                           rng=rng)
    assert math.isfinite(rep.sup_quotient)
    assert rep.sup_quotient > 0


def test_hoelder_out_of_hypothesis_flag(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    pairs = [(0.2 + 0.2j, 0.1 + 0.1j), (0.3 + 0.1j, 0.2 + 0.05j),
             (0.5 + 0.2j, 0.4 + 0.3j)]
    rep = hoelder_estimate(h_op, 0.5, pairs, grid, s0=MODEL.s0, rng=rng)
    assert not rep.in_hypothesis
    assert math.isfinite(rep.sup_quotient)
    with pytest.raises(ValueError):
        hoelder_estimate(h_op, 0.8, pairs[:2], grid)


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

def test_boundary_value_zero_source():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    res = boundary_value(h_op, np.zeros(128), grid)
    assert res.converged
    assert np.all(res.u == 0.0)
    assert len(res.z_values) == 1


def test_boundary_value_conjugation(rng):
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    cap = matched_absorber(grid, mu=1.0, kappa=1.0)
    full = h_op + cap
    v = gaussian_probe(grid, width=2.0)
    plus = boundary_value(full, v, grid, tol=1e-4)
    minus = boundary_value(full, v, grid, tol=1e-4, sign=-1)
    # real source: the incoming value is the conjugate of the outgoing
    assert np.allclose(minus.u, np.conj(plus.u), atol=1e-12 * np.linalg.norm(plus.u))
    # the incoming ladder walks the conjugate ray on its own
    assert minus.converged
    assert minus.z_values == [z.conjugate() for z in plus.z_values]


def test_boundary_value_ladder_consistent_with_hoelder(rng):
    # the operator-norm growth exponent bounds the per-step vector decay
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    cap = matched_absorber(grid, mu=1.0, kappa=1.0)
    full = h_op + cap
    v = gaussian_probe(grid, width=2.0)
    res = boundary_value(full, v, grid, tol=1e-5, max_steps=24)
    assert res.converged
    dr = np.array(res.diffs)
    geo_mean = (dr[-1] / dr[0]) ** (1.0 / (len(dr) - 1))
    ray = Sector().default_ray()
    zs = [0.5**k * cmath.exp(1j * ray) for k in range(8)]
    rep = hoelder_estimate(h_op, MODEL.s0 + 0.05,
                           [(zs[i], zs[i + 1]) for i in range(7)], grid,
                           s0=MODEL.s0, rng=rng)
    bound = 0.5 ** max(rep.fitted_gamma, 0.0)
    assert geo_mean <= bound * (1 + 1e-9)


def test_boundary_value_nongeometric_error():
    # an unabsorbed box rises when |z| crosses the box scale; a tight
    # rise envelope must report it with the ladder attached
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    v = gaussian_probe(grid, width=2.0)
    with pytest.raises(ExtrapolationError) as info:
        boundary_value(h_op, v, grid, tol=1e-12, max_steps=24,
                       rise_factor=1.2)
    assert len(info.value.ladder) >= 2


# ---------------------------------------------------------------------------
# commutator-regularized resolvent
# ---------------------------------------------------------------------------

def test_mourre_sign_contract():
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    with pytest.raises(ValueError):
        mourre_resolvent(h_op, a_op, 0.1 + 0.1j, -0.05)
    with pytest.raises(ValueError):
        mourre_resolvent(h_op, a_op, 0.1 - 0.1j, 0.05)


def test_mourre_small_eps_limit():
    grid = Grid1D(20.0, 256)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    z = 0.2 + 0.2j
    v = gaussian_probe(grid, width=1.5)
    base = solve(h_op, z, v)
    gaps = []
    for eps in (1e-2, 1e-3, 1e-4):
        u = mourre_resolvent(h_op, a_op, z, eps).solve(v)
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


def test_opnorm_nonconvergence_flag(rng):
    # two equal singular values never let the gain flatten estimates
    # converge within one iteration, so a tiny budget trips the flag
    mat = np.diag([1.0, 1.0, 0.2])
    est = operator_norm_lower(lambda u: mat @ u, lambda w: mat.T @ w, 3,
                              rng=rng, tol=1e-14, maxiter=3)
    assert est.lower <= 1.0 + 1e-12
    assert not est.converged


def test_estimates_in_dilation_eigenbasis(rng):
    # weighted-resolvent block estimate against the dilation generator:
    # diagonalize A, transport the operator, and reuse the block and
    # shell machinery on the eigenvalue spectrum
    from lapkit.besov import bstar_norm_dense, schur_block_bound
    from lapkit.operators import dilation_eigenbasis

    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    a_op = build_dilation(grid)
    avals, avecs = dilation_eigenbasis(a_op)
    f = weight_f(WeightParams(abs(Z0), 1.0, 1.0), grid.nodes)
    dense = np.diag(f) @ sla.inv(h_op.toarray() - Z0 * np.eye(128)) @ np.diag(f)
    transported = avecs.conj().T @ dense @ avecs
    bb = schur_block_bound(transported, avals, avals, rng=rng)
    exact = bstar_norm_dense(transported, avals, avals)
    assert math.isfinite(bb.upper)
    assert bb.probe_lower <= exact * (1 + 1e-9) <= bb.upper * (1 + 1e-9)
