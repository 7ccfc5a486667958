import cmath
import math

import numpy as np
import pytest
import scipy.linalg as sla

from conftest import (free_resolvent_gaussian, free_resolvent_kernel,
                      lattice_free_kernel)
from lapkit.besov import (ShellScheme, bstar_norm_dense, loglog_slope,
                          schur_block_bound, unit_blocks)
from lapkit.errors import ExtrapolationError, SolverError
from lapkit.operators import (Grid1D, RadialGrid, absorbing_layer,
                              build_dilation, build_hamiltonian,
                              gaussian_probe, matched_absorber)
from lapkit.potential import WeightParams, bracket, standard_model, weight_f
from lapkit.resolvent import (LANCZOS_STEPS, Sector, ShiftedSolver,
                              TridiagonalResolvent, _diagonal_shell_norm,
                              _separated_pair_norms, besov_bstar_estimate,
                              boundary_value,
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
    solver = mourre_resolvent(h_op, build_dilation(grid), z, 0.16)
    return (lambda u: f * solver.solve(t * u),
            lambda v: t * solver.solve_adjoint(f * v),
            f[:, None] * inverse(solver.matrix, z) * t)


@pytest.mark.parametrize("shape", ["weighted", "difference", "mourre"])
def test_operator_norm_matches_dense_svd(shape):
    # W R W, W (R(z1) - R(z2)) W and f R_eps T, as the sweep, the Hoelder
    # probe and the quadratic estimate build them
    matvec, rmatvec, dense = _norm_case(shape)
    top = sla.svdvals(dense)[0]
    est = operator_norm_lower(matvec, rmatvec, dense.shape[0])
    assert est.lower == pytest.approx(top, rel=1e-9)
    assert est.lower <= top * (1 + 1e-9)
    assert est.converged


def test_operator_norm_on_small_matrices():
    # diag(1, 1, 0.2)^2 has two distinct eigenvalues, so every Krylov
    # space is at most two-dimensional and Lanczos breaks down after two
    # steps with the exact top
    mat = np.diag([1.0, 1.0, 0.2])
    est = operator_norm_lower(lambda u: mat @ u, lambda w: mat.T @ w, 3)
    assert est.lower == pytest.approx(1.0, abs=1e-12)
    assert est.converged
    assert est.iterations == 2
    zero = np.zeros((3, 3))
    est = operator_norm_lower(lambda u: zero @ u, lambda w: zero @ w, 3)
    assert est.lower == 0.0
    assert est.converged


def test_zero_weights_trivial():
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    est = weighted_opnorm(h_op, Z0, np.zeros(128), np.ones(128))
    assert est.lower == 0.0


def test_unweighted_norm_is_inverse_distance(rng):
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    eigs = sla.eigvalsh(h_op.toarray())
    dist = np.min(np.abs(eigs - Z0))
    est = weighted_opnorm(h_op, Z0, np.ones(128), np.ones(128), rng=rng)
    assert est.lower == pytest.approx(1.0 / dist, rel=1e-9)


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


def _check_bracket(grid, z):
    h_op = build_hamiltonian(MODEL, grid)
    est = besov_bstar_estimate(h_op, z, MODEL, grid)
    fh = np.sqrt(weight_f(WeightParams(abs(z), 1.0, 1.0), grid.nodes))
    dense = fh[:, None] * sla.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    exact = bstar_norm_dense(dense, np.abs(grid.nodes), np.abs(grid.nodes))
    assert est.lower <= exact * (1 + 1e-6)
    assert exact <= est.upper * (1 + 1e-6)
    assert est.lower >= 0.5 * exact      # the shell-pair probe is tight
    # the solve-based block sup is the dense unit-block sup
    blocks = schur_block_bound(dense, np.abs(grid.nodes), np.abs(grid.nodes))
    assert est.block_sup == pytest.approx(blocks.block_sup, rel=1e-12)


def test_besov_estimate_brackets_dense_norm():
    _check_bracket(Grid1D(20.0, 128), Z0)


def test_besov_estimate_brackets_dense_norm_at_desk_spacing():
    # the desk grids' spacing h = 0.1953, at a low energy on the default ray
    _check_bracket(Grid1D(100.0, 1024), Sector().points([1e-3])[0])


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
    for z in Sector().points([1e-1, 1e-2, 1e-3, 1e-4]):
        dense = sla.inv(h_op.toarray() - z * np.eye(n))
        cols = TridiagonalResolvent(h_op, z).entries(every[:, None], every)
        err = np.linalg.norm(cols - dense, axis=0)
        assert np.all(err <= 1e-12 * np.linalg.norm(dense, axis=0))


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
    # the one-pass column certificate carries a rounding allowance, so
    # no column passes an impossible tolerance
    h_op = build_hamiltonian(MODEL, Grid1D(20.0, 128))
    with pytest.raises(SolverError, match="residual"):
        TridiagonalResolvent(h_op, Z0, rtol=1e-30)
    import scipy.sparse as sp
    with pytest.raises(SolverError, match="pivot"):
        TridiagonalResolvent(sp.diags([1.0, 2.0, 3.0]), 2.0)


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
    shell_of, radii = ShellScheme().shell_indices(absx)
    block_of, blocks = unit_blocks(absx)
    assert np.count_nonzero(np.bincount(shell_of)) >= 4
    for z in (Z0, Sector().points([1e-3])[0]):
        fh, dense = _dense_weighted_resolvent(h_op, grid, z)
        kernel = TridiagonalResolvent(h_op, z)
        for labels, count in ((shell_of, len(radii)), (block_of, len(blocks))):
            norms = _separated_pair_norms(kernel, fh**2, labels, count, center)
            groups = [np.flatnonzero(labels == p) for p in range(count)]
            for norm, p, q in zip(norms, *np.triu_indices(count, 1)):
                for rows, cols in ((groups[p], groups[q]), (groups[q], groups[p])):
                    ref = (sla.svdvals(dense[np.ix_(rows, cols)])[0]
                           if rows.size and cols.size else 0.0)
                    assert norm == pytest.approx(ref, rel=1e-10)


def test_diagonal_shell_pairs_match_dense_svd():
    # Lanczos on the tridiagonal Schur complement, re-evaluated through
    # a certified solve, gives each shell's own block norm
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    shell_of, radii = ShellScheme().shell_indices(np.abs(grid.nodes))
    for z in Sector().points([1e-1, 1e-2, 1e-3, 1e-4]):
        fh, dense = _dense_weighted_resolvent(h_op, grid, z)
        kernel = TridiagonalResolvent(h_op, z)
        solver = ShiftedSolver(h_op, z)
        for j in range(len(radii)):
            idx = np.flatnonzero(shell_of == j)
            if idx.size == 0:
                continue
            norm, steps, converged = _diagonal_shell_norm(kernel, solver, fh, idx)
            assert converged and 1 <= steps <= LANCZOS_STEPS
            ref = sla.svdvals(dense[np.ix_(idx, idx)])[0]
            assert norm == pytest.approx(ref, rel=1e-10)


def test_besov_lower_is_the_shell_dual_norm():
    # every shell pair is exact, so the lower end is the shell-dual norm
    grid = Grid1D(100.0, 1024)
    h_op = build_hamiltonian(MODEL, grid)
    absx = np.abs(grid.nodes)
    for z in Sector().points([1e-1, 1e-3]):
        _, dense = _dense_weighted_resolvent(h_op, grid, z)
        est = besov_bstar_estimate(h_op, z, MODEL, grid)
        exact = bstar_norm_dense(dense, absx, absx)
        assert est.lower == pytest.approx(exact, rel=1e-9)
        assert est.details["lower_converged"]
        assert est.details["unconverged_shell_pairs"] == 0


def test_besov_estimate_runs_no_power_iteration(monkeypatch):
    import lapkit.resolvent as resolvent

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration inside the shell-space bracket")

    monkeypatch.setattr(resolvent, "operator_norm_lower", refuse)
    monkeypatch.setattr(resolvent, "weighted_opnorm", refuse)
    grid = Grid1D(20.0, 128)
    est = besov_bstar_estimate(build_hamiltonian(MODEL, grid), Z0, MODEL, grid)
    assert 0 < est.lower <= est.upper


def test_besov_estimate_shares_a_solver():
    # a ShiftedSolver factorized at z stands in for the operator
    grid = Grid1D(20.0, 128)
    h_op = build_hamiltonian(MODEL, grid)
    solver = ShiftedSolver(h_op, Z0)
    shared = besov_bstar_estimate(solver, Z0, MODEL, grid)
    own = besov_bstar_estimate(h_op, Z0, MODEL, grid)
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
                           s0=MODEL.s0)
    assert rep.unconverged == 1
    kept = [row for i, row in enumerate(rep.pairs) if i != 1]
    assert rep.fitted_gamma == pytest.approx(loglog_slope(
        [row[2] for row in kept], [row[3] for row in kept]), rel=1e-12)
    dropped = rep.pairs[1]
    assert rep.sup_quotient >= dropped[3] / dropped[2] ** rep.gamma_used


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
