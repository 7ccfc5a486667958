import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapkit import besov
from lapkit.besov import (ShellScheme, as_spectrum_values, ball_sup,
                          base_equivalence_constants, besov_norm,
                          bstar0_defect, bstar_norm_dense, defect_ladder,
                          dual_norm, power_map_constant, sample_vectors,
                          schur_block_bound, shell_decompose, unit_blocks,
                          verify_base_equivalence, verify_interpolation,
                          verify_power_map, verify_scaling)
from lapkit.errors import DataError, DimensionError

SPECTRUM = np.linspace(0.0, 20.0, 64)
SCHEME = ShellScheme(2.0)


def brute_force_shell_norms(u, a, base):
    """Independent per-node accumulation of the shell sums."""
    out = {}
    for ui, ai in zip(u, a):
        t = abs(ai)
        if t < 1.0:
            j = 1
        else:
            j = 2
            while base ** (j - 1) <= t:
                j += 1
        out[j] = out.get(j, 0.0) + abs(ui) ** 2
    return {j: math.sqrt(v) for j, v in out.items()}


# ---------------------------------------------------------------------------
# decomposition and the two norms
# ---------------------------------------------------------------------------

def test_single_shell_vector():
    # mass where 1 <= |a| < 2 sits in shell 2 with radius 2
    u = np.zeros(64, dtype=complex)
    u[np.flatnonzero((SPECTRUM >= 1) & (SPECTRUM < 2))[0]] = 1.0
    prof = shell_decompose(u, SPECTRUM, SCHEME)
    assert prof.shell_norms[1] == 1.0
    assert np.all(prof.shell_norms[[0, 2, 3]] == 0.0)
    assert prof.besov == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert prof.dual == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


def test_zero_vector():
    prof = shell_decompose(np.zeros(64), SPECTRUM, SCHEME)
    assert prof.besov == 0.0
    assert np.all(prof.shell_norms == 0.0)


def test_against_brute_force(rng):
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    prof = shell_decompose(u, SPECTRUM, SCHEME)
    expected = brute_force_shell_norms(u, SPECTRUM, 2.0)
    for j, val in expected.items():
        assert prof.shell_norms[j - 1] == pytest.approx(val, abs=1e-12)
    b = sum(2.0 ** ((j - 1) / 2.0) * v for j, v in expected.items())
    d = max(v / 2.0 ** ((j - 1) / 2.0) for j, v in expected.items())
    assert besov_norm(u, SPECTRUM) == pytest.approx(b, rel=1e-12)
    assert dual_norm(u, SPECTRUM) == pytest.approx(d, rel=1e-12)


def test_errors():
    with pytest.raises(DimensionError):
        shell_decompose(np.ones(5), SPECTRUM, SCHEME)
    with pytest.raises(DataError):
        shell_decompose(np.array([1.0, np.nan]), np.array([0.0, 1.0]), SCHEME)
    with pytest.raises(DataError):
        as_spectrum_values([np.inf])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.1, max_value=4.0))
def test_partition_and_homogeneity(seed, alpha):
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(48) + 1j * gen.standard_normal(48)
    a = gen.uniform(-30.0, 30.0, size=48)
    prof = shell_decompose(u, a, SCHEME)
    assert np.sum(prof.shell_norms**2) == pytest.approx(
        np.linalg.norm(u) ** 2, rel=1e-12)
    assert besov_norm(alpha * u, a) == pytest.approx(
        alpha * prof.besov, rel=1e-12)
    assert dual_norm(alpha * u, a) == pytest.approx(
        alpha * prof.dual, rel=1e-12)
    # the norm lower bound: ||u|| <= ||u||_B
    assert prof.total_norm <= prof.besov * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_duality_sandwich(seed):
    gen = np.random.default_rng(seed)
    u = gen.standard_normal(48) + 1j * gen.standard_normal(48)
    a = gen.uniform(-50.0, 50.0, size=48)
    d = dual_norm(u, a)
    s = ball_sup(u, a)
    assert d <= s * (1 + 1e-12)
    assert s <= 2.0 * d * (1 + 1e-12)


def test_ball_sup_on_ladder_agrees(rng):
    # scheme-radii ladder stays inside the exact-sup sandwich too
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    prof = shell_decompose(u, SPECTRUM, SCHEME)
    ladder_sup = np.max(prof.ball_norms / np.sqrt(prof.ladder))
    assert prof.dual <= ladder_sup * (1 + 1e-12)
    assert ladder_sup <= 2.0 * prof.dual * (1 + 1e-12)


# ---------------------------------------------------------------------------
# banks: one call per bank of rows equals one 1-d call per row
# ---------------------------------------------------------------------------

BANK_SPECTRA = {
    # +-x pairs tie in |a|, so runs of equal moduli end at every other node
    "signed": np.linspace(-30.0, 30.0, 97),
    # shells 3, 5, 6, 8 and 9 are empty
    "empty-shells": np.array([0.5, 0.25, 5.0, 6.0, 40.0, 300.0, 0.0, 5.0, -1.0]),
    # eleven shells: the shell sums run past numpy's 8-way unrolled blocks
    "wide": 1.0 + np.linspace(-30.0, 30.0, 65) ** 2,
}


@pytest.mark.parametrize("rows", [1, 24])
@pytest.mark.parametrize("name", sorted(BANK_SPECTRA))
def test_bank_call_equals_row_calls(name, rows):
    a = BANK_SPECTRA[name]
    gen = np.random.default_rng(rows)
    bank = sample_vectors(a, SCHEME, 16, gen)
    bank[2] = 0.0
    bank = bank[:rows]
    ladder = [0.5, 1.0, 5.0, 6.0, 300.0, 1e4]
    prof = shell_decompose(bank, a, SCHEME, ladder)
    singles = [shell_decompose(u, a, SCHEME, ladder) for u in bank]
    assert np.array_equal(prof.shell_norms, np.array([p.shell_norms for p in singles]))
    assert np.array_equal(prof.ball_norms, np.array([p.ball_norms for p in singles]))
    for key in ("total_norm", "besov", "dual", "ball_sup"):
        assert np.array_equal(getattr(prof, key),
                              np.array([getattr(p, key) for p in singles])), key
        assert all(isinstance(getattr(p, key), float) for p in singles)
    for scheme in (SCHEME, ShellScheme(1.5)):
        assert np.array_equal(besov_norm(bank, a, scheme),
                              np.array([besov_norm(u, a, scheme) for u in bank]))
        assert np.array_equal(dual_norm(bank, a, scheme),
                              np.array([dual_norm(u, a, scheme) for u in bank]))
    assert np.array_equal(ball_sup(bank, a), np.array([ball_sup(u, a) for u in bank]))
    assert np.array_equal(defect_ladder(bank, a, ladder, annulus_eps=0.5),
                          np.array([defect_ladder(u, a, ladder, annulus_eps=0.5)
                                    for u in bank]))
    assert np.array_equal(bstar0_defect(bank, a, ladder),
                          np.array([bstar0_defect(u, a, ladder) for u in bank]))


def test_ball_sup_with_tied_moduli(rng):
    # the sup is approached as R -> v+ over the distinct moduli v, where
    # the ball takes in every node with |a| <= v, ties included
    a = BANK_SPECTRA["signed"]
    bank = rng.standard_normal((6, len(a))) + 1j * rng.standard_normal((6, len(a)))
    for u, got in zip(bank, ball_sup(bank, a)):
        expected = max(np.linalg.norm(u[np.abs(a) <= v]) / math.sqrt(max(v, 1.0))
                       for v in np.unique(np.abs(a)))
        assert got == pytest.approx(expected, rel=1e-14)


def test_sample_bank_shape(rng):
    bank = sample_vectors(BANK_SPECTRA["empty-shells"], SCHEME, 5, rng)
    # five random rows, then three probes for each of the 5 occupied shells
    assert bank.shape == (5 + 3 * 5, 9) and bank.dtype == complex


@pytest.mark.parametrize("row", range(4))
def test_bank_errors(rng, row):
    bank = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
    bank[row, 7] = np.nan
    for fn in (besov_norm, dual_norm, ball_sup, shell_decompose):
        with pytest.raises(DataError):
            fn(bank, SPECTRUM)
    for shape in ((4, 63), (2, 2, 64)):
        with pytest.raises(DimensionError):
            besov_norm(np.ones(shape), SPECTRUM)


def _inflate_moved_norms(monkeypatch, base, boost):
    """Scale by ``boost`` the per-row Besov norms a lemma takes against a
    spectrum other than ``base`` or a ladder other than the dyadic one,
    so the lemma fails on the boosted rows."""
    def inflated(u, a, scheme):
        out = besov_norm(u, a, scheme)
        moved = not np.array_equal(a, base) or scheme.base != 2.0
        return out * boost if moved else out

    monkeypatch.setattr(besov, "besov_norm", inflated)


def _serialized(u):
    return [[float(z.real), float(z.imag)] for z in u]


def test_witness_rules(monkeypatch, rng):
    bank = sample_vectors(SPECTRUM, SCHEME, 10, rng)
    bank[7] = -bank[5]
    boost = np.ones(len(bank))
    boost[[3, 5, 7]] = [1e3, 1e6, 1e6]
    _inflate_moved_norms(monkeypatch, SPECTRUM, boost)
    # base change: the first of the rows attaining the strict maximum
    rep = verify_base_equivalence(bank, SPECTRUM, 4.0)
    assert not rep.passed and rep.witness == _serialized(bank[5])
    # scaling: the first row over the bound, not the worst one
    rep = verify_scaling(bank, SPECTRUM, 4.0)
    assert not rep.passed and rep.witness == _serialized(bank[3])
    a = np.sqrt(1.0 + SPECTRUM**2)
    bank = sample_vectors(a, SCHEME, 10, rng)
    boost = np.ones(len(bank))
    boost[[3, 5]] = [1e3, 1e6]
    _inflate_moved_norms(monkeypatch, a, boost)
    rep = verify_power_map(bank, a, 1.0)
    assert not rep.passed and rep.witness == _serialized(bank[3])


# ---------------------------------------------------------------------------
# vanishing defect
# ---------------------------------------------------------------------------

def test_defect_compact_support():
    u = np.zeros(64, dtype=complex)
    u[SPECTRUM < 3.0] = 1.0
    nrm = np.linalg.norm(u)
    ladder = [4.0, 8.0, 16.0, 32.0]
    vals = defect_ladder(u, SPECTRUM, ladder)
    assert np.allclose(vals, nrm / np.sqrt(ladder))
    assert bstar0_defect(u, SPECTRUM, ladder) == pytest.approx(
        nrm / math.sqrt(16.0))


def test_defect_extremal_growth():
    # per-shell norms R_j^{1/2} give ball norms sqrt(2^j - 1), so the
    # defect sqrt((2^j - 1) / 2^(j-1)) stays above 1 on every rung
    a = np.array([0.5] + [2.0**k for k in range(5)])
    u = np.sqrt(2.0 ** np.arange(6))
    ladder = 2.0 ** np.arange(1, 6)
    vals = defect_ladder(u, a, ladder)
    expected = np.sqrt((2.0 ** np.arange(2, 7) - 1) / 2.0 ** np.arange(1, 6))
    assert np.allclose(vals, expected)
    assert bstar0_defect(u, a, ladder) >= 1.0


def test_defect_zero_and_empty():
    assert bstar0_defect(np.zeros(64), SPECTRUM, [2.0, 4.0]) == 0.0
    with pytest.raises(ValueError):
        bstar0_defect(np.zeros(64), SPECTRUM, [])


def test_defect_annulus_variant():
    u = np.ones(64, dtype=complex)
    vals = defect_ladder(u, SPECTRUM, [8.0, 16.0], annulus_eps=0.5)
    direct = [np.linalg.norm(u[(SPECTRUM >= 4.0) & (SPECTRUM < 8.0)]) / 8.0**0.5,
              np.linalg.norm(u[(SPECTRUM >= 8.0) & (SPECTRUM < 16.0)]) / 16.0**0.5]
    assert np.allclose(vals, direct)


# ---------------------------------------------------------------------------
# base equivalence
# ---------------------------------------------------------------------------

def test_base_p2_is_identity(rng):
    samples = sample_vectors(SPECTRUM, SCHEME, 10, rng)
    rep = verify_base_equivalence(samples, SPECTRUM, 2.0, seed=0)
    assert rep.passed
    # identical schemes: raw ratios are exactly one
    assert rep.details["worst_to_p"] == pytest.approx(1.0, rel=1e-12)


def test_base_p4_constants(rng):
    c_to, c_from = base_equivalence_constants(4.0)
    assert c_from == pytest.approx(1.0 + 4.0 * math.sqrt(2.0))
    samples = sample_vectors(SPECTRUM, SCHEME, 200, rng)
    rep = verify_base_equivalence(samples, SPECTRUM, 4.0, seed=0)
    assert rep.passed
    assert rep.samples >= 200


def test_base_adversarial_boundaries(rng):
    # unit mass exactly on shell radii, the worst case for regrouping
    samples = []
    a = np.concatenate([[0.0], 2.0 ** np.arange(6, dtype=float),
                        3.0 ** np.arange(4, dtype=float)])
    for i in range(len(a)):
        e = np.zeros(len(a), dtype=complex)
        e[i] = 1.0
        samples.append(e)
    for p in (3.0, 4.0, 1.5):
        rep = verify_base_equivalence(samples, a, p, seed=0)
        assert rep.passed, rep.to_dict()


def test_base_invalid():
    with pytest.raises(ValueError):
        base_equivalence_constants(1.0)


# ---------------------------------------------------------------------------
# weight scaling
# ---------------------------------------------------------------------------

def test_scaling_identity(rng):
    samples = sample_vectors(SPECTRUM, SCHEME, 20, rng)
    rep = verify_scaling(samples, SPECTRUM, 1.0, seed=0)
    assert rep.passed
    # c = 1 leaves the norm unchanged: ratio is 1/8 of the allowance
    assert rep.worst_ratio <= 1.0 / 8.0 + 1e-12


def test_scaling_c4_single_shell():
    # u in shell 3 of A (radius 4) moves to shell 5 of 4A (radius 16):
    # norm ratio 16^(1/2)/4^(1/2) = 2 against the allowance 16
    a = np.array([2.5])
    u = np.array([1.0 + 0j])
    assert besov_norm(u, a) == pytest.approx(2.0)
    assert besov_norm(u, 4.0 * a) == pytest.approx(4.0)
    rep = verify_scaling([u], a, 4.0, seed=0)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(2.0 / 16.0)


def test_scaling_small_c_sharp(rng):
    samples = sample_vectors(SPECTRUM, SCHEME, 200, rng)
    rep = verify_scaling(samples, SPECTRUM, 1.0 / 3.0, seed=0)
    assert rep.passed
    assert rep.details["worst_sharp_ratio"] <= 1.0


# ---------------------------------------------------------------------------
# power map
# ---------------------------------------------------------------------------

def test_power_map_identity(rng):
    a = np.sqrt(1.0 + SPECTRUM**2)
    samples = sample_vectors(a, SCHEME, 20, rng)
    rep = verify_power_map(samples, a, 0.0, seed=0)
    assert rep.passed


def test_power_map_s1_and_inverse(rng):
    a = np.sqrt(1.0 + np.linspace(-20, 20, 100) ** 2)
    samples = sample_vectors(a, SCHEME, 100, rng)
    rep = verify_power_map(samples, a, 1.0, seed=0)
    assert rep.passed
    assert rep.details["worst_forward"] <= 1.0
    assert rep.details["worst_inverse"] <= 1.0


def test_power_map_negative_exponent(rng):
    a = np.sqrt(1.0 + SPECTRUM**2)
    samples = sample_vectors(a, SCHEME, 100, rng)
    rep = verify_power_map(samples, a, -0.5, seed=0)
    assert rep.passed


def test_power_map_constant_value():
    # p = 2^(1/2) at s = 1: prefactor 2^(1/4) times the base constant
    p = 2.0 ** 0.5
    expected = 2.0 ** 0.25 * (1.0 + math.sqrt(p) * (2.0 + math.log(2.0) / math.log(p)))
    assert power_map_constant(1.0) == pytest.approx(expected)


def test_power_map_preconditions():
    with pytest.raises(ValueError):
        verify_power_map([np.ones(3)], np.array([0.5, 1.0, 2.0]), 1.0)
    with pytest.raises(ValueError):
        power_map_constant(-1.0)


# ---------------------------------------------------------------------------
# unit-width blocks and the dense dual-norm oracle
# ---------------------------------------------------------------------------

def test_unit_blocks_and_shells_on_signed_values():
    a = np.array([2.5, -0.5, 0.25, -0.75, 2.0, 9.0, -9.0])
    labels, blocks = unit_blocks(a)
    # occupied blocks -9, -1, 0, 2, 9 in anchor order, indices ascending
    assert [b.tolist() for b in blocks] == [[6], [1, 3], [2], [0, 4], [5]]
    assert labels.tolist() == [3, 1, 2, 1, 3, 4, 0]
    shells, radii = ShellScheme(2.0).shells(a)
    # |a| in [0,1), [1,2), [2,4), [4,8), [8,16); the 2nd and 4th are empty
    assert radii.tolist() == [1.0, 2.0, 4.0, 8.0, 16.0]
    assert [s.tolist() for s in shells] == [[1, 2, 3], [], [0, 4], [], [5, 6]]


def test_block_bound_identity(rng):
    a = np.linspace(0.0, 12.0, 48)
    bb = schur_block_bound(np.eye(48), a, a, rng=rng)
    assert bb.block_sup == pytest.approx(1.0)
    assert bb.upper == pytest.approx(2.0)
    assert bb.probe_lower <= 1.0 + 1e-12
    assert bb.accretive
    assert bb.accretive_bound >= bb.block_sup


def test_block_sandwich_against_dense_oracle(rng):
    n = 128
    a = np.abs(np.linspace(-16.0, 16.0, n))
    body = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 6
    t = np.where(band, body, 0.0)
    bb = schur_block_bound(t, a, a, rng=rng)
    exact = bstar_norm_dense(t, a, a)
    assert bb.probe_lower <= exact * (1 + 1e-9)
    assert exact <= bb.upper * (1 + 1e-9)


def test_dense_norm_is_the_true_norm(rng):
    # cross-check the shell-pair formula against direct ratio sampling
    n = 40
    a = np.linspace(0.0, 9.0, n)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    exact = bstar_norm_dense(t, a, a)
    worst = 0.0
    for _ in range(400):
        u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        worst = max(worst, dual_norm(t @ u, a) / besov_norm(u, a))
    assert worst <= exact * (1 + 1e-9)
    # the optimum is attained on a single shell pair; build it
    scheme = ShellScheme(2.0)
    idx, radii = scheme.shell_indices(a)
    best = (0.0, None)
    for j in range(len(radii)):
        rows = np.flatnonzero(idx == j)
        for k in range(len(radii)):
            cols = np.flatnonzero(idx == k)
            if rows.size == 0 or cols.size == 0:
                continue
            sub = t[np.ix_(rows, cols)]
            val = np.linalg.norm(sub, 2) / math.sqrt(radii[j] * radii[k])
            if val > best[0]:
                best = (val, (rows, cols, sub))
    rows, cols, sub = best[1]
    _, _, vh = np.linalg.svd(sub)
    u = np.zeros(n, dtype=complex)
    u[cols] = vh[0].conj()
    attained = dual_norm(t @ u, a) / besov_norm(u, a)
    assert attained == pytest.approx(exact, rel=1e-9)


def test_accretive_combination(rng):
    n = 96
    a = np.abs(np.linspace(-10.0, 10.0, n))
    body = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    skew = body - body.conj().T
    t = np.eye(n) + skew
    bb = schur_block_bound(t, a, a, rng=rng)
    assert bb.accretive
    assert bb.block_sup <= bb.accretive_bound * (1 + 1e-9)


def test_block_dimension_error():
    with pytest.raises(DimensionError):
        schur_block_bound(np.eye(4), np.ones(4), np.ones(5))


# ---------------------------------------------------------------------------
# interpolation monitor
# ---------------------------------------------------------------------------

def test_interpolation_identity(rng):
    a = np.linspace(0.0, 12.0, 64)
    rep = verify_interpolation(np.eye(64), a, a, s=1.0, rng=rng)
    assert rep.passed
    assert rep.worst_ratio <= 0.5 + 1e-9   # denominator counts the norm twice


def test_interpolation_multiplier_bounded(rng):
    a = np.linspace(0.0, 12.0, 64)
    g = np.cos(a) + 0.2
    rep = verify_interpolation(np.diag(g), a, a, s=0.9, rng=rng)
    # multiplication operators commute with the shells: ratio <= 1
    assert rep.worst_ratio <= 1.0 + 1e-9


def test_interpolation_refinement_stable(rng):
    ratios = []
    for n in (64, 128, 256):
        a = np.abs(np.linspace(-16.0, 16.0, n))
        phases = np.exp(2j * np.pi * rng.random(n))
        rep = verify_interpolation(np.diag(phases), a, a, s=1.0, rng=rng)
        ratios.append(rep.worst_ratio)
    assert max(ratios) <= 2.0 * min(ratios)


def test_interpolation_requires_s():
    with pytest.raises(ValueError):
        verify_interpolation(np.eye(4), np.ones(4), np.ones(4), s=0.5)
