"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one pass/fail line.  Measured values are also pinned
against tests/expected_results.json, the calibration constants frozen
from the initial desk-scale run, so silent drift fails loudly even
inside the allowed thresholds.
"""

import cmath
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import free_resolvent_gaussian
from lapkit.config import parse_config_text
from lapkit.experiments import (SLOPE_DECREASING, SLOPE_FLAT,
                                run_besov_selftest, run_lap_sweep,
                                run_radiation, run_uniqueness)
from lapkit.operators import (Grid1D, build_dilation, build_hamiltonian,
                              commutator_residual, refinement_orders)
from lapkit.potential import coulomb_model, standard_model, virial_w
from lapkit.resolvent import (hoelder_estimate, quadratic_check,
                              spectral_free_solve)

EXPECTED = json.loads(
    (Path(__file__).parent / "expected_results.json").read_text())

DESK_RADIATION = """
[model]
family = standard
gamma = 1.0
mu = 1.0

[grid]
length = 400.0
size = 4096

[experiment]
id = radiation
seed = 0
"""

DESK_SWEEP = """
[model]
family = standard
gamma = 1.0
mu = 1.0

[grid]
length = 400.0
size = 4096

[sector]
moduli = 1e-1, 1e-2, 1e-3, 1e-4

[experiment]
id = lap-sweep
seed = 0
"""


def frozen(key, value):
    lo, hi = EXPECTED[key]
    assert lo <= value <= hi, (
        f"{key} = {value:.6g} drifted outside the frozen band [{lo}, {hi}]")


def announce(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def radiation_report():
    return run_radiation(parse_config_text(DESK_RADIATION))


@pytest.fixture(scope="module")
def uniqueness_report():
    return run_uniqueness(parse_config_text(
        DESK_RADIATION.replace("id = radiation", "id = uniqueness")))


@pytest.fixture(scope="module")
def sweep_report():
    return run_lap_sweep(parse_config_text(DESK_SWEEP))


# ---------------------------------------------------------------------------
# 1. shell-norm inequality suite
# ---------------------------------------------------------------------------

def test_criterion_1_besov_lemma_suite():
    start = time.perf_counter()
    cfg = parse_config_text("[experiment]\nid = besov-selftest\nseed = 0\n")
    report = run_besov_selftest(cfg)
    elapsed = time.perf_counter() - start
    failed = [c.check_id for c in report.checks if not c.passed]
    announce(1, report.passed and elapsed <= 60.0,
             f"all {len(report.checks)} inequality checks pass on >= 200 "
             f"samples each in {elapsed:.1f} s (failed: {failed or 'none'})")


# ---------------------------------------------------------------------------
# 2. virial identity and lower bound
# ---------------------------------------------------------------------------

def test_criterion_2_virial_commutator():
    orders_summary = {}
    for label, model in (("free", None), ("standard", standard_model(1.0, 1.0, 1))):
        residuals = []
        for n in (512, 1024, 2048):
            grid = Grid1D(20.0, n)
            h_op = build_hamiltonian(model, grid)
            a_op = build_dilation(grid)
            residuals.append(commutator_residual(h_op, a_op, model, grid))
        orders_summary[label] = refinement_orders(residuals)
    orders_ok = all(o >= 1.8 for orders in orders_summary.values()
                    for o in orders)

    xs = np.linspace(0.0, 500.0, 4096)
    floor_ok = True
    for gamma in (0.5, 1.0, 2.0):
        for mu in (0.5, 1.0, 1.5):
            m = standard_model(gamma, mu, 1)
            floor = m.eps1 * m.eps1_tilde * (1 + xs**2) ** (-mu / 2.0)
            floor_ok &= bool(np.all(virial_w(m, xs) >= floor - 1e-12))
    cm = coulomb_model(1.0, 3)
    floor_c = cm.eps1 * cm.eps1_tilde * (1 + xs**2) ** -0.5
    floor_ok &= bool(np.all(virial_w(cm, xs) >= floor_c - 1e-12))

    frozen("virial_order_standard", min(orders_summary["standard"]))
    announce(2, orders_ok and floor_ok,
             f"commutator residual orders {orders_summary} all >= 1.8; "
             f"virial floor holds at every node")


# ---------------------------------------------------------------------------
# 3. free-resolvent oracle
# ---------------------------------------------------------------------------

def test_criterion_3_free_resolvent_oracle():
    grid = Grid1D(60.0, 4096)
    z = 0.5 + 0.5j
    width = 2.0
    v = np.exp(-grid.nodes**2 / (2.0 * width**2)).astype(complex)
    u = spectral_free_solve(grid, z, v)
    exact = free_resolvent_gaussian(z, grid.nodes, width)
    interior = np.abs(grid.nodes) <= 30.0
    err = float(np.max(np.abs(u - exact)[interior] / np.abs(exact)[interior]))
    frozen("free_resolvent_error", err)
    announce(3, err <= 1e-6,
             f"spectral solve matches the analytic kernel to {err:.2e} "
             f"relative at interior points (tolerance 1e-6)")


# ---------------------------------------------------------------------------
# 4. growth-exponent contrast along the default ray
# ---------------------------------------------------------------------------

def test_criterion_4_low_energy_trend(sweep_report):
    by_id = {c.check_id: c for c in sweep_report.checks}
    unw = by_id["unweighted-growth"]
    lo = by_id["shell-dual-lower-boundedness"]
    up = by_id["shell-dual-upper-boundedness"]
    frozen("sweep_unweighted_exponent", unw.value)
    frozen("sweep_shell_lower_exponent", lo.value)
    frozen("sweep_shell_upper_exponent", up.value)
    stable_rows = sum(1 for r in sweep_report.artifacts["csv_rows"] if r["stable"])
    announce(4, unw.passed and lo.passed and up.passed,
             f"stable-row fits: plain norm exponent {unw.value:.3f} <= -0.85, "
             f"shell-dual exponents {lo.value:.3f}/{up.value:.3f} >= -0.2 "
             f"({stable_rows} stable rows)")


# ---------------------------------------------------------------------------
# 5. Hoelder probe and extrapolation ladder
# ---------------------------------------------------------------------------

def test_criterion_5_hoelder_and_ladder(radiation_report):
    model = standard_model(1.0, 1.0, 1)
    s = model.s0 + 0.05
    ray = 3 * math.pi / 8
    quotients = []
    gamma_ref = None
    for n in (1024, 2048):
        grid = Grid1D(200.0, n)
        h_op = build_hamiltonian(model, grid)
        zs = [0.7**k * cmath.exp(1j * ray) for k in range(14)]
        zs += [0.7**k * cmath.exp(1j * math.pi / 3) for k in range(8)]
        pairs = [(zs[i], zs[i + 1]) for i in range(13)]
        pairs += list(zip(zs[:8], zs[14:]))
        rep = hoelder_estimate(h_op, s, pairs, grid,
                               rng=np.random.default_rng(0), gamma=gamma_ref)
        if gamma_ref is None:
            gamma_ref = rep.fitted_gamma
        quotients.append(rep.sup_quotient)
    finite = all(math.isfinite(q) and q > 0 for q in quotients)
    stable = max(quotients) <= 2.0 * min(quotients)
    frozen("hoelder_sup_quotient", quotients[0])

    diffs = radiation_report.extras["ladder_plus"]
    geo_mean = (diffs[-1] / diffs[0]) ** (1.0 / (len(diffs) - 1))
    frozen("ladder_geometric_ratio", geo_mean)
    announce(5, finite and stable and geo_mean <= 0.85,
             f">= 20 pair quotients bounded ({quotients[0]:.4f}, "
             f"{quotients[1]:.4f}; within x2 across h-halving); boundary "
             f"ladder mean ratio {geo_mean:.3f} <= 0.85 per step")


# ---------------------------------------------------------------------------
# 6. radiation condition
# ---------------------------------------------------------------------------

def test_criterion_6_radiation(radiation_report):
    by_id = {c.check_id: c for c in radiation_report.checks}
    slope_out = by_id["plus-outgoing-slope"]
    slope_high = by_id["plus-high-slope"]
    slope_mirror = by_id["plus-mirrored-slope"]
    ratio_out = by_id["plus-outgoing-far-ratio"]
    ratio_high = by_id["plus-high-far-ratio"]
    frozen("radiation_outgoing_slope", slope_out.value)
    frozen("radiation_high_slope", slope_high.value)
    frozen("radiation_mirrored_slope", slope_mirror.value)
    frozen("radiation_far_ratio", ratio_out.value)
    ok = (slope_out.passed and slope_high.passed and slope_mirror.passed
          and ratio_out.passed and ratio_high.passed
          and by_id["boundary-value-converged"].passed)
    announce(6, ok,
             f"outgoing/high filter slopes {slope_out.value:.2f}/"
             f"{slope_high.value:.2f} <= {SLOPE_DECREASING}, mirrored "
             f"{slope_mirror.value:.3f} >= {SLOPE_FLAT}, far-field ratios "
             f"{ratio_out.value:.3f}/{ratio_high.value:.3f} <= 0.2")


# ---------------------------------------------------------------------------
# 7. uniqueness asymmetry
# ---------------------------------------------------------------------------

def test_criterion_7_uniqueness(uniqueness_report):
    by_id = {c.check_id: c for c in uniqueness_report.checks}
    resid = by_id["interior-null-residual"]
    magnitude = by_id["null-difference-magnitude"]
    out_slope = by_id["null-outgoing-slope"]
    growth = by_id["null-ball-norm-growth"]
    frozen("uniqueness_interior_residual", resid.value)
    frozen("uniqueness_magnitude", magnitude.value)
    frozen("uniqueness_outgoing_slope", out_slope.value)
    ok = (resid.passed and magnitude.passed and out_slope.passed
          and growth.passed)
    announce(7, ok,
             f"null difference: interior residual {resid.value:.1e} <= 1e-6, "
             f"relative size {magnitude.value:.3f} >= 0.1, outgoing-filter "
             f"slope {out_slope.value:.3f} >= {SLOPE_FLAT} (not outgoing)")


# ---------------------------------------------------------------------------
# 8. commutator-regularized quadratic estimate, i[H, A] = 2H + W
# ---------------------------------------------------------------------------

def test_criterion_8_quadratic_probe():
    model = standard_model(1.0, 1.0, 1)
    grid = Grid1D(200.0, 1024)
    h_op = build_hamiltonian(model, grid)
    a_op = build_dilation(grid)
    ray = 3 * math.pi / 8
    zs = [m * cmath.exp(1j * ray) for m in (1e-1, 1e-2, 1e-3)]
    eps = [0.32, 0.16, 0.08]
    report = quadratic_check(h_op, a_op, model, grid, zs, eps,
                             rng=np.random.default_rng(0))
    finite = all(math.isfinite(v) for v in report.constants.values())
    z_stable = {p: report.stability(p) for p in report.constants}
    per_eps = {}
    for row in report.rows:
        per_eps.setdefault((row["probe"], row["eps"]), 0.0)
        per_eps[(row["probe"], row["eps"])] = max(
            per_eps[(row["probe"], row["eps"])], row["q"])
    eps_stable = {}
    for probe in report.constants:
        vals = [v for (p, _), v in per_eps.items() if p == probe]
        eps_stable[probe] = max(vals) / min(vals)
    # an unconverged Lanczos lower bound would enter q unflagged
    converged = all(row["converged"] for row in report.rows)
    ok = (finite and converged and all(v <= 2.0 for v in z_stable.values())
          and all(v <= 2.0 for v in eps_stable.values()))
    frozen("quadratic_constant", max(report.constants.values()))
    announce(8, ok,
             f"empirical constants {report.constants} finite; all "
             f"{len(report.rows)} rows converged: {converged}; stability "
             f"across |z| decades {z_stable} and across eps-halvings "
             f"{eps_stable} all within x2")
