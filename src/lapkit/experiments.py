"""Headline experiments tying the norm machinery to the resolvent claims.

Each experiment consumes a resolved configuration, runs deterministically
under its seed, and emits a Report whose checks each cite one stable
anchor id.  Sweep experiments also produce CSV rows; radiation and
uniqueness produce vector dumps.  Numerical policy: every claimed
bound is checked with its explicit constant, limits are replaced by
slope statistics over the top half of a radius ladder, and quantities
can be gated on stability under doubling the box at fixed spacing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import replace

import numpy as np

from . import besov
from .config import ExperimentConfig
from .errors import ConfigError
from .operators import (Grid1D, RadialGrid, build_hamiltonian, gaussian_probe,
                        matched_absorber)
from .potential import (PotentialModel, WeightParams, bracket,
                        check_condition, load_v2_table, model_from_config,
                        weight_f)
from .reports import CheckResult, Report
from .resolvent import (Sector, ShiftedSolver, besov_bstar_estimate,
                        boundary_value, spectral_distance, weighted_opnorm)
from .weyl import FilterSpec, default_radius_ladder, radiation_filter

__all__ = ["run_experiment", "run_besov_selftest", "run_check_potential",
           "run_lap_sweep", "run_besov_bound", "run_radiation",
           "run_uniqueness", "build_grid", "build_model", "build_sector",
           "SLOPE_DECREASING", "SLOPE_FLAT"]

# slope thresholds separating "decreasing" from "non-decreasing" ladders;
# the gap between them is an inconclusive dead zone
SLOPE_DECREASING = -0.2
SLOPE_FLAT = -0.05

STABILITY_RTOL = 0.05

# calibrated quantization parameters for the radiation filters: the
# kinetic cutoff plateau margin above C_0', its ramp width, and the
# direction cutoff ramp width (all in symbol units); ramps much
# narrower than the local frequency resolution leak on coarse grids
FILTER_MARGIN = 2.0
FILTER_FALL = 1.0
FILTER_TILDE_WIDTH = 0.8


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_model(cfg: ExperimentConfig) -> PotentialModel | None:
    if cfg.model["family"] == "free":
        return None
    try:
        model = model_from_config(cfg.model)
        if cfg.model.get("v2_table"):
            model = replace(model, v2=load_v2_table(cfg.model["v2_table"]),
                            v2_tail=(cfg.model["v2_delta"], cfg.model["v2_c"],
                                     cfg.model["v2_r"]))
    except OSError as exc:
        raise ConfigError(f"cannot read V2 table: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc
    return model


def build_grid(cfg: ExperimentConfig):
    kind = cfg.grid["kind"]
    try:
        if kind == "line":
            return Grid1D(cfg.grid["length"], cfg.grid["size"])
        if kind == "radial":
            return RadialGrid(cfg.grid["length"], cfg.grid["size"],
                              dim=cfg.model["dim"], ell=cfg.grid["ell"])
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    raise ConfigError(f"unknown grid kind {kind!r}")


def build_sector(cfg: ExperimentConfig) -> Sector:
    try:
        return Sector(theta=cfg.sector["theta"], lambda0=cfg.sector["lambda0"])
    except ValueError as exc:
        raise ConfigError(f"bad sector: {exc}") from exc


def _weight_s(cfg: ExperimentConfig, model: PotentialModel | None) -> float:
    if cfg.experiment["weight_s"] is not None:
        return cfg.experiment["weight_s"]
    s0 = model.s0 if model is not None else 0.5 + cfg.model["mu"] / 4.0
    return s0 + 0.05


def _report(cfg: ExperimentConfig) -> Report:
    return Report(experiment=cfg.experiment_id, seed=cfg.seed,
                  config=cfg.resolved_dict())


# ---------------------------------------------------------------------------
# besov-selftest
# ---------------------------------------------------------------------------

def _chain_constant(vals, scheme, s):
    """Sharp per-spectrum constant for the weighted-space embeddings."""
    total = 0.0
    br = bracket(vals)
    for nodes, radius in zip(*scheme.shells(vals)):
        if nodes.size:
            total += radius * float(np.max(br[nodes] ** (-2.0 * s)))
    return math.sqrt(total)


def run_besov_selftest(cfg: ExperimentConfig, overrides=None) -> Report:
    """Exercise every shell-norm inequality on random and adversarial banks.

    ``overrides`` replaces selected constants (fault injection for the
    harness itself); any resulting violation is reported with the
    witness vector serialized.
    """
    overrides = dict(overrides or {})
    rng = np.random.default_rng(cfg.seed)
    report = _report(cfg)
    scheme = besov.ShellScheme(2.0)
    n_samples = cfg.experiment["samples"]

    grid = Grid1D(30.0, 256)
    spectra = {
        "abs_x": np.abs(grid.nodes),
        "signed_x": grid.nodes,
        "bracket_x": bracket(grid.nodes),
    }
    banks = {name: besov.sample_vectors(vals, scheme, n_samples, rng)
             for name, vals in spectra.items()}

    # partition exactness and scale homogeneity
    worst_part = 0.0
    worst_homog = 0.0
    for name, vals in spectra.items():
        for u in banks[name]:
            prof = besov.shell_decompose(u, vals, scheme)
            nrm2 = prof.total_norm**2
            if nrm2 == 0:
                continue
            worst_part = max(worst_part, abs(np.sum(prof.shell_norms**2) - nrm2) / nrm2)
            alpha = 0.5 + float(rng.random()) * 3.0
            worst_homog = max(
                worst_homog,
                abs(besov.besov_norm(alpha * u, vals, scheme) - alpha * prof.besov)
                / max(alpha * prof.besov, 1e-300))
    report.add(CheckResult("shell-partition-exactness", "shell-partition",
                           worst_part <= 1e-12, worst_part, 1e-12,
                           description="sum of squared shell norms equals the squared norm"))
    report.add(CheckResult("norm-homogeneity", "norm-homogeneity",
                           worst_homog <= 1e-12, worst_homog, 1e-12,
                           description="all norms are degree-1 homogeneous"))

    # duality sandwich with constant exactly 2
    duality_c = overrides.get("duality_constant", 2.0)
    worst_hi = 0.0
    worst_lo = 0.0
    duality_witness = None
    for name, vals in spectra.items():
        for u in banks[name]:
            prof = besov.shell_decompose(u, vals, scheme)
            if prof.dual == 0:
                continue
            hi = prof.ball_sup / (duality_c * prof.dual)
            lo = prof.dual / prof.ball_sup
            if hi > worst_hi:
                worst_hi = hi
                if hi > 1 + 1e-12:
                    duality_witness = u
            worst_lo = max(worst_lo, lo)
    passed = worst_hi <= 1 + 1e-12 and worst_lo <= 1 + 1e-12
    check = CheckResult("duality-sandwich", "duality-sandwich",
                        passed, max(worst_hi, worst_lo), 1.0,
                        description=f"dual norm <= ball sup <= {duality_c} x dual norm")
    report.add(check)
    if duality_witness is not None:
        report.extras["duality_witness"] = [[z.real, z.imag] for z in duality_witness]

    # embedding chain with per-spectrum sharp constants (s = 1)
    s_emb = 1.0
    worst_chain = 0.0
    for name, vals in spectra.items():
        c_s = _chain_constant(vals, scheme, s_emb)
        br = bracket(vals)
        for u in banks[name]:
            u = np.asarray(u, dtype=complex)
            prof = besov.shell_decompose(u, vals, scheme)
            l2 = prof.total_norm
            if l2 == 0:
                continue
            l2_half = float(np.linalg.norm(br**0.5 * u))
            l2_mhalf = float(np.linalg.norm(br**-0.5 * u))
            l2_s = float(np.linalg.norm(br**s_emb * u))
            l2_ms = float(np.linalg.norm(br**-s_emb * u))
            ratios = (
                l2 / prof.besov,
                prof.dual / (2**0.25 * l2_mhalf),
                l2_half / (2**0.25 * prof.besov),
                prof.besov / (c_s * l2_s),
                l2_ms / (c_s * prof.dual),
                l2_mhalf / l2,
                l2 / l2_half,
            )
            worst_chain = max(worst_chain, max(ratios))
    report.add(CheckResult("embedding-chain", "embedding-chain",
                           worst_chain <= 1 + 1e-12, worst_chain, 1.0,
                           description="weighted/shell space embeddings with explicit constants"))

    # base-change equivalence
    for p in (4.0, 3.0, 1.5):
        rep = besov.verify_base_equivalence(banks["abs_x"], spectra["abs_x"],
                                            p, seed=cfg.seed)
        report.add(CheckResult(f"base-equivalence-p{p:g}", "base-equivalence",
                               rep.passed, rep.worst_ratio, 1.0,
                               description=f"both base-{p:g} constants hold"))
        report.extras[f"base_equivalence_p{p:g}"] = rep.to_dict()

    # weight scaling, with an injectable constant
    scale_c = overrides.get("scaling_constant", 8.0)
    for c in (1.0, 4.0, 1.0 / 3.0):
        rep = besov.verify_scaling(banks["abs_x"], spectra["abs_x"], c,
                                   seed=cfg.seed)
        ratio = rep.worst_ratio * 8.0 / scale_c
        passed = ratio <= 1 + 1e-12 and rep.passed
        report.add(CheckResult(f"weight-scaling-c{c:g}", "weight-scaling",
                               passed, ratio, 1.0,
                               description=f"scaled-norm bound {scale_c:g}|c|^1/2"
                                           f" (and 3|c|^1/2 for |c| <= 1)"))
        if not passed and rep.witness is not None:
            report.extras[f"scaling_witness_c{c:g}"] = rep.witness

    # power map on a spectrum bounded below by 1
    for s in (0.0, 1.0, -0.5):
        rep = besov.verify_power_map(banks["bracket_x"], spectra["bracket_x"],
                                     s, seed=cfg.seed)
        report.add(CheckResult(f"power-map-s{s:g}", "power-map",
                               rep.passed, rep.worst_ratio, 1.0,
                               description="both power-map direction constants hold"))

    # unit-width block bound against the dense shell-pair norm (N <= 128)
    n_small = 128
    small_grid = Grid1D(16.0, n_small)
    a_small = np.abs(small_grid.nodes)
    body = rng.standard_normal((n_small, n_small)) + 1j * rng.standard_normal((n_small, n_small))
    band = np.abs(np.subtract.outer(np.arange(n_small), np.arange(n_small))) <= 8
    t_band = np.where(band, body, 0.0)
    block_factor = overrides.get("block_factor", 2.0)
    bb = besov.schur_block_bound(t_band, a_small, a_small, rng=rng)
    exact = besov.bstar_norm_dense(t_band, a_small, a_small, scheme)
    upper = block_factor * bb.block_sup
    sandwich_ok = bb.probe_lower <= exact * (1 + 1e-9) and exact <= upper * (1 + 1e-9)
    report.add(CheckResult("unit-block-sandwich", "unit-block-factor-2",
                           sandwich_ok, exact / upper if upper else math.inf, 1.0,
                           description="probe lower <= exact shell-dual norm <= "
                                       f"{block_factor:g} x block sup"))
    report.extras["unit_block"] = {"probe_lower": bb.probe_lower,
                                   "exact": exact, "upper": upper}

    # accretive block combination
    skew = body - body.conj().T
    t_acc = np.eye(n_small) + np.where(band, skew, 0.0)
    bb_acc = besov.schur_block_bound(t_acc, a_small, a_small, rng=rng)
    acc_ok = (bb_acc.accretive and
              bb_acc.block_sup <= bb_acc.accretive_bound * (1 + 1e-9))
    report.add(CheckResult("accretive-blocks", "accretive-block-combination",
                           acc_ok,
                           bb_acc.block_sup / bb_acc.accretive_bound
                           if bb_acc.accretive_bound else math.inf, 1.0,
                           description="block sup dominated by 2C1 + C2 + C3"))

    # interpolation ratio stability across refinement
    ratios = []
    for n in (64, 128, 256):
        g = Grid1D(16.0, n)
        vals = np.abs(g.nodes)
        phases = np.exp(2j * math.pi * rng.random(n))
        t_diag = np.diag(phases)
        rep = besov.verify_interpolation(t_diag, vals, vals, s=1.0, rng=rng,
                                         seed=cfg.seed)
        ratios.append(rep.worst_ratio)
    spread = max(ratios) / max(min(ratios), 1e-300)
    report.add(CheckResult("interpolation-stability", "interpolation-stability",
                           spread <= 2.0, spread, 2.0,
                           description="probe interpolation ratio stable under refinement"))
    report.extras["interpolation_ratios"] = ratios
    return report


# ---------------------------------------------------------------------------
# check-potential
# ---------------------------------------------------------------------------

def run_check_potential(cfg: ExperimentConfig) -> Report:
    model = build_model(cfg)
    if model is None:
        raise ConfigError("check-potential requires a potential family")
    grid = build_grid(cfg)
    report = _report(cfg)
    cond = check_condition(model, np.abs(grid.nodes))
    for res in cond.results:
        report.add(CheckResult(
            f"hypothesis-{res.index}", f"condition-hypothesis-{res.index}",
            res.passed, res.margin, 0.0, comparison=">=",
            description=res.description))
    report.extras["witnesses"] = {str(r.index): r.witness for r in cond.results}
    return report


# ---------------------------------------------------------------------------
# lap-sweep and besov-bound
# ---------------------------------------------------------------------------

def _sweep_quantities(h_op, model, grid, z, weight_s, rng):
    """Sweep quantities at one z, from one factorization of h_op - z.

    The plain norm is exact, 1 / dist(z, spectrum), and the distance is
    returned too.  Besides the (lower, upper) pairs it returns the
    residual of a probe solve and the count of power runs and of those
    that stopped at ``maxiter`` without converging.
    """
    solver = ShiftedSolver(h_op, z)
    x = grid.nodes
    dist = spectral_distance(h_op, z)
    out = {"unweighted": (1.0 / dist, None), "_distance": dist}
    mu = model.mu if model is not None else 1.0
    fvals = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=mu), x)
    wgt = bracket(x) ** (-weight_s) * np.sqrt(fvals)
    wei = weighted_opnorm(solver, z, wgt, wgt, rng=rng)
    out["weighted"] = (wei.lower, None)
    runs, unconverged = 1, int(not wei.converged)
    if model is not None:
        est = besov_bstar_estimate(solver, z, model, grid, rng=rng)
        out["shell_dual"] = (est.lower, est.upper)
        runs += est.details["diagonal_pair_runs"]
        unconverged += est.details["unconverged_pair_runs"]
    else:
        out["shell_dual"] = (math.nan, math.nan)
    probe = gaussian_probe(grid, width=2.0)
    out["_residual"] = solver.residual(solver.solve(probe), probe)
    out["_power_runs"] = (runs, unconverged)
    return out


def run_lap_sweep(cfg: ExperimentConfig,
                  quantities=("unweighted", "weighted", "shell_dual")) -> Report:
    """Sector sweep of resolvent norm estimates with growth-exponent fits.

    For a certified model the low-energy theory predicts the weighted
    and shell-dual quantities stay bounded as |z| -> 0 while the plain
    norm grows like 1/dist(z, spectrum); the fitted exponents check
    that contrast.  The plain norm is that reciprocal distance, exact
    from the spectrum of the self-adjoint H; power iteration remains
    only for the weighted norm and the diagonal shell pairs.  Rows
    failing the box-doubling stability gate are flagged and left out
    of the fits.  A free control run (family = free) records values
    without pass thresholds.
    """
    model = build_model(cfg)
    grid = build_grid(cfg)
    if not isinstance(grid, Grid1D):
        raise ConfigError("sweeps run on the 1-d line grid")
    sector = build_sector(cfg)
    rng = np.random.default_rng(cfg.seed)
    report = _report(cfg)
    weight_s = _weight_s(cfg, model)
    rays = cfg.sector["rays"] or [sector.default_ray()]
    moduli = sorted(cfg.sector["moduli"], reverse=True)
    control = model is None
    if control:
        quantities = tuple(q for q in quantities if q != "shell_dual")
        report.extras["control_run"] = True

    rows = []
    fits = {}
    power_runs = np.zeros(2, dtype=int)         # runs, unconverged
    h_op = build_hamiltonian(model, grid)
    if cfg.experiment["stability_check"]:
        wide_grid = grid.widen()
        h_wide = build_hamiltonian(model, wide_grid)
    distances = report.extras.setdefault("distance_to_spectrum", {})
    for arg in rays:
        per_quantity: dict[str, list] = {q: [] for q in quantities}
        for z in sector.points(moduli, rays=[arg]):
            base = _sweep_quantities(h_op, model, grid, z, weight_s, rng)
            residual = base["_residual"]
            power_runs += base["_power_runs"]
            distances[repr(z)] = base["_distance"]
            if cfg.experiment["stability_check"]:
                wide = _sweep_quantities(h_wide, model, wide_grid, z, weight_s,
                                         rng)
                power_runs += wide["_power_runs"]
            else:
                wide = None
            for q in quantities:
                lo, up = base[q]
                stable = True
                if wide is not None:
                    wlo = wide[q][0]
                    stable = abs(wlo - lo) <= STABILITY_RTOL * max(abs(lo), 1e-300)
                    if up is not None and wide[q][1] is not None:
                        stable = stable and (abs(wide[q][1] - up)
                                             <= STABILITY_RTOL * max(abs(up), 1e-300))
                rows.append({
                    "re_z": z.real, "im_z": z.imag, "abs_z": abs(z),
                    "arg_z": cmath.phase(z), "quantity": q,
                    "lower": lo, "upper": "" if up is None else up,
                    "residual": residual, "stable": stable,
                })
                if stable:
                    per_quantity[q].append((abs(z), lo, up))
        for q, triples in per_quantity.items():
            if len(triples) >= 2:
                mods = [t[0] for t in triples]
                fits[f"{q}_lower_exponent_ray{arg:.4f}"] = besov.loglog_slope(
                    mods, [t[1] for t in triples])
                if all(t[2] is not None for t in triples):
                    fits[f"{q}_upper_exponent_ray{arg:.4f}"] = besov.loglog_slope(
                        mods, [t[2] for t in triples])

    report.extras["fits"] = fits
    report.extras["rows"] = len(rows)
    report.extras["solver_health"] = {
        "power_runs": int(power_runs[0]),
        "unconverged_power_runs": int(power_runs[1])}
    default_arg = rays[0]
    if not control:
        key = f"unweighted_lower_exponent_ray{default_arg:.4f}"
        if "unweighted" in quantities and key in fits:
            report.add(CheckResult(
                "unweighted-growth", "resolvent-blowup-rate",
                fits[key] <= -0.85, fits[key], -0.85,
                description="plain resolvent norm grows like a negative power"))
        if "weighted" in quantities:
            key = f"weighted_lower_exponent_ray{default_arg:.4f}"
            if key in fits:
                report.add(CheckResult(
                    "weighted-boundedness", "weighted-resolvent-bound",
                    fits[key] >= SLOPE_DECREASING, fits[key], SLOPE_DECREASING,
                    comparison=">=",
                    description="weighted resolvent stays bounded along the ray"))
        if "shell_dual" in quantities:
            for side in ("lower", "upper"):
                key = f"shell_dual_{side}_exponent_ray{default_arg:.4f}"
                if key in fits:
                    report.add(CheckResult(
                        f"shell-dual-{side}-boundedness", "shell-dual-resolvent-bound",
                        fits[key] >= SLOPE_DECREASING, fits[key], SLOPE_DECREASING,
                        comparison=">=",
                        description=f"shell-space {side} bound stays bounded"))
    report.extras["csv_rows"] = rows
    return report


def run_besov_bound(cfg: ExperimentConfig) -> Report:
    return run_lap_sweep(cfg, quantities=("shell_dual",))


# ---------------------------------------------------------------------------
# radiation
# ---------------------------------------------------------------------------

def _cap_operator(model, grid, cfg):
    """(H + cap, cap, H); cap is None, and H + cap is H, without a layer."""
    h_op = build_hamiltonian(model, grid)
    eta = cfg.grid["absorber_strength"]
    if eta > 0:
        kappa = model.kappa_low_energy if model is not None else 1.0
        mu = model.mu if model is not None else cfg.model["mu"]
        cap = matched_absorber(grid, mu=mu, kappa=kappa, strength=eta,
                               width_fraction=cfg.grid["absorber_width_fraction"])
        return h_op + cap, cap, h_op
    return h_op, None, h_op


def run_radiation(cfg: ExperimentConfig) -> Report:
    """Microlocal filters applied to the two zero-energy boundary values.

    The outgoing solution must lose its normalized ball norms after
    the cutoff removing the outgoing phase-space region (and after the
    high-frequency cutoff), while the mirrored cutoff keeps them from
    vanishing; the incoming solution swaps the roles.  Vanishing is
    judged by the log-log slope over the top half of the radius ladder
    and by the annulus defect falling below 20% between the reference
    radius 32 and half the box.  The incoming value is the conjugate of
    the outgoing one; an independent ladder along the conjugate ray
    checks that identity.
    """
    model = build_model(cfg)
    if model is None:
        raise ConfigError("radiation requires a certified potential")
    grid = build_grid(cfg)
    if not isinstance(grid, Grid1D):
        raise ConfigError("radiation runs on the 1-d line grid")
    sector = build_sector(cfg)
    rng_seed = cfg.seed
    report = _report(cfg)
    h_cap, _, _ = _cap_operator(model, grid, cfg)
    v = gaussian_probe(grid, center=cfg.experiment["source_center"],
                       width=cfg.experiment["source_width"])
    weight_s = _weight_s(cfg, model)
    arg = (cfg.sector["rays"] or [sector.default_ray()])[0]
    ratio = cfg.sector["ratio"]
    steps = cfg.sector["steps"]
    tol = cfg.experiment["tolerance"]

    plus = boundary_value(h_cap, v, grid, sector=sector, ray_arg=arg,
                          ratio=ratio, tol=tol, sign=+1, max_steps=steps,
                          weight_s=weight_s)
    # R(0 - i0) v = conj(R(0 + i0) conj(v)), and the gaussian source is
    # real, so conj(v) == v and the incoming value needs no solve
    u_minus = np.conj(plus.u)
    report.extras["ladder_plus"] = plus.diffs
    report.extras["final_z"] = [plus.final_z.real, plus.final_z.imag]
    # the ladder stops on the relative test d <= tol ||w u||
    scale = float(np.linalg.norm(bracket(grid.nodes) ** (-weight_s) * plus.u))
    report.add(CheckResult(
        "boundary-value-converged", "boundary-value-ladder",
        plus.converged, plus.diffs[-1] / scale if plus.diffs else 0.0, tol,
        description="weighted difference ladder reached tolerance"))

    # independent incoming run along the conjugate ray
    incoming = boundary_value(h_cap, v, grid, sector=sector, ray_arg=arg,
                              ratio=ratio, tol=tol, sign=-1, max_steps=steps,
                              weight_s=weight_s)
    conj_gap = float(np.linalg.norm(incoming.u - u_minus)
                     / max(np.linalg.norm(incoming.u), 1e-300))
    report.add(CheckResult(
        "incoming-conjugation", "incoming-conjugation",
        conj_gap <= 1e-8, conj_gap, 1e-8,
        description="conjugated outgoing run equals the direct incoming run"))

    spec = FilterSpec.for_model(model, sigma_cut=cfg.experiment["sigma_cut"],
                                neighborhood_margin=FILTER_MARGIN,
                                fall_width=FILTER_FALL,
                                tilde_width=FILTER_TILDE_WIDTH)
    half_box = grid.length / 2.0
    # both boundary values go through each symbol table together
    block = np.column_stack((plus.u, u_minus))
    results = {}
    for mode in ("outgoing", "high", "mirrored"):
        filtered = radiation_filter(block, spec, model, grid, mode=mode)
        for label, res in zip(("plus", "minus"), filtered):
            results[(label, mode)] = res

    def slope_check(check_id, result, threshold, decreasing):
        slope = result.annulus_slope
        ok = slope <= threshold if decreasing else slope >= threshold
        report.add(CheckResult(
            check_id,
            "outgoing-filter-vanishing" if decreasing else "mirrored-filter-asymmetry",
            bool(ok), slope, threshold,
            comparison="<=" if decreasing else ">=",
            description=("defect ladder decreasing" if decreasing
                         else "defect ladder non-decreasing")))
        return slope

    # outgoing solution: outgoing and high filters vanish, mirror does not
    slope_check("plus-outgoing-slope", results[("plus", "outgoing")],
                SLOPE_DECREASING, True)
    slope_check("plus-high-slope", results[("plus", "high")],
                SLOPE_DECREASING, True)
    slope_check("plus-mirrored-slope", results[("plus", "mirrored")],
                SLOPE_FLAT, False)
    # incoming solution: roles of the direction filters swap
    slope_check("minus-mirrored-slope", results[("minus", "mirrored")],
                SLOPE_DECREASING, True)
    slope_check("minus-high-slope", results[("minus", "high")],
                SLOPE_DECREASING, True)
    slope_check("minus-outgoing-slope", results[("minus", "outgoing")],
                SLOPE_FLAT, False)

    for check_id, key in (("plus-outgoing-far-ratio", ("plus", "outgoing")),
                          ("plus-high-far-ratio", ("plus", "high"))):
        res = results[key]
        near = res.defect_at(32.0, annulus=True)
        far = res.defect_at(half_box, annulus=True)
        ratio_far = far / max(near, 1e-300)
        report.add(CheckResult(
            check_id, "outgoing-filter-vanishing",
            ratio_far <= 0.2, ratio_far, 0.2,
            description="annulus defect at half box <= 20% of its value at 32"))

    report.extras["defect_ladders"] = {
        f"{label}_{mode}": {
            "ladder": res.ladder.tolist(),
            "ball": res.ball_defect.tolist(),
            "annulus": res.annulus_defect.tolist(),
            "ball_slope": res.ball_slope,
            "degenerate": res.degenerate,
        }
        for (label, mode), res in results.items()
    }
    report.extras["incoming_ladder"] = incoming.diffs
    report.extras["seed"] = rng_seed
    report.artifacts["vectors"] = {
        "u_plus": plus.u, "u_minus": u_minus, "source": v,
    }
    return report


# ---------------------------------------------------------------------------
# uniqueness
# ---------------------------------------------------------------------------

def run_uniqueness(cfg: ExperimentConfig) -> Report:
    """Null-vector asymmetry: the two boundary values differ, their
    difference solves the homogeneous equation in the interior, and it
    fails the outgoing condition.

    Zero-energy solves go through the absorbing layer, so the residual
    of H w is supported inside the layer and the interior residual is
    at solver level; a vanishing difference is reported inconclusive
    (over-damping), not as success.
    """
    model = build_model(cfg)
    if model is None:
        raise ConfigError("uniqueness requires a certified potential")
    grid = build_grid(cfg)
    if not isinstance(grid, Grid1D):
        raise ConfigError("uniqueness runs on the 1-d line grid")
    report = _report(cfg)
    if cfg.grid["absorber_strength"] <= 0:
        raise ConfigError("uniqueness needs the absorbing layer enabled")
    h_cap, cap, h_plain = _cap_operator(model, grid, cfg)
    v = gaussian_probe(grid, center=cfg.experiment["source_center"],
                       width=cfg.experiment["source_width"])
    if np.linalg.norm(v) == 0.0:
        report.extras["trivial"] = True
        report.add(CheckResult("trivial-source", "uniqueness-null-difference",
                               True, 0.0, 0.0,
                               description="zero source gives the zero solution"))
        return report

    solver_plus = ShiftedSolver(h_cap, 0.0)
    u_plus = solver_plus.solve(v)
    u_minus = solver_plus.solve_adjoint(v)
    w = u_plus - u_minus

    cap_diag = np.zeros(len(v)) if cap is None else np.abs(cap.diagonal())
    untouched = cap_diag == 0.0
    # one stencil row of separation from the layer
    interior = untouched.copy()
    interior[1:] &= untouched[:-1]
    interior[:-1] &= untouched[1:]
    norm_w = float(np.linalg.norm(w))
    norm_plus = float(np.linalg.norm(u_plus))
    if norm_w <= 1e-10 * norm_plus:
        report.inconclusive = True
        report.add(CheckResult(
            "null-difference-magnitude", "uniqueness-null-difference",
            False, norm_w / max(norm_plus, 1e-300), 0.1, comparison=">=",
            description="boundary values coincide: possible over-damping"))
        return report

    resid_vec = h_plain @ w
    interior_resid = float(np.linalg.norm(resid_vec[interior])) / norm_w
    report.add(CheckResult(
        "interior-null-residual", "uniqueness-null-difference",
        interior_resid <= 1e-6, interior_resid, 1e-6,
        description="H w vanishes away from the absorbing layer"))
    report.add(CheckResult(
        "null-difference-magnitude", "uniqueness-null-difference",
        norm_w >= 0.1 * norm_plus, norm_w / norm_plus, 0.1, comparison=">=",
        description="the two boundary values genuinely differ"))

    spec = FilterSpec.for_model(model, sigma_cut=cfg.experiment["sigma_cut"],
                                neighborhood_margin=FILTER_MARGIN,
                                fall_width=FILTER_FALL,
                                tilde_width=FILTER_TILDE_WIDTH)
    ladder = default_radius_ladder(grid)
    filt = radiation_filter(w, spec, model, grid, ladder=ladder,
                            mode="outgoing")
    report.add(CheckResult(
        "null-outgoing-slope", "mirrored-filter-asymmetry",
        filt.annulus_slope >= SLOPE_FLAT, filt.annulus_slope, SLOPE_FLAT,
        comparison=">=",
        description="null difference fails the outgoing condition"))

    plain = besov.defect_ladder(w, grid.nodes, ladder, exponent=model.s0,
                                annulus_eps=0.5)
    half = len(ladder) // 2
    plain_slope = besov.loglog_slope(ladder[half:], plain[half:])
    report.add(CheckResult(
        "null-ball-norm-growth", "null-vector-growth",
        plain_slope >= SLOPE_FLAT, plain_slope, SLOPE_FLAT, comparison=">=",
        description="normalized ball norms of the null difference do not vanish"))
    report.extras["defect_ladder"] = {"ladder": list(map(float, ladder)),
                                      "outgoing": filt.ball_defect.tolist(),
                                      "plain": plain.tolist()}
    report.artifacts["vectors"] = {"u_plus": u_plus, "u_minus": u_minus,
                                   "null_difference": w}
    return report


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

_RUNNERS = {
    "besov-selftest": run_besov_selftest,
    "check-potential": run_check_potential,
    "lap-sweep": run_lap_sweep,
    "besov-bound": run_besov_bound,
    "radiation": run_radiation,
    "uniqueness": run_uniqueness,
}


def run_experiment(cfg: ExperimentConfig, **kwargs) -> Report:
    runner = _RUNNERS.get(cfg.experiment_id)
    if runner is None:
        raise ConfigError(f"unknown experiment id {cfg.experiment_id!r}")
    return runner(cfg, **kwargs)
