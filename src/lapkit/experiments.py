"""Headline experiments tying the norm machinery to the resolvent claims.

Each experiment consumes a resolved configuration, runs deterministically
under its seed, and emits a Report whose checks each cite one stable
anchor id.  The sweep also produces CSV rows; radiation dumps the
outgoing value and its source.  Numerical policy: every claimed
bound is checked with its explicit constant, limits are replaced by
slope statistics over the top half of a radius ladder, and sweep
quantities are gated on box doubling at fixed spacing.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import besov, resolvent
from .config import ExperimentConfig
from .errors import ConfigError
from .grids import Grid1D, RadialGrid
from .operators import build_hamiltonian, gaussian_probe, matched_absorber
from .potential import (PotentialModel, WeightParams, bracket,
                        check_condition, model_from_config, standard_model,
                        weight_exponent, weight_f)
from .reports import CheckResult, Report
from .resolvent import (RAY, ShiftedSolver, besov_bstar_estimate,
                        boundary_value, spectral_distance, weighted_opnorm)
from .weyl import ANNULUS_EPS, REFERENCE_RADIUS, radiation_filter

__all__ = ["run_experiment", "run_besov_selftest", "run_check_potential",
           "run_lap_sweep", "run_radiation",
           "run_uniqueness", "build_grid", "build_model",
           "SLOPE_DECREASING", "SLOPE_FLAT"]

# slope thresholds separating "decreasing" from "non-decreasing" ladders;
# the gap between them is an inconclusive dead zone
SLOPE_DECREASING = -0.2
SLOPE_FLAT = -0.05

STABILITY_RTOL = 0.05

SAMPLES = 200       # random rows per self-test bank

# width of the Gaussian at the origin: zero-energy source and sweep probe
SOURCE_WIDTH = 2.0


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def build_model(cfg: ExperimentConfig) -> PotentialModel | None:
    if cfg.model["family"] == "free":
        return None
    try:
        return model_from_config(cfg.model)
    except ValueError as exc:
        raise ConfigError(f"bad model: {exc}") from exc


def build_grid(cfg: ExperimentConfig):
    kind = cfg.grid["kind"]
    try:
        if kind == "line":
            return Grid1D(cfg.grid["length"], cfg.grid["size"])
        if kind == "radial":
            return RadialGrid(cfg.grid["length"], cfg.grid["size"],
                              dim=cfg.model["dim"])
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    raise ConfigError(f"unknown grid kind {kind!r}")


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


def run_besov_selftest(cfg: ExperimentConfig) -> Report:
    """Exercise every shell-norm inequality on random and adversarial banks.

    A violated duality, base-change or scaling bound is reported with
    its witness vector serialized.
    """
    rng = besov.Stream(cfg.seed)
    report = _report(cfg)
    scheme = besov.ShellScheme(2.0)

    grid = Grid1D(30.0, 256)
    spectra = {
        "abs_x": np.abs(grid.nodes),
        "signed_x": grid.nodes,
        "bracket_x": bracket(grid.nodes),
    }
    banks = {name: besov.sample_vectors(vals, scheme, SAMPLES, rng)
             for name, vals in spectra.items()}
    profiles = {name: besov.shell_decompose(banks[name], vals, scheme)
                for name, vals in spectra.items()}

    # partition exactness and scale homogeneity
    worst_part = 0.0
    worst_homog = 0.0
    for name, vals in spectra.items():
        prof = profiles[name]
        nrm2 = prof.total_norm**2
        live = nrm2 != 0
        part = np.abs(np.sum(prof.shell_norms[live]**2, axis=1) - nrm2[live]) / nrm2[live]
        worst_part = max(worst_part, float(np.max(part, initial=0.0)))
        # one draw per nonzero row, in bank order
        alpha = 0.5 + rng.random(np.count_nonzero(live)) * 3.0
        scaled = alpha * prof.besov[live]
        homog = (np.abs(besov.besov_norm(alpha[:, None] * banks[name][live], vals, scheme)
                        - scaled) / np.maximum(scaled, 1e-300))
        worst_homog = max(worst_homog, float(np.max(homog, initial=0.0)))
    report.add(CheckResult("shell-partition-exactness", "shell-partition",
                           worst_part, 1e-12, "<=",
                           "sum of squared shell norms equals the squared norm"))
    report.add(CheckResult("norm-homogeneity", "norm-homogeneity",
                           worst_homog, 1e-12, "<=",
                           "all norms are degree-1 homogeneous"))

    # duality sandwich with constant exactly 2; the witness is the first
    # row, over the banks in turn, that attains the worst upper ratio
    his, los, where = [], [], []
    for name in spectra:
        prof = profiles[name]
        live = np.flatnonzero(prof.dual)
        his.append(prof.ball_sup[live] / (2.0 * prof.dual[live]))
        los.append(prof.dual[live] / prof.ball_sup[live])
        where += [(name, i) for i in live]
    his, los = np.concatenate(his), np.concatenate(los)
    worst_hi = float(np.max(his, initial=0.0))
    worst_lo = float(np.max(los, initial=0.0))
    report.add(CheckResult("duality-sandwich", "duality-sandwich",
                           max(worst_hi, worst_lo), 1 + 1e-12, "<=",
                           "dual norm <= ball sup <= 2.0 x dual norm"))
    if worst_hi > 1 + 1e-12:
        name, i = where[int(np.argmax(his))]
        report.extras["duality_witness"] = [[z.real, z.imag] for z in banks[name][i]]

    # embedding chain with per-spectrum sharp constants (s = 1)
    s_emb = 1.0
    worst_chain = 0.0
    for name, vals in spectra.items():
        c_s = _chain_constant(vals, scheme, s_emb)
        br = bracket(vals)
        prof = profiles[name]
        live = prof.total_norm != 0
        l2, nb, dual = prof.total_norm[live], prof.besov[live], prof.dual[live]
        l2_half, l2_mhalf, l2_s, l2_ms = (besov._row_norms(br**e * banks[name])[live]
                                          for e in (0.5, -0.5, s_emb, -s_emb))
        ratios = (
            l2 / nb,
            dual / (2**0.25 * l2_mhalf),
            l2_half / (2**0.25 * nb),
            nb / (c_s * l2_s),
            l2_ms / (c_s * dual),
            l2_mhalf / l2,
            l2 / l2_half,
        )
        worst_chain = max(worst_chain, float(np.max(ratios, initial=0.0)))
    report.add(CheckResult("embedding-chain", "embedding-chain",
                           worst_chain, 1 + 1e-12, "<=",
                           "weighted/shell space embeddings with explicit constants"))

    # base-change equivalence, weight scaling and the power map (on a
    # spectrum bounded below by 1); a failure records its witness
    for verify, name, key, args in (
            (besov.verify_base_equivalence, "abs_x", "base_equivalence_witness_p",
             (4.0, 3.0, 1.5)),
            (besov.verify_scaling, "abs_x", "scaling_witness_c", (4.0, 1.0 / 3.0)),
            (besov.verify_power_map, "bracket_x", "power_map_witness_s", (1.0, -0.5))):
        # the scaling check projects its bank, so it takes no base-2 norms
        norms = () if verify is besov.verify_scaling else (profiles[name].besov,)
        for arg in args:
            check, witness = verify(banks[name], spectra[name], *norms, arg)
            report.add(check)
            if not check.passed and witness is not None:
                report.extras[f"{key}{arg:g}"] = witness
    del banks, profiles     # the dense stage reuses their pages

    # the sweep's shell-space bracket of T = f^{1/2} R(z) f^{1/2} (f at
    # lambda = |z|, K = 1) against the dense oracles, with T from a dense
    # inverse that shares no code with the sweep's kernel; -iT is
    # accretive (Im R(z) = Im z R*R >= 0) and ||F(-iT)F|| = ||FTF||, so
    # one unit-block sup serves the upper side and the accretive bound
    grid = Grid1D(16.0, 128)
    h_op = build_hamiltonian(standard_model(1.0, 1.0, 1), grid)
    z = 1e-2 * RAY
    f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=1.0), grid.nodes)
    est = besov_bstar_estimate(ShiftedSolver(h_op, z), f, grid)
    fh, absx = np.sqrt(f), np.abs(grid.nodes)
    t = fh[:, None] * np.linalg.inv(h_op.toarray() - z * np.eye(grid.size)) * fh
    exact = besov.bstar_norm_dense(t, absx)
    # the diagonal pairs' Lanczos value against max_j ||T[S_j, S_j]|| / R_j
    exact_diagonal = float(max(np.linalg.norm(t[np.ix_(s, s)], 2) / r
                               for s, r in zip(*scheme.shells(absx)) if s.size))
    sup = besov.schur_block_bound(t, absx)
    bound = besov.accretive_bound(-1j * t, absx)
    for check_id, anchor, value, threshold, description in (
            ("bracket-lower-exact", "shell-pair-optimum", abs(est.lower / exact - 1),
             1e-12, "the sweep's lower bound is the exact shell-dual norm"),
            ("bracket-diagonal-pair-exact", "shell-pair-optimum",
             abs(est.diagonal / exact_diagonal - 1), 1e-12,
             "the sweep's diagonal shell pairs reach their dense max"),
            ("bracket-upper-block-sup", "unit-block-factor-2",
             abs(est.upper / (2.0 * sup) - 1), 1e-12,
             "the sweep's upper bound is twice the dense unit-block sup"),
            ("unit-block-bracket", "unit-block-factor-2",
             max(est.lower / exact, exact / est.upper), 1 + 1e-9,
             "lower <= exact shell-dual norm <= 2 x block sup"),
            ("accretive-blocks-resolvent", "accretive-block-combination",
             sup / bound if bound else math.inf, 1 + 1e-9,
             "block sup of -iT dominated by 2C1 + C2 + C3")):
        report.add(CheckResult(check_id, anchor, value, threshold, "<=", description))
    report.extras["unit_block"] = {"z": [z.real, z.imag], "lower": est.lower,
                                   "exact": exact, "upper": est.upper,
                                   "diagonal": est.diagonal,
                                   "exact_diagonal": exact_diagonal,
                                   "lanczos_steps": est.lanczos_steps,
                                   "converged": est.converged}
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
    checks, witnesses = check_condition(model, np.abs(grid.nodes))
    report.checks += checks
    report.extras["witnesses"] = {str(k): w for k, w in enumerate(witnesses, 1)}
    return report


# ---------------------------------------------------------------------------
# lap-sweep
# ---------------------------------------------------------------------------

def _sweep_quantities(solver, grid, mu):
    """The sweep quantities at z, from one factorization of H - z (``solver``).

    The plain norm is exact, 1 / dist(z, spectrum), and the distance is
    returned with it; the weighted norm, with weight <x>^-s f^{1/2} for
    s = weight_exponent(mu) and f = f_{|z|} at K = 1, is one Lanczos run
    from Stream(0), as the diagonal shell pairs' is, so no quantity reads
    the seed; the shell-space bracket reuses f.  Besides the (lower, upper)
    pairs it returns the quantities whose Lanczos run did not converge
    (the weighted norm's, or the diagonal shell pairs') and the Lanczos
    counts.
    """
    z, x = solver.z, grid.nodes
    f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=mu), x)
    distance = spectral_distance(solver.matrix, z)
    wgt = bracket(x) ** (-weight_exponent(mu)) * np.sqrt(f)
    wei = weighted_opnorm(solver, z, wgt, wgt, besov.Stream(0))
    est = besov_bstar_estimate(solver, f, grid)
    health = {"weighted_runs": 1,
              "unconverged_weighted_runs": int(not wei.converged),
              "lanczos_steps": est.lanczos_steps,
              "unconverged_shell_pairs": int(not est.converged)}
    return {
        "_distance": distance,
        "unweighted": (1.0 / distance, None),
        "weighted": (wei.lower, None),
        "shell_dual": (est.lower, est.upper),
        "_health": health,
        "_unconverged": {q for q, ok in (("weighted", wei.converged),
                                         ("shell_dual", est.converged)) if not ok},
    }


def run_lap_sweep(cfg: ExperimentConfig) -> Report:
    """Resolvent norm estimates on the sector bisector, with exponent fits.

    For a certified model the low-energy theory predicts the weighted
    and shell-dual quantities stay bounded as |z| -> 0 while the plain
    norm grows like 1/dist(z, spectrum); the fitted exponents check
    that contrast.  The plain norm is that reciprocal distance, exact
    from the spectrum of the self-adjoint H; the weighted norm and the
    shell-space bracket's diagonal shell pairs are Lanczos runs.  Rows
    failing the box-doubling stability gate, or whose Lanczos run (on
    either grid) did not converge, are flagged and left out of the
    fits; ``solver_health`` counts the weighted runs, the shell pairs'
    Lanczos steps, the unconverged runs and the flagged rows.  A free
    control run (family = free) records values without pass thresholds.
    """
    model = build_model(cfg)
    grid = build_grid(cfg)
    if not isinstance(grid, Grid1D):
        raise ConfigError("sweeps run on the 1-d line grid")
    report = _report(cfg)
    # a free run's f and s0 both read the configured mu
    mu = cfg.model["mu"] if model is None else model.mu
    moduli = sorted(cfg.sector["moduli"], reverse=True)
    control = model is None
    if control:
        report.extras["control_run"] = True

    rows = []
    fits = {}
    health = dict.fromkeys(("weighted_runs", "unconverged_weighted_runs",
                            "lanczos_steps", "unconverged_shell_pairs",
                            "unconverged_rows"), 0)
    h_op = build_hamiltonian(model, grid)
    wide_grid = grid.widen()
    h_wide = build_hamiltonian(model, wide_grid)
    distances = report.extras.setdefault("distance_to_spectrum", {})
    per_quantity = {q: [] for q in ("unweighted", "weighted", "shell_dual")}
    # the backward error of a probe solve on the base grid, in each row
    probe = gaussian_probe(grid, width=SOURCE_WIDTH)
    for z in (m * RAY for m in moduli):
        solver = ShiftedSolver(h_op, z)
        base = _sweep_quantities(solver, grid, mu)
        residual = solver.residual(solver.solve(probe), probe)
        del solver          # its factors are not held through the doubled box
        distances[repr(z)] = base["_distance"]
        wide = _sweep_quantities(ShiftedSolver(h_wide, z), wide_grid, mu)
        for part in (base, wide):
            for key, value in part["_health"].items():
                health[key] += value
        unconverged = base["_unconverged"] | wide["_unconverged"]
        for q, kept in per_quantity.items():
            lo, up = base[q]
            # an unconverged iteration flags its row like the gate does
            stable = q not in unconverged
            health["unconverged_rows"] += not stable
            if stable:
                # each side the quantity has, lower and (if any) upper
                stable = all(abs(w - b) <= STABILITY_RTOL * max(abs(b), 1e-300)
                             for b, w in zip(base[q], wide[q]) if b is not None)
            rows.append({
                "re_z": z.real, "im_z": z.imag, "abs_z": abs(z),
                "arg_z": cmath.phase(z), "quantity": q,
                "lower": lo, "upper": "" if up is None else up,
                "residual": residual, "stable": stable,
            })
            if stable:
                kept.append((abs(z), lo, up))
    for q, triples in per_quantity.items():
        if len(triples) >= 2:
            mods = [t[0] for t in triples]
            fits[f"{q}_lower_exponent"] = besov.loglog_slope(
                mods, [t[1] for t in triples])
            if all(t[2] is not None for t in triples):
                fits[f"{q}_upper_exponent"] = besov.loglog_slope(
                    mods, [t[2] for t in triples])

    report.extras["fits"] = fits
    report.extras["rows"] = len(rows)
    report.extras["solver_health"] = health
    # a fit missing (too few stable rows) omits its check
    checks = (
        ("unweighted_lower", "unweighted-growth", "resolvent-blowup-rate", -0.85,
         "<=", "plain resolvent norm grows like a negative power"),
        ("weighted_lower", "weighted-boundedness", "weighted-resolvent-bound",
         SLOPE_DECREASING, ">=", "weighted resolvent stays bounded along the ray"),
        ("shell_dual_lower", "shell-dual-lower-boundedness", "shell-dual-resolvent-bound",
         SLOPE_DECREASING, ">=", "shell-space lower bound stays bounded"),
        ("shell_dual_upper", "shell-dual-upper-boundedness", "shell-dual-resolvent-bound",
         SLOPE_DECREASING, ">=", "shell-space upper bound stays bounded"),
    )
    for fit, check_id, anchor, threshold, comparison, description in checks:
        key = f"{fit}_exponent"
        if not control and key in fits:
            report.add(CheckResult(check_id, anchor, fits[key], threshold,
                                   comparison, description))
    report.artifacts["csv_rows"] = rows
    return report


# ---------------------------------------------------------------------------
# radiation
# ---------------------------------------------------------------------------

def _line_problem(cfg: ExperimentConfig, name: str):
    """(model, grid, H, cap, source v, u_plus) of a zero-energy runner.

    The runner ``name`` needs a certified potential on the line grid;
    ``cap`` is the matched absorbing layer, and the source is the
    Gaussian of width SOURCE_WIDTH.  u_plus = (H + cap)^{-1} v is the
    outgoing zero-energy boundary value R(0 + i0) v, the layer standing
    in for +i0 (Riss & Meyer, J. Phys. B 26 (1993) 4503), from one solve
    at z = 0.  H + cap is complex symmetric and the source real, so the
    incoming value (H + cap)^{-*} v is its conjugate by construction.
    """
    model = build_model(cfg)
    if model is None:
        raise ConfigError(f"{name} requires a certified potential")
    grid = build_grid(cfg)
    if not isinstance(grid, Grid1D):
        raise ConfigError(f"{name} runs on the 1-d line grid")
    h_op = build_hamiltonian(model, grid)
    cap = matched_absorber(grid, mu=model.mu, kappa=model.kappa_low_energy)
    source = gaussian_probe(grid, width=SOURCE_WIDTH)
    return model, grid, h_op, cap, source, ShiftedSolver(h_op + cap, 0.0).solve(source)


def run_radiation(cfg: ExperimentConfig) -> Report:
    """Microlocal filters applied to the outgoing zero-energy boundary value.

    The outgoing value is ``_line_problem``'s capped solve at z = 0.
    A ray ladder toward 0 is evidence for the limiting absorption
    principle: its last iterate must lie within the tolerance of the
    outgoing value.  The outgoing value must lose its normalized ball
    norms after the cutoff removing the outgoing phase-space region (and
    after the high-frequency cutoff), while the mirrored cutoff keeps
    them from vanishing.  The incoming value is conj(u_plus) by
    construction for the real source, so it has the same ladders with
    the outgoing and mirrored roles swapped and is neither checked nor
    filtered.  Vanishing is judged by the log-log slope over the top
    half of the radius ladder and by the annulus defect falling below
    20% between REFERENCE_RADIUS and half the box.
    """
    model, grid, h_op, cap, v, u_plus = _line_problem(cfg, "radiation")
    report = _report(cfg)
    weight_s = weight_exponent(model.mu)

    plus = boundary_value(h_op + cap, v, grid, weight_s)
    report.extras["ladder_plus"] = plus.diffs
    report.extras["final_z"] = [plus.z_values[-1].real, plus.z_values[-1].imag]
    w = bracket(grid.nodes) ** (-weight_s)
    report.add(CheckResult(
        "boundary-value-converged", "boundary-value-ladder",
        float(np.linalg.norm(w * (plus.u - u_plus))
              / max(np.linalg.norm(w * u_plus), 1e-300)),
        resolvent.LADDER_TOL, "<=",
        "ray ladder ends within tolerance of the capped solve"))
    del plus, w         # the ladder is evidence only; the filters need neither

    # Op(mirrored) is conj(Op(outgoing)) entrywise (b0 odd in xi, a0 even),
    # so the outgoing filter of conj(u_plus) gives u_plus's mirrored ladders
    outgoing, mirrored = radiation_filter(np.stack((u_plus, np.conj(u_plus))),
                                          model, grid, mode="outgoing")
    filters = {"outgoing": outgoing,
               "high": radiation_filter(u_plus[None], model, grid, mode="high")[0],
               "mirrored": mirrored}
    for mode, res in filters.items():
        decreasing = mode != "mirrored"
        report.add(CheckResult(
            f"plus-{mode}-slope",
            "outgoing-filter-vanishing" if decreasing else "mirrored-filter-asymmetry",
            res.annulus_slope, SLOPE_DECREASING if decreasing else SLOPE_FLAT,
            "<=" if decreasing else ">=",
            "defect ladder decreasing" if decreasing
            else "defect ladder non-decreasing"))
    for mode in ("outgoing", "high"):
        res = filters[mode]
        near = res.defect_at(REFERENCE_RADIUS)
        report.add(CheckResult(
            f"plus-{mode}-far-ratio", "outgoing-filter-vanishing",
            res.defect_at(grid.length / 2.0) / max(near, 1e-300), 0.2, "<=",
            f"annulus defect at half box <= 20% of its value at {REFERENCE_RADIUS:g}"))

    report.extras["radius_ladder"] = outgoing.ladder.tolist()
    report.extras["defect_ladders"] = {
        f"plus_{mode}": {
            "ball": res.ball_defect.tolist(),
            "annulus": res.annulus_defect.tolist(),
            "ball_slope": res.ball_slope,
            "degenerate": res.degenerate,
        }
        for mode, res in filters.items()
    }
    # u_minus is conj(u_plus) bit for bit, so it is not dumped
    report.artifacts["vectors"] = {"u_plus": u_plus, "source": v}
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
    at solver level.  A vanishing difference (over-damping) is not
    success: its one check, ``null-difference-magnitude``, fails.
    """
    model, grid, h_plain, cap, _, u_plus = _line_problem(cfg, "uniqueness")
    report = _report(cfg)
    w = (u_plus - np.conj(u_plus))[None]    # the null difference, a one-row bank

    untouched = cap == 0.0
    # one stencil row of separation from the layer
    interior = untouched.copy()
    interior[1:] &= untouched[:-1]
    interior[:-1] &= untouched[1:]
    norm_w = float(np.linalg.norm(w))
    norm_plus = float(np.linalg.norm(u_plus))
    if norm_w <= 1e-10 * norm_plus:
        report.add(CheckResult(
            "null-difference-magnitude", "uniqueness-null-difference",
            norm_w / max(norm_plus, 1e-300), 0.1, ">=",
            "boundary values coincide: possible over-damping"))
        return report

    resid_vec = h_plain @ w[0]
    interior_resid = float(np.linalg.norm(resid_vec[interior])) / norm_w
    report.add(CheckResult(
        "interior-null-residual", "uniqueness-null-difference",
        interior_resid, 1e-6, "<=", "H w vanishes away from the absorbing layer"))
    report.add(CheckResult(
        "null-difference-magnitude", "uniqueness-null-difference",
        norm_w / norm_plus, 0.1, ">=", "the two boundary values genuinely differ"))

    filt = radiation_filter(w, model, grid, mode="outgoing")[0]
    report.add(CheckResult(
        "null-outgoing-slope", "mirrored-filter-asymmetry",
        filt.annulus_slope, SLOPE_FLAT, ">=",
        "null difference fails the outgoing condition"))

    ladder = filt.ladder
    plain = besov.defect_ladder(w, grid.nodes, ladder, model.s0, ANNULUS_EPS)[0]
    plain_slope = besov.tail_slope(ladder, plain)
    report.add(CheckResult(
        "null-ball-norm-growth", "null-vector-growth", plain_slope, SLOPE_FLAT, ">=",
        "normalized ball norms of the null difference do not vanish"))
    report.extras["defect_ladder"] = {"ladder": list(map(float, ladder)),
                                      "outgoing": filt.ball_defect.tolist(),
                                      "plain": plain.tolist()}
    return report


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

_RUNNERS = {
    "besov-selftest": run_besov_selftest,
    "check-potential": run_check_potential,
    "lap-sweep": run_lap_sweep,
    "radiation": run_radiation,
    "uniqueness": run_uniqueness,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    runner = _RUNNERS.get(cfg.experiment_id)
    if runner is None:
        raise ConfigError(f"unknown experiment id {cfg.experiment_id!r}")
    return runner(cfg)
