import json
import math
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from lapkit import besov, experiments, operators, resolvent, weyl
from lapkit.cli import _print_checks
from lapkit.cli import main as cli_main
from lapkit.config import (EXPERIMENT_IDS, config_schema_text, load_config,
                           parse_config_text)
from lapkit.errors import ConfigError, SolverError
from lapkit.experiments import (SLOPE_DECREASING, build_grid, build_model,
                                run_besov_selftest, run_check_potential,
                                run_experiment, run_lap_sweep, run_radiation,
                                run_uniqueness)
from lapkit.operators import Grid1D, build_hamiltonian
from lapkit.potential import WeightParams, bracket, weight_exponent, weight_f
from lapkit.resolvent import ShiftedSolver
from lapkit.reports import CheckResult, Report, dump_vector, write_sweep_csv
from lapkit.weyl import FilterSpec, radiation_filter

SMALL_SWEEP = """
[model]
family = standard
gamma = 1.0
mu = 1.0

[grid]
length = 100.0
size = 1024

[sector]
moduli = 1e-1, 3e-2, 1e-2

[experiment]
id = lap-sweep
seed = 3
"""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_defaults_resolved():
    cfg = parse_config_text("[experiment]\nid = besov-selftest\n")
    assert cfg.experiment_id == "besov-selftest"
    assert cfg.grid["size"] == 4096
    assert cfg.sector["moduli"] == [1e-1, 1e-2, 1e-3, 1e-4]
    resolved = cfg.resolved_dict()
    # the output directory decides where a report lands, not what it says
    assert set(resolved) == {"model", "grid", "sector", "experiment"}


def test_unknown_key_lists_schema():
    with pytest.raises(ConfigError) as info:
        parse_config_text("[grid]\nwidth = 3\n")
    assert "unknown key" in str(info.value)
    assert "[sector]" in str(info.value)     # full schema included
    with pytest.raises(ConfigError):
        parse_config_text("[nonsense]\nx = 1\n")


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[grid]\nsize = many\n")
    with pytest.raises(ConfigError):
        parse_config_text("[experiment]\nid = warp-drive\n")
    with pytest.raises(ConfigError):
        parse_config_text("[sector]\nmoduli =\n")
    with pytest.raises(ConfigError):
        parse_config_text("not an ini file at all [")


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_schema_text_covers_all_sections():
    text = config_schema_text()
    for section in ("model", "grid", "sector", "experiment", "output"):
        assert f"[{section}]" in text


def test_config_reference_shows_the_schema():
    # docs/config.md quotes config_schema_text() verbatim in its Schema block
    doc = (Path(__file__).resolve().parent.parent / "docs" / "config.md").read_text()
    block = doc.split("## Schema", 1)[1].split("```\n", 2)[1]
    assert block == config_schema_text() + "\n"


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_serialization_deterministic():
    rep = Report(experiment="x", seed=1, config={"a": 1})
    rep.add(CheckResult("c1", "anchor-1", 0.5, 1.0, "<=", ""))
    rep.artifacts["csv_rows"] = [{"quantity": "weighted"}]
    text = rep.to_json()
    assert "csv_rows" not in text and "weighted" not in text
    data = json.loads(text)
    assert data["passed"] is True
    assert data["checks"][0]["anchor"] == "anchor-1"
    rep.artifacts["csv_rows"] = []
    assert rep.to_json() == text


def test_report_is_strict_json(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = Report(experiment="x", seed=1, config={"tol": math.inf})
    rep.add(CheckResult("c1", "anchor-1", math.nan, -math.inf, "<=", ""))
    rep.extras["values"] = [1.5, np.float64(math.nan), math.inf, -math.inf]
    rep.extras["z"] = [math.inf, -0.5]
    data = json.loads(rep.to_json(), parse_constant=reject)
    assert data["checks"][0]["value"] == "nan"
    assert data["checks"][0]["threshold"] == "-inf"
    assert data["config"]["tol"] == "inf"
    assert data["extras"]["values"] == [1.5, "nan", "inf", "-inf"]
    assert data["extras"]["z"] == ["inf", -0.5]
    dump_vector(tmp_path / "vec", np.zeros(2), {"scale": math.nan})
    sidecar = json.loads((tmp_path / "vec.json").read_text(),
                         parse_constant=reject)
    assert sidecar["scale"] == "nan"


@pytest.mark.parametrize("value", [np.zeros(2), 1j, np.complex128(1j)],
                         ids=["ndarray", "complex", "numpy-complex"])
def test_report_rejects_arrays_and_complex_numbers(value):
    # runners store lists of reals; anything else fails when it is written
    rep = Report(experiment="x", seed=1, config={})
    rep.extras["stray"] = value
    with pytest.raises(TypeError, match="not JSON serializable"):
        rep.to_json()


def test_report_booleans_are_json_booleans(tmp_path):
    # bool is a subclass of int; it must not be written as 0 or 1
    rep = Report(experiment="x", seed=1, config={})
    rep.extras["flags"] = {"python": True, "numpy": np.bool_(False)}
    flags = json.loads(rep.to_json())["extras"]["flags"]
    assert flags["python"] is True and flags["numpy"] is False
    dump_vector(tmp_path / "vec", np.zeros(2), {"flag": True})
    assert json.loads((tmp_path / "vec.json").read_text())["flag"] is True


def test_every_check_carries_one_anchor():
    cfg = parse_config_text("[experiment]\nid = besov-selftest\n")
    rep = run_besov_selftest(cfg)
    for check in rep.checks:
        assert isinstance(check.anchor, str) and check.anchor


SMALL_SELFTEST = "[experiment]\nid = besov-selftest\n"
SELFTEST_ABS_X = np.abs(Grid1D(30.0, 256).nodes)


def _patch_result(monkeypatch, module, name, change):
    """Pass every result of ``module.name`` through ``change(result, args)``."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kwargs: change(real(*args, **kwargs), args))


def _boost_norms_on(spectra, factor):
    """A ``besov_norm`` change: norms on any of ``spectra`` times ``factor``."""
    def change(norms, args):
        return norms * factor if any(np.array_equal(args[1], a) for a in spectra) else norms
    return change


def test_selftest_fault_injection(monkeypatch):
    # a ball sup 4x too large, norms on the scaled weights 8x too large and
    # a block upper bound 4x too small each break their own checks
    cfg = parse_config_text(SMALL_SELFTEST)
    with monkeypatch.context() as m:
        _patch_result(m, besov, "shell_decompose",
                      lambda prof, args: replace(prof, ball_sup=4.0 * prof.ball_sup))
        _patch_result(m, besov, "besov_norm", _boost_norms_on(
            [c * SELFTEST_ABS_X for c in (4.0, 1.0 / 3.0)], 8.0))
        _patch_result(m, besov, "schur_block_bound", lambda sup, args: sup / 4.0)
        rep = run_besov_selftest(cfg)
    assert {c.check_id for c in rep.checks if not c.passed} == {
        "duality-sandwich", "weight-scaling-c4", "weight-scaling-c0.333333",
        "bracket-upper-block-sup"}
    # the banks are the experiment's first draws; redo each rule row by row
    rng = besov.Stream(cfg.seed)
    scheme = besov.ShellScheme(2.0)
    nodes = Grid1D(30.0, 256).nodes
    spectra = (np.abs(nodes), nodes, bracket(nodes))
    banks = [besov.sample_vectors(vals, scheme, experiments.SAMPLES, rng)
             for vals in spectra]
    worst_hi, witness = 0.0, None
    for vals, bank in zip(spectra, banks):
        for u in bank:
            prof = besov.shell_decompose(u[None], vals, scheme)
            dual, ball_sup = prof.dual[0], prof.ball_sup[0]
            if dual > 0 and ball_sup / (0.5 * dual) > worst_hi:
                worst_hi, witness = ball_sup / (0.5 * dual), u
    assert rep.extras["duality_witness"] == [[z.real, z.imag] for z in witness]
    # a scaling witness is the first row over 8 |c|^{1/2}
    for c in (4.0, 1.0 / 3.0):
        first_over = None
        for u in banks[0]:
            if abs(c) <= 1.0:
                u = np.where(np.abs(c * spectra[0]) >= 1.0, u, 0.0)
            nb = besov.besov_norm(u[None], spectra[0], scheme)[0]
            nbc = 8.0 * besov.besov_norm(u[None], c * spectra[0], scheme)[0]   # the boost above
            if nb > 0 and nbc > 8.0 * math.sqrt(c) * nb:
                first_over = [[float(z.real), float(z.imag)] for z in u]
                break
        assert rep.extras.get(f"scaling_witness_c{c:g}") == first_over
    assert "scaling_witness_c4" in rep.extras


def test_weight_scaling_reports_the_sharp_ratio(monkeypatch):
    # for |c| <= 1 the sharp 3|c|^1/2 ratio decides the check, so it is the
    # value reported: raised to 1.5 it fails, while the 8|c|^1/2 ratio,
    # 3/8 of it, has no row over its bound and so records no witness
    cfg = parse_config_text(SMALL_SELFTEST)
    check_id = "weight-scaling-c0.333333"
    sharp = next(c for c in run_besov_selftest(cfg).checks if c.check_id == check_id)
    _patch_result(monkeypatch, besov, "besov_norm", _boost_norms_on(
        [(1.0 / 3.0) * SELFTEST_ABS_X], 1.5 / sharp.value))
    rep = run_besov_selftest(cfg)
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == [check_id]
    assert failed[0].value == pytest.approx(1.5, rel=1e-12)
    assert failed[0].value > failed[0].threshold
    assert f"scaling_witness_c{1.0 / 3.0:g}" not in rep.extras


def test_failing_base_equivalence_records_its_witness(monkeypatch):
    # base-4 norms 1000x too large break the p = 4 check alone; its witness
    # is the first row attaining the worst ratio
    cfg = parse_config_text(SMALL_SELFTEST)
    with monkeypatch.context() as m:
        _patch_result(m, besov, "besov_norm", lambda norms, args:
                      1e3 * norms if args[2].base == 4.0 else norms)
        rep = run_besov_selftest(cfg)
    assert [c.check_id for c in rep.checks if not c.passed] == ["base-equivalence-p4"]
    bank = besov.sample_vectors(SELFTEST_ABS_X, besov.ShellScheme(2.0),
                                experiments.SAMPLES, besov.Stream(cfg.seed))
    c_to, c_from = besov.base_equivalence_constants(4.0)
    worst, witness = 0.0, None
    for u in bank:
        nb = besov.besov_norm(u[None], SELFTEST_ABS_X, besov.ShellScheme(2.0))[0]
        n4 = 1e3 * besov.besov_norm(u[None], SELFTEST_ABS_X, besov.ShellScheme(4.0))[0]
        ratio = max(n4 / (c_to * nb), nb / (c_from * n4)) if nb > 0 else 0.0
        if ratio > worst:
            worst, witness = ratio, u
    assert rep.extras["base_equivalence_witness_p4"] == [[z.real, z.imag] for z in witness]
    assert [k for k in rep.extras if k.startswith("base_equivalence")] == [
        "base_equivalence_witness_p4"]


def _scale_field(field, factor):
    """A change of a dataclass result: its ``field`` times ``factor``."""
    return lambda result, args: replace(result, **{field: getattr(result, field) * factor})


# the selftest checks no test above breaks: (module, name, change of the
# result or a new value of a constant, the check ids that must then fail
# and no others)
SELFTEST_FAULTS = {
    # shell norms 1e-9 too large: their squares no longer sum to |u|^2
    "shell-partition-exactness": (
        besov, "shell_decompose", _scale_field("shell_norms", 1 + 1e-9),
        {"shell-partition-exactness"}),
    # the profile's Besov norms 1e-9 too large against freshly scaled ones
    "norm-homogeneity": (
        besov, "shell_decompose", _scale_field("besov", 1 + 1e-9),
        {"norm-homogeneity"}),
    # the sharp per-spectrum embedding constant halved
    "embedding-chain": (
        experiments, "_chain_constant", lambda c_s, args: c_s / 2.0,
        {"embedding-chain"}),
    # every power-map constant a hundred times too small
    "power-map": (
        besov, "power_map_constant", lambda c, args: c / 100.0,
        {"power-map-s1", "power-map-s-0.5"}),
    # the sweep's lower bound 1e-9 short of the exact shell-dual norm: the
    # bracket still holds, the sharp check does not
    "bracket-lower-exact": (
        experiments, "besov_bstar_estimate", _scale_field("lower", 1 - 1e-9),
        {"bracket-lower-exact"}),
    # a diagonal-pair Lanczos run cut at 3 steps: at the self-test's z a
    # separated pair attains the lower bound, so only this check sees it
    "bracket-diagonal-pair-exact": (
        resolvent, "LANCZOS_STEPS", 3, {"bracket-diagonal-pair-exact"}),
    # the sweep's unit-block sup halved
    "bracket-upper-block-sup": (
        resolvent, "_block_sup", lambda sup, args: sup / 2.0, {"bracket-upper-block-sup"}),
    # the sweep's lower bound doubled, above the exact norm
    "unit-block-bracket": (
        experiments, "besov_bstar_estimate", _scale_field("lower", 2.0),
        {"bracket-lower-exact", "unit-block-bracket"}),
    # the combined one-sided block constants ten times too small
    "accretive-blocks-resolvent": (
        besov, "accretive_bound", lambda bound, args: bound / 10.0,
        {"accretive-blocks-resolvent"}),
}


@pytest.mark.parametrize("fault", sorted(SELFTEST_FAULTS))
def test_each_selftest_check_fails_alone(fault, monkeypatch):
    module, name, change, expected = SELFTEST_FAULTS[fault]
    if callable(change):
        _patch_result(monkeypatch, module, name, change)
    else:
        monkeypatch.setattr(module, name, change)
    rep = run_besov_selftest(parse_config_text(SMALL_SELFTEST))
    assert {c.check_id for c in rep.checks if not c.passed} == expected
    # a failing power map records its witness row, as base change and scaling do
    assert {k for k in rep.extras if k.startswith("power_map_witness")} == (
        {"power_map_witness_s1", "power_map_witness_s-0.5"}
        if fault == "power-map" else set())


@pytest.mark.parametrize("side, factor", [("lower", 2.0), ("upper", 0.1)],
                         ids=["lower", "upper"])
def test_unit_block_bracket_reports_the_worse_side(side, factor, monkeypatch):
    # a lower bound above the exact norm, or an upper one below it, breaks
    # the bracket on that side, and the reported value and extras show it
    _patch_result(monkeypatch, experiments, "besov_bstar_estimate",
                  _scale_field(side, factor))
    rep = run_besov_selftest(parse_config_text(SMALL_SELFTEST))
    check = next(c for c in rep.checks if c.check_id == "unit-block-bracket")
    unit = rep.extras["unit_block"]
    assert check.value == (unit["lower"] / unit["exact"] if side == "lower"
                           else unit["exact"] / unit["upper"])
    assert check.value > check.threshold
    assert not check.passed


def test_selftest_draws_three_banks_and_tests_accretivity_once(monkeypatch):
    # the three sample banks; the one eigvalsh of a full 128 x 128 matrix
    # is accretive_bound's test of -iT (the sweep's estimate takes those of
    # its small diagonal-block Gram matrices)
    calls = {"sample_vectors": 0, "eigvalsh": 0}

    def count(module, name, counts):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += counts(*args)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(besov, "sample_vectors", lambda *args: True)
    count(np.linalg, "eigvalsh", lambda m: m.shape == (128, 128))
    assert run_besov_selftest(parse_config_text(SMALL_SELFTEST)).passed
    assert calls == {"sample_vectors": 3, "eigvalsh": 1}


def test_selftest_dense_stage_starts_without_the_sample_banks(live_at_entry):
    # the three banks and their profiles hold 2.7 MiB; the dense bracket
    # stage, entered at its besov_bstar_estimate, must find them freed
    # (0.14 MiB live above the runner's entry) instead of stacking on them
    entries = live_at_entry(experiments, "besov_bstar_estimate")
    cfg = parse_config_text(SMALL_SELFTEST)
    start = tracemalloc.get_traced_memory()[0]
    assert run_besov_selftest(cfg).passed
    assert len(entries) == 1
    assert entries[0] - start <= 0.5 * 2**20


def _traced_peak(runner, config: str) -> int:
    """Peak traced bytes of a passing run of a demo config."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "demos/configs" / config)
    tracemalloc.start()
    try:
        assert runner(cfg).passed
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_desk_radiation_memory_is_bounded():
    # the desk radiation run (the bench's config) peaks inside its two-row
    # outgoing filter at 2.81 MiB traced, 2.93 with a process's first
    # 8,192-point FFT plans, against 3.06 when weyl_apply held its half
    # spectra across batches and 4.43 when its spectra and accumulator were
    # 4N bins wide; traced bytes, unlike the resident set size, do not
    # depend on the allocator
    assert _traced_peak(run_radiation, "radiation.cfg") <= 3.0 * 2**20


def test_desk_sweep_memory_is_bounded():
    # the desk sweep peaks in the doubled box's shell-space bracket at 4.26
    # MiB traced, against 4.76 when the Lanczos basis stayed alive through
    # the Ritz vector's certified re-evaluation, and 6.39 when the resolvent
    # kernel and the separated pairs' closure stayed alive through the
    # diagonal pairs' Lanczos run
    assert _traced_peak(run_lap_sweep, "standard1d.cfg") <= 4.5 * 2**20


def test_sweep_csv_schema(tmp_path):
    rows = [{"re_z": 0.1, "im_z": 0.2, "abs_z": 0.22, "arg_z": 1.1,
             "quantity": "unweighted", "lower": 3.0, "upper": "",
             "residual": 1e-12, "stable": True}]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "re_z,im_z,abs_z,arg_z,quantity,lower,upper,residual,stable"


def test_vector_dump_round_trip(tmp_path, rng):
    u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    dump_vector(tmp_path / "vec", u, {"grid": {"size": 32}})
    back = np.fromfile(tmp_path / "vec.f64", dtype="<c16")
    assert np.array_equal(back, u)
    sidecar = json.loads((tmp_path / "vec.json").read_text())
    assert sidecar["length"] == 32
    # the bytes are (re, im) pairs of little-endian doubles, special values too
    odd = np.array([complex(-0.0, math.inf), complex(math.nan, -math.inf), 1.5 - 0.0j])
    dump_vector(tmp_path / "odd", odd, {})
    expected = b"".join(struct.pack("<dd", float(z.real), float(z.imag)) for z in odd)
    assert (tmp_path / "odd.f64").read_bytes() == expected


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def test_check_potential_report():
    cfg = parse_config_text("""
[model]
family = coulomb
gamma = 1.0
dim = 3

[grid]
kind = radial
length = 50.0
size = 512

[experiment]
id = check-potential
""")
    rep = run_check_potential(cfg)
    assert rep.passed
    assert [c.check_id for c in rep.checks] == [
        f"hypothesis-{k}" for k in range(1, 6)]


@pytest.mark.parametrize("family", ["coulomb", "standard", "sign-flipped"])
def test_check_potential_rows_meet_their_thresholds(family, monkeypatch):
    # each row's verdict is its own stated comparison, value >= threshold;
    # the Coulomb demo's virial margin is a rounding-sized negative number
    demos = Path(__file__).resolve().parent.parent / "demos" / "configs"
    cfg = load_config(demos / "coulomb_check.cfg")
    if family != "coulomb":
        cfg = parse_config_text(SMALL_SWEEP.replace("lap-sweep", "check-potential"))
    if family == "sign-flipped":
        from lapkit.potential import PotentialModel, standard_model

        good = standard_model(1.0, 1.0, 1)
        bad = PotentialModel(
            mu=1.0, eps1=1.0, eps1_tilde=1.0,
            v1=lambda r: -good.v1(r), grad_v1=lambda r: -good.grad_v1(r), dim=1,
            symbol_constants=good.symbol_constants)
        monkeypatch.setattr(experiments, "build_model", lambda cfg: bad)
    rep = run_check_potential(cfg)
    assert rep.passed == (family != "sign-flipped")
    for check in rep.checks:
        assert check.comparison == ">="
        assert check.passed == (check.value >= check.threshold), check


NUMPY_LAPACK = ("eigvalsh", "eigh", "eig", "svd", "inv", "solve", "lstsq", "qr",
                "cholesky", "det")


def test_lap_sweep_needs_no_numpy_lapack(monkeypatch):
    # every LAPACK routine the sweep runs is one lapkit._lapack binds: with
    # numpy.linalg's LAPACK-backed functions raising, both in numpy.linalg
    # and in the module numpy's own functions look them up in, it passes
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep reached numpy.linalg's LAPACK")

    for module in (np.linalg, np.linalg._linalg):
        for name in NUMPY_LAPACK:
            monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="numpy.linalg"):
        np.linalg.norm(np.eye(2), 2)
    assert run_lap_sweep(parse_config_text(SMALL_SWEEP)).passed


def test_lap_sweep_small_passes(tmp_path):
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert "unweighted-growth" in ids
    assert "shell-dual-upper-boundedness" in ids
    rows = rep.artifacts["csv_rows"]
    assert len(rows) == 9
    assert all(row["stable"] for row in rows)
    # one weighted_opnorm run per z and grid (3 moduli, 2 grids); the
    # diagonal shell pairs run Lanczos, and every iteration converged
    health = rep.extras["solver_health"]
    assert health["weighted_runs"] == 3 * 2
    assert health["unconverged_weighted_runs"] == 0
    assert health["lanczos_steps"] >= 3 * 2 * 6
    assert health["unconverged_shell_pairs"] == 0
    assert health["unconverged_rows"] == 0
    # the rows go to the CSV the command line writes: a report written
    # from the library holds none of them either
    rep.write(tmp_path / "report.json")
    extras = json.loads((tmp_path / "report.json").read_text())["extras"]
    assert "csv_rows" not in extras and extras["rows"] == 9


def test_lap_sweep_unconverged_row_leaves_the_fits(monkeypatch):
    # a weighted Lanczos run that stops unconverged flags its row like the
    # stability gate does; the fit uses the remaining rows

    real = experiments.weighted_opnorm
    target = 3e-2

    def flaky(operator, z, *args, **kwargs):
        est = real(operator, z, *args, **kwargs)
        if abs(abs(z) - target) < 1e-12:
            est.converged = False
        return est

    monkeypatch.setattr(experiments, "weighted_opnorm", flaky)
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    rows = [r for r in rep.artifacts["csv_rows"] if r["quantity"] == "weighted"]
    flagged = [r for r in rows if not r["stable"]]
    assert [r["abs_z"] for r in flagged] == pytest.approx([target])
    kept = [r for r in rows if r["stable"]]
    assert len(kept) == 2
    key = next(k for k in rep.extras["fits"] if k.startswith("weighted_lower"))
    assert rep.extras["fits"][key] == pytest.approx(besov.loglog_slope(
        [r["abs_z"] for r in kept], [r["lower"] for r in kept]), rel=1e-12)
    health = rep.extras["solver_health"]
    # both grids' runs at that z are unconverged; one row is flagged
    assert health["unconverged_weighted_runs"] == 2
    assert health["unconverged_rows"] == 1
    others = [r for r in rep.artifacts["csv_rows"] if r["quantity"] != "weighted"]
    assert all(r["stable"] for r in others)


def test_weighted_boundedness_fails_on_a_growing_norm(monkeypatch):
    # a weighted norm growing like 1/|z| (on both grids, so every row stays
    # stable) breaks the weighted bound and no other check
    real = experiments.weighted_opnorm

    def growing(operator, z, *args, **kwargs):
        return replace(real(operator, z, *args, **kwargs), lower=1.0 / abs(z))

    monkeypatch.setattr(experiments, "weighted_opnorm", growing)
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == ["weighted-boundedness"]
    assert failed[0].value == pytest.approx(-1.0, rel=1e-9)
    assert all(row["stable"] for row in rep.artifacts["csv_rows"])


@pytest.mark.parametrize("check_id, stage, value", [
    ("unweighted-growth", "spectral_distance", 0.0),
    ("shell-dual-lower-boundedness", "besov_bstar_estimate", -1.0),
    ("shell-dual-upper-boundedness", "besov_bstar_estimate", -1.0),
])
def test_sweep_check_fails_alone(check_id, stage, value, monkeypatch):
    # a flat plain norm, or one side of the shell-space bracket growing like
    # 1/|z|, on both grids (every row stays stable), fails that check alone
    real = getattr(experiments, stage)

    def perturbed(*args):
        if stage == "spectral_distance":
            return 1.0
        side = "lower" if "lower" in check_id else "upper"
        return replace(real(*args), **{side: 1.0 / abs(args[0].z)})

    monkeypatch.setattr(experiments, stage, perturbed)
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    failed = [c for c in rep.checks if not c.passed]
    assert [c.check_id for c in failed] == [check_id]
    assert failed[0].value == pytest.approx(value, abs=1e-9)
    assert all(row["stable"] for row in rep.artifacts["csv_rows"])


def test_sweep_gate_flags_every_box_dependent_row(monkeypatch):
    # the weighted norm moves 10% under box doubling and its run at one z
    # does not converge: the gate flags every weighted row, that one too
    real = experiments.weighted_opnorm
    target = 3e-2

    def box_dependent(operator, z, left, *args, **kwargs):
        est = real(operator, z, left, *args, **kwargs)
        return replace(est, lower=est.lower * (1.1 if left.size > 1024 else 1.0),
                       converged=abs(abs(z) - target) > 1e-12)

    monkeypatch.setattr(experiments, "weighted_opnorm", box_dependent)
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    rows = rep.artifacts["csv_rows"]
    flagged = [r["abs_z"] for r in rows if not r["stable"]]
    weighted = [r["abs_z"] for r in rows if r["quantity"] == "weighted"]
    assert flagged == weighted
    assert rep.extras["solver_health"]["weighted_runs"] == 6
    assert rep.extras["solver_health"]["unconverged_rows"] == 1


def test_lap_sweep_plain_norm_is_exact():
    # the unweighted rows and the recorded distances are 1 / dist(z, spectrum)
    # of the base grid's H, against a dense eigensolver
    cfg = parse_config_text(SMALL_SWEEP)
    rep = run_lap_sweep(cfg)
    h_op = build_hamiltonian(build_model(cfg), build_grid(cfg))
    eigs = sla.eigvalsh(h_op.toarray())
    rows = [r for r in rep.artifacts["csv_rows"] if r["quantity"] == "unweighted"]
    assert len(rows) == 3
    for row in rows:
        exact = np.min(np.abs(eigs - complex(row["re_z"], row["im_z"])))
        assert row["lower"] == pytest.approx(1.0 / exact, rel=1e-9)
    dist = rep.extras["distance_to_spectrum"]
    assert len(dist) == 3
    for key, value in dist.items():
        exact = np.min(np.abs(eigs - complex(key)))
        assert value == pytest.approx(exact, rel=1e-9)


def test_lap_sweep_determinism():
    r1 = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    r2 = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    assert r1.to_json() == r2.to_json()


def test_free_control_run_documents_contrast():
    cfg = parse_config_text(SMALL_SWEEP.replace("family = standard",
                                                "family = free"))
    rep = run_lap_sweep(cfg)
    assert rep.extras["control_run"]
    assert rep.passed            # control runs carry no thresholds
    assert not rep.checks
    fits = rep.extras["fits"]
    assert any(k.startswith("unweighted") for k in fits)
    # the three boundedness fits separate the free kernel, near |z|^-1/2,
    # from the certified model
    standard = run_lap_sweep(parse_config_text(SMALL_SWEEP)).extras["fits"]
    for key in ("weighted_lower_exponent", "shell_dual_lower_exponent",
                "shell_dual_upper_exponent"):
        assert fits[key] < SLOPE_DECREASING <= standard[key], key


def test_weighted_exponent_falls_with_the_weight_exponent(monkeypatch):
    # s = 0.8 is the model's own weight_exponent; below s0 = 0.75 the
    # weighted exponent keeps falling, but weighted-boundedness first
    # fails between s = 0.5 and 0.4 (its passes at 0.6 and 0.5 are not
    # asserted: they are the check's known weakness)
    exponents = []
    for s in (0.8, 0.6, 0.5, 0.4):
        monkeypatch.setattr(experiments, "weight_exponent", lambda mu, s=s: s)
        rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
        exponents.append(rep.extras["fits"]["weighted_lower_exponent"])
    assert all(lo < hi for hi, lo in zip(exponents, exponents[1:])), exponents
    check = next(c for c in rep.checks if c.check_id == "weighted-boundedness")
    assert check.value == exponents[-1] and not check.passed


def test_free_control_run_weights_with_the_configured_mu():
    # both factors of the weight <x>^-s f_mu^1/2 read the configured mu, so
    # each weighted row is the dense norm of W R(z) W with s = 1/2 + mu/4 + 0.05
    cfg = parse_config_text("[model]\nfamily = free\nmu = 0.5\n[grid]\nlength = 50.0\n"
                            "size = 256\n[sector]\nmoduli = 1e-1, 3e-2\n")
    rep = run_lap_sweep(cfg)
    grid = build_grid(cfg)
    dense = build_hamiltonian(None, grid).toarray()
    rows = [r for r in rep.artifacts["csv_rows"] if r["quantity"] == "weighted"]
    assert len(rows) == 2 and rep.extras["solver_health"]["unconverged_weighted_runs"] == 0
    for row in rows:
        z = complex(row["re_z"], row["im_z"])
        f = weight_f(WeightParams(lam=abs(z), kappa=1.0, mu=0.5), grid.nodes)
        w = bracket(grid.nodes) ** -(0.5 + 0.5 / 4.0 + 0.05) * np.sqrt(f)
        resolvent = np.linalg.inv(dense - z * np.eye(grid.size))
        exact = np.linalg.norm(w[:, None] * resolvent * w[None, :], 2)
        assert row["lower"] == pytest.approx(exact, rel=1e-8)


def test_uniqueness_over_damping_fails_on_its_value(monkeypatch):
    # a real outgoing value leaves w = u_plus - conj(u_plus) = 0: the
    # magnitude check, the report's only one, fails on its own value and
    # names over-damping
    module, stage, wrap = _u_plus_as(lambda plus: plus.real + 0j)
    monkeypatch.setattr(module, stage, wrap(getattr(module, stage)))
    rep = run_uniqueness(parse_config_text(SMALL_UNIQUENESS))
    assert [c.check_id for c in rep.checks] == ["null-difference-magnitude"]
    check = rep.checks[0]
    assert check.value == 0.0 and check.comparison == ">="
    assert "over-damping" in check.description
    assert not check.passed and not rep.passed


def test_uniqueness_needs_absorber(monkeypatch):
    # without the layer H is real, so the two boundary values coincide
    # and the report takes the over-damping branch
    monkeypatch.setattr(operators, "ABSORBER_STRENGTH", 0.0)
    rep = run_uniqueness(parse_config_text(SMALL_UNIQUENESS))
    assert not rep.passed
    assert [(c.check_id, c.value, c.passed) for c in rep.checks] == [
        ("null-difference-magnitude", 0.0, False)]
    assert "over-damping" in rep.checks[0].description


SMALL_UNIQUENESS = """
[model]
family = standard

[grid]
length = 100.0
size = 1024

[experiment]
id = uniqueness
"""


ZERO_ENERGY_RUNNERS = pytest.mark.parametrize(
    "runner", [run_radiation, run_uniqueness], ids=["radiation", "uniqueness"])


@ZERO_ENERGY_RUNNERS
@pytest.mark.parametrize("section,message", [
    ("[model]\nfamily = free", "requires a certified potential"),
    ("[grid]\nkind = radial\nsize = 64", "runs on the 1-d line grid"),
], ids=["free", "radial"])
def test_zero_energy_runners_need_a_potential_on_the_line(runner, section,
                                                          message):
    name = runner.__name__.removeprefix("run_")
    cfg = parse_config_text(f"{section}\n\n[experiment]\nid = {name}\n")
    with pytest.raises(ConfigError, match=f"^{name} {message}$"):
        runner(cfg)


@ZERO_ENERGY_RUNNERS
def test_zero_energy_runners_filter_with_the_calibrated_spec(runner, monkeypatch):
    # every filter the runner applies builds its symbol from the model's spec
    real_symbol = weyl.filter_symbol
    specs = []

    def recording_symbol(spec, *args, **kwargs):
        specs.append(spec)
        return real_symbol(spec, *args, **kwargs)

    monkeypatch.setattr(weyl, "filter_symbol", recording_symbol)
    name = runner.__name__.removeprefix("run_")
    cfg = parse_config_text(f"""
[model]
family = standard

[grid]
length = 100.0
size = 1024

[experiment]
id = {name}
""")
    runner(cfg)
    expected = FilterSpec.for_model(build_model(cfg))
    assert len(specs) == (2 if name == "radiation" else 1)
    assert all(spec == expected for spec in specs)


@pytest.fixture(scope="module")
def small_radiation():
    cfg = parse_config_text("""
[model]
family = standard

[grid]
length = 200.0
size = 2048

[experiment]
id = radiation
seed = 5
""")
    return cfg, run_radiation(cfg)


def test_radiation_small_structure(small_radiation):
    # structure check at reduced scale: one check per filter slope and
    # far ratio; the far-field ratio thresholds are calibrated for the
    # full desk box and are left to the acceptance suite
    _, rep = small_radiation
    assert [c.check_id for c in rep.checks] == [
        "boundary-value-converged",
        "plus-outgoing-slope", "plus-high-slope", "plus-mirrored-slope",
        "plus-outgoing-far-ratio", "plus-high-far-ratio"]
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["boundary-value-converged"].passed
    converged = by_id["boundary-value-converged"]
    assert converged.value <= converged.threshold
    assert by_id["plus-outgoing-slope"].passed
    assert by_id["plus-mirrored-slope"].passed
    assert set(rep.artifacts["vectors"]) == {"u_plus", "source"}


@pytest.mark.parametrize("steps", [1, 3])
def test_radiation_unconverged_ladder_fails_on_its_value(steps, monkeypatch):
    # one or three rungs cannot reach the tolerance: the ladder returns
    # its last iterate unconverged, and the check reads that iterate's
    # distance from the capped solve (one rung: its first solve)
    monkeypatch.setattr(resolvent, "LADDER_STEPS", steps)
    cfg = parse_config_text(SMALL_UNIQUENESS.replace("uniqueness", "radiation"))
    rep = run_radiation(cfg)
    check = next(c for c in rep.checks if c.check_id == "boundary-value-converged")
    assert len(rep.extras["ladder_plus"]) == steps - 1
    assert check.threshold == resolvent.LADDER_TOL
    assert check.value > check.threshold
    assert not check.passed and not rep.passed


def test_zero_energy_runners_share_one_boundary_value(tmp_path):
    # both runners filter _line_problem's capped solve at z = 0, which
    # radiation alone dumps, and the radiation ladder is measured against
    # it from its last iterate, at final_z
    rad_cfg = parse_config_text(SMALL_UNIQUENESS.replace("uniqueness", "radiation"))
    rad = run_radiation(rad_cfg)
    uni = run_uniqueness(parse_config_text(SMALL_UNIQUENESS))
    # uniqueness dumps nothing: u_plus is radiation's dump, u_minus its
    # conjugate and the null difference u_plus - conj(u_plus)
    assert "vectors" not in uni.artifacts
    dump_vector(tmp_path / "rad_u_plus", rad.artifacts["vectors"]["u_plus"], {})
    model, grid, h_op, cap, v, u_plus = experiments._line_problem(rad_cfg, "radiation")
    assert (tmp_path / "rad_u_plus.f64").read_bytes() == u_plus.astype("<c16").tobytes()
    last = ShiftedSolver(h_op + cap, complex(*rad.extras["final_z"])).solve(v)
    w = bracket(grid.nodes) ** (-weight_exponent(model.mu))
    check = next(c for c in rad.checks if c.check_id == "boundary-value-converged")
    assert check.passed
    assert check.value == np.linalg.norm(w * (last - u_plus)) / np.linalg.norm(w * u_plus)


def test_zero_energy_runners_solve_once_at_zero(monkeypatch):
    # the incoming value is conj(u_plus) by construction, so at z = 0 each
    # runner makes one solve and no adjoint solve (which would
    # make a second solve there); the ray ladder's rungs never reach 0
    shifts = []
    real = ShiftedSolver.solve

    def counted(self, v):
        shifts.append(self.z)
        return real(self, v)

    monkeypatch.setattr(ShiftedSolver, "solve", counted)
    for experiment in ("radiation", "uniqueness"):
        shifts.clear()
        run_experiment(parse_config_text(SMALL_UNIQUENESS.replace("uniqueness", experiment)))
        assert shifts.count(0.0) == 1


def test_radiation_conjugate_ladders_match_direct_filters(small_radiation):
    # the runner filters u_plus alone; the incoming value filtered directly
    # has the same ladders with the outgoing and mirrored roles swapped,
    # because u_minus = conj(u_plus) and Op(mirrored) = conj(Op(outgoing))
    cfg, rep = small_radiation
    model, grid, _, _, _, u_plus = experiments._line_problem(cfg, "radiation")
    u_minus = np.conj(u_plus)
    # the conjugate of the u_plus dump, bit for bit, so it is not dumped
    assert u_minus.tobytes() == np.conj(rep.artifacts["vectors"]["u_plus"]).tobytes()
    ladders = rep.extras["defect_ladders"]
    assert set(ladders) == {"plus_outgoing", "plus_high", "plus_mirrored"}
    for mode, swapped in (("outgoing", "mirrored"), ("high", "high"),
                          ("mirrored", "outgoing")):
        direct, = radiation_filter(u_minus[None], model, grid, mode=mode)
        assert direct.ladder.tolist() == rep.extras["radius_ladder"]
        for key, values in (("ball", direct.ball_defect),
                            ("annulus", direct.annulus_defect)):
            assert np.allclose(ladders[f"plus_{swapped}"][key], values,
                               rtol=1e-12, atol=0.0)


# the far-ratio thresholds are calibrated on the desk box, where every
# radiation check passes; a desk run takes a fraction of a second
DESK_RADIATION = """
[model]
family = standard

[grid]
length = 400.0
size = 4096

[experiment]
id = radiation
"""


def _scaled_defect(target, row, factor):
    """Wrap ``radiation_filter`` so that the annulus defect of result
    ``row`` of its ``target`` mode is multiplied by ``factor(ladder, grid)``."""
    def wrap(real):
        def perturbed(bank, model, grid, mode):
            results = real(bank, model, grid, mode=mode)
            if mode == target:
                res = results[row]
                results[row] = replace(res, annulus_defect=res.annulus_defect
                                          * factor(res.ladder, grid))
            return results
        return perturbed
    return experiments, "radiation_filter", wrap


def _u_plus_as(change):
    """Wrap ``_line_problem`` so that its u_plus passes through ``change``."""
    def wrap(real):
        def problem(cfg, name):
            *rest, u_plus = real(cfg, name)
            return (*rest, change(u_plus))
        return problem
    return experiments, "_line_problem", wrap


def _bulge(r, grid):
    # 100-fold between L/4 and L/2, where the far ratio reads nothing
    return np.where((r > grid.length / 4) & (r < grid.length / 2), 100.0, 1.0)


def _faster(r, grid):
    # one power of R faster decay
    return 1.0 / r


def _far_rise(r, grid):
    # 4-fold at L/2, the far ratio's outer radius
    return np.where(r == grid.length / 2, 4.0, 1.0)


ZERO_ENERGY_CHECKS = {
    "radiation": ["boundary-value-converged",
                  "plus-outgoing-slope", "plus-high-slope", "plus-mirrored-slope",
                  "plus-outgoing-far-ratio", "plus-high-far-ratio"],
    "uniqueness": ["interior-null-residual", "null-difference-magnitude",
                   "null-outgoing-slope", "null-ball-norm-growth"],
}
ZERO_ENERGY_FAULTS = {
    "plus-outgoing-slope": (DESK_RADIATION, _scaled_defect("outgoing", 0, _bulge)),
    "plus-high-slope": (DESK_RADIATION, _scaled_defect("high", 0, _bulge)),
    # the second row of the outgoing call is u_plus's mirrored result
    "plus-mirrored-slope": (DESK_RADIATION, _scaled_defect("outgoing", 1, _faster)),
    "plus-outgoing-far-ratio": (DESK_RADIATION, _scaled_defect("outgoing", 0, _far_rise)),
    "plus-high-far-ratio": (DESK_RADIATION, _scaled_defect("high", 0, _far_rise)),
    # H w = 2e-4 i v in the interior once the outgoing value is turned:
    # w gains 2e-4 i Re u_plus, and H Re u_plus = v there
    "interior-null-residual": (SMALL_UNIQUENESS, _u_plus_as(
        lambda plus: (1 + 1e-4j) * plus)),
    # the null difference 2i Im u_plus shrunk 100-fold, still a null solution
    "null-difference-magnitude": (SMALL_UNIQUENESS, _u_plus_as(
        lambda plus: plus.real + 0.01j * plus.imag)),
    "null-outgoing-slope": (SMALL_UNIQUENESS, _scaled_defect("outgoing", 0, _faster)),
    "null-ball-norm-growth": (SMALL_UNIQUENESS, (besov, "defect_ladder", lambda real: (
        lambda u, a, ladder, *args: real(u, a, ladder, *args) / ladder))),
}


@pytest.mark.parametrize("check_id", sorted(ZERO_ENERGY_FAULTS))
def test_zero_energy_check_fails_alone(check_id, monkeypatch):
    # one perturbed stage fails its check, and every other check of the
    # report is still made and passes
    config, (module, stage, wrap) = ZERO_ENERGY_FAULTS[check_id]
    cfg = parse_config_text(config)
    monkeypatch.setattr(module, stage, wrap(getattr(module, stage)))
    rep = run_experiment(cfg)
    assert [c.check_id for c in rep.checks] == ZERO_ENERGY_CHECKS[cfg.experiment_id]
    assert [c.check_id for c in rep.checks if not c.passed] == [check_id]


def _meets(value, comparison, threshold) -> bool:
    """``value comparison threshold`` on serialized numbers ("nan", "inf")."""
    value, threshold = float(value), float(threshold)
    return value <= threshold if comparison == "<=" else value >= threshold


SMALL_CONFIGS = {
    "besov-selftest": SMALL_SELFTEST,
    "check-potential": SMALL_SWEEP.replace("lap-sweep", "check-potential"),
    "lap-sweep": SMALL_SWEEP,
    "radiation": SMALL_UNIQUENESS.replace("uniqueness", "radiation"),
    "uniqueness": SMALL_UNIQUENESS,
}


@pytest.mark.parametrize("experiment", sorted(SMALL_CONFIGS) + ["rounding-allowance"])
def test_serialized_verdicts_are_value_against_threshold(experiment, monkeypatch):
    # the one verdict rule, read back from the report as written; in the
    # last case the base-change ratios exceed 1 by less than the rounding
    # allowance, so they pass and the threshold written beside them admits them
    allowance = experiment == "rounding-allowance"
    if allowance:
        experiment = "besov-selftest"
        _patch_result(monkeypatch, besov, "verify_base_equivalence", lambda result, args:
                      (replace(result[0], value=1.0 + 5e-13), result[1]))
    data = json.loads(run_experiment(parse_config_text(SMALL_CONFIGS[experiment])).to_json())
    assert data["checks"]
    for check in data["checks"]:
        assert check["comparison"] in ("<=", ">=")
        assert check["passed"] == _meets(check["value"], check["comparison"],
                                         check["threshold"]), check
    assert data["passed"] == all(c["passed"] for c in data["checks"])
    assert data["passed"] or not allowance


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SMALL_SWEEP + f"\n[output]\ndirectory = {tmp_path}/out\n")
    code = cli_main(["lap-sweep", "--config", str(cfg_path)])
    assert code == 0
    assert (tmp_path / "out" / "lap-sweep.csv").exists()
    assert (tmp_path / "out" / "lap-sweep_report.json").exists()
    out = capsys.readouterr().out
    assert "[PASS]" in out and "runtime" in out


def test_cli_determinism(tmp_path):
    # one config and seed give one report, wherever it is written: the
    # config's directory or an --output override
    cfg_path = tmp_path / "self.cfg"
    cfg_path.write_text("[experiment]\nid = besov-selftest\n"
                        f"[output]\ndirectory = {tmp_path}/a\n")
    assert cli_main(["besov-selftest", "--config", str(cfg_path),
                     "--seed", "7"]) == 0
    assert cli_main(["besov-selftest", "--config", str(cfg_path),
                     "--seed", "7", "--output", str(tmp_path / "b")]) == 0
    first, second = ((tmp_path / name / "besov-selftest_report.json").read_bytes()
                     for name in ("a", "b"))
    assert first == second


def test_lap_sweep_does_not_read_the_seed(tmp_path):
    # every Lanczos run of the sweep starts from Stream(0): two seeds write
    # the same CSV, and reports that differ only where they record the seed
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(SMALL_SWEEP)
    for seed in ("0", "1"):
        assert cli_main(["lap-sweep", "--config", str(cfg_path), "--seed", seed,
                         "--output", str(tmp_path / seed)]) == 0
    csvs = [(tmp_path / seed / "lap-sweep.csv").read_bytes() for seed in ("0", "1")]
    assert csvs[0] == csvs[1]
    reports = [json.loads((tmp_path / seed / "lap-sweep_report.json").read_text())
               for seed in ("0", "1")]
    assert [(r.pop("seed"), r["config"]["experiment"].pop("seed")) for r in reports] == [
        (0, 0), (1, 1)]
    assert reports[0] == reports[1]


def test_cli_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[grid]\nwarp = 9\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_missing_config(tmp_path):
    assert cli_main(["lap-sweep", "--config", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize("section, key, value", [
    ("model", "family", "coulomb"),      # the Coulomb model needs dim >= 3
    ("model", "mu", "2.5"),
    ("grid", "size", "100"),             # not a power of two on the line
    # values that once reached a runner and crashed it or ran on nothing:
    # a modulus outside the sector, a non-finite float
    ("sector", "moduli", "1e-1, 2.0"),
    ("sector", "moduli", "1e-1, 0"),
    ("sector", "moduli", "-1e-2"),
    ("sector", "moduli", "1e-1, nan"),
    ("grid", "length", "nan"),
    ("model", "gamma", "nan"),
], ids=["coulomb-dim1", "mu", "line-size", "modulus-above-lambda0",
        "modulus-zero", "modulus-negative", "modulus-nan", "length-nan", "gamma-nan"])
def test_cli_out_of_range_value_exits_two(tmp_path, capsys, section, key, value):
    # a value the schema parses but a constructor rejects is a config error
    path = tmp_path / "range.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n"
                    f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["lap-sweep", "radiation", "uniqueness",
                                     "export-operator"])
def test_cli_model_of_another_dimension_exits_two(tmp_path, capsys, command):
    # a dim-3 model on the default line grid: every command reports the
    # operator's DimensionError as a config error, with no traceback and
    # no output written
    path = tmp_path / "dim3.cfg"
    path.write_text(f"[model]\nfamily = standard\ndim = 3\n"
                    f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main([command, "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: line grid needs a 1-d model\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value", [
    ("grid", "absorber_width_fraction", "0.375"),
    ("sector", "rays", "1.0"),
    ("experiment", "source_center", "0.0"),
    ("experiment", "weight_s", "0.8"),
    ("experiment", "source_width", "2.0"),
    ("model", "v2_table", "v2.txt"),
    ("model", "v2_delta", "0.5"),
    ("model", "v2_c", "1.0"),
    ("model", "v2_r", "1.0"),
    ("grid", "absorber_strength", "3.0"),
    ("experiment", "stability_check", "true"),
    # every run draws the self-test's fixed number of rows
    ("experiment", "samples", "200"),
    # the sector, the ray ladder, the direction cut and ell are constants;
    # values their range checks once rejected now fail on the key
    ("grid", "ell", "1"),
    ("sector", "theta", "4"),
    ("sector", "lambda0", "inf"),
    ("sector", "ratio", "2"),
    ("sector", "steps", "0"),
    ("experiment", "tolerance", "1e-3"),
    ("experiment", "sigma_cut", "1.5"),
])
def test_cli_removed_keys_are_unknown(tmp_path, capsys, section, key, value):
    path = tmp_path / "old.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n"
                    f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["radiation", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_removed_command_exits_two(tmp_path, capsys):
    # besov-bound reported a subset of lap-sweep's report; it is gone
    path = tmp_path / "sweep.cfg"
    path.write_text(SMALL_SWEEP + f"[output]\ndirectory = {tmp_path}/out\n")
    with pytest.raises(SystemExit) as stop:
        cli_main(["besov-bound", "--config", str(path)])
    assert stop.value.code == 2
    assert "invalid choice: 'besov-bound'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, missing", [
    (["radiation"], "--config"),
    (["--config", "lapkit.cfg"], "command"),
], ids=["no-config", "no-command"])
def test_cli_usage_error_exits_two(argv, missing, capsys):
    # one flat parser: the command is a positional choice, --config required
    with pytest.raises(SystemExit) as stop:
        cli_main(argv)
    assert stop.value.code == 2
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_cli_removed_experiment_id_exits_two(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text(f"[experiment]\nid = besov-bound\n[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown experiment id 'besov-bound'")
    assert f"valid: {', '.join(EXPERIMENT_IDS)}" in err
    assert len(EXPERIMENT_IDS) == 5 and "besov-bound" not in EXPERIMENT_IDS
    assert not (tmp_path / "out").exists()


def test_cli_solver_error_exits_two(tmp_path, capsys, monkeypatch):
    # a LAPACK failure inside the runner is reported, not raised, and
    # writes no report
    def failing(h_op, z):
        raise SolverError("dstebz failed at size 1024")

    monkeypatch.setattr(experiments, "spectral_distance", failing)
    path = tmp_path / "sweep.cfg"
    path.write_text(SMALL_SWEEP + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    assert "solver error: dstebz failed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_refused_solve_exits_two(tmp_path, capsys, monkeypatch):
    # every LU solve off by 1e-6: the sweep's first solve is refused by its
    # backward error, the run exits 2 naming z, and no report is written
    factor = ShiftedSolver.__init__

    def perturbed(self, operator, z):
        factor(self, operator, z)
        lu = self._lu
        self._lu = lambda rhs: lu(rhs) * (1.0 + 1e-6)

    monkeypatch.setattr(ShiftedSolver, "__init__", perturbed)
    path = tmp_path / "sweep.cfg"
    path.write_text(SMALL_SWEEP + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    first = max(parse_config_text(SMALL_SWEEP).sector["moduli"]) * resolvent.RAY
    assert capsys.readouterr().err.startswith(
        f"solver error: solve at z = {first} has backward error ")
    assert not (tmp_path / "out").exists()


def test_cli_sweep_on_the_aligned_box_at_twice_the_size(tmp_path):
    # L = 409.6, N = 8192 (h = 1/10): a relative residual of 1.3e-10 at
    # |z| = 1e-4 is a backward error near 7e-17, so every solve is accepted
    desk = Path(__file__).resolve().parent.parent / "demos/configs/standard1d.cfg"
    text = desk.read_text()
    assert "length = 400.0" in text and "size = 4096" in text
    path = tmp_path / "aligned.cfg"
    path.write_text(text.replace("length = 400.0", "length = 409.6")
                    .replace("size = 4096", "size = 8192"))
    assert cli_main(["lap-sweep", "--config", str(path),
                     "--output", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "lap-sweep_report.json").read_text())
    assert report["checks"] and all(c["passed"] for c in report["checks"])
    assert report["passed"]


def test_cli_inverted_shell_space_bracket_exits_two(tmp_path, capsys, monkeypatch):
    # a unit-block sup of 0 puts the upper end below the lower one: the
    # estimate names z in a solver error, and no report is written
    monkeypatch.setattr(resolvent, "_block_sup", lambda *args: 0.0)
    path = tmp_path / "sweep.cfg"
    path.write_text(SMALL_SWEEP + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    first = max(parse_config_text(SMALL_SWEEP).sector["moduli"]) * resolvent.RAY
    assert capsys.readouterr().err.startswith(
        f"solver error: shell-space bracket inverted at z = {first}: ")
    assert not (tmp_path / "out").exists()


def test_cli_rising_ladder_fails_its_check(tmp_path, capsys, monkeypatch):
    # without the layer the desk ray ladder rises when |z| crosses the box
    # scale and runs out of rungs: the run writes its report, and the
    # ladder's distance from the capped solve fails its check
    monkeypatch.setattr(operators, "ABSORBER_STRENGTH", 0.0)
    config = Path(__file__).resolve().parent.parent / "demos/configs/radiation.cfg"
    assert cli_main(["radiation", "--config", str(config),
                     "--output", str(tmp_path)]) == 1
    assert "[FAIL] boundary-value-converged" in capsys.readouterr().out
    report = json.loads((tmp_path / "radiation_report.json").read_text())
    ladder = report["extras"]["ladder_plus"]
    assert len(ladder) == resolvent.LADDER_STEPS - 1
    assert max(d / min(ladder[:k]) for k, d in enumerate(ladder) if k) > 7.0
    check = {c["check_id"]: c for c in report["checks"]}["boundary-value-converged"]
    assert check["value"] > check["threshold"] == resolvent.LADDER_TOL
    assert not check["passed"] and not report["passed"]


def test_printed_check_shows_a_failure_at_its_allowance(capsys):
    report = Report(experiment="besov-selftest", seed=0, config={})
    report.add(CheckResult("duality-sandwich", "duality-sandwich", 1 + 1e-10,
                           1 + 1e-12, "<=", "ratio at most 1 plus rounding"))
    _print_checks(report)
    status, _, value, comparison, threshold = capsys.readouterr().out.split()
    assert (status, comparison) == ("[FAIL]", "<=")
    assert float(value) > float(threshold)


def test_cli_failing_check_exit_one(tmp_path, monkeypatch, capsys):
    # without the absorbing layer the box reflection contaminates the
    # boundary value and the direction filters detect it
    monkeypatch.setattr(operators, "ABSORBER_STRENGTH", 0.0)
    monkeypatch.setattr(resolvent, "LADDER_TOL", 1e-3)
    cfg_path = tmp_path / "rad.cfg"
    cfg_path.write_text("""
[model]
family = standard

[grid]
length = 100.0
size = 1024

[experiment]
id = radiation
""" + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["radiation", "--config", str(cfg_path)]) == 1
    failed = {line.split()[1] for line in capsys.readouterr().out.splitlines()
              if line.startswith("[FAIL]")}
    assert failed == {"plus-outgoing-slope", "plus-outgoing-far-ratio",
                      "plus-high-far-ratio"}


def test_cli_export_operator(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text("""
[model]
family = standard

[grid]
length = 10.0
size = 64
""" + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["export-operator", "--config", str(cfg_path)]) == 0
    txt = (tmp_path / "out" / "operator_H.txt").read_text()
    assert txt.startswith("# H shape 64 64")
    assert len(txt.splitlines()) == 1 + 64 + 2 * 63
