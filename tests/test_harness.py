import json
import math
import struct

import numpy as np
import pytest
import scipy.linalg as sla

from lapkit import besov
from lapkit.cli import main as cli_main
from lapkit.config import (ExperimentConfig, config_schema_text, load_config,
                           parse_config_text)
from lapkit.errors import ConfigError
from lapkit.experiments import (build_grid, build_model, run_besov_selftest,
                                run_check_potential, run_experiment,
                                run_lap_sweep, run_radiation, run_uniqueness)
from lapkit.operators import Grid1D, build_hamiltonian
from lapkit.potential import bracket
from lapkit.reports import (CheckResult, Report, dump_vector, load_vector,
                            write_sweep_csv)

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
    assert cfg.sector["theta"] == pytest.approx(0.75 * math.pi)
    resolved = cfg.resolved_dict()
    assert set(resolved) == {"model", "grid", "sector", "experiment", "output"}


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


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_serialization_deterministic():
    rep = Report(experiment="x", seed=1, config={"a": 1})
    rep.add(CheckResult("c1", "anchor-1", True, 0.5, 1.0))
    rep.runtime_seconds = 123.0
    text = rep.to_json()
    assert "runtime" not in text
    data = json.loads(text)
    assert data["passed"] is True
    assert data["checks"][0]["anchor"] == "anchor-1"
    rep.runtime_seconds = 456.0
    assert rep.to_json() == text


def test_report_is_strict_json(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rep = Report(experiment="x", seed=1, config={"tol": math.inf})
    rep.add(CheckResult("c1", "anchor-1", False, math.nan, -math.inf))
    rep.extras["values"] = np.array([1.5, math.nan, math.inf, -math.inf])
    rep.extras["z"] = complex(math.inf, -0.5)
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


def test_report_booleans_are_json_booleans(tmp_path):
    # bool is a subclass of int; it must not be written as 0 or 1
    rep = Report(experiment="x", seed=1, config={})
    rep.extras["flags"] = {"python": True, "numpy": np.bool_(False)}
    flags = json.loads(rep.to_json())["extras"]["flags"]
    assert flags["python"] is True and flags["numpy"] is False
    dump_vector(tmp_path / "vec", np.zeros(2), {"flag": True})
    assert json.loads((tmp_path / "vec.json").read_text())["flag"] is True


def test_every_check_carries_one_anchor():
    cfg = parse_config_text("[experiment]\nid = besov-selftest\nsamples = 40\n")
    rep = run_besov_selftest(cfg)
    for check in rep.checks:
        assert isinstance(check.anchor, str) and check.anchor


def test_selftest_fault_injection():
    cfg = parse_config_text("[experiment]\nid = besov-selftest\nsamples = 40\n")
    rep = run_besov_selftest(cfg, overrides={"duality_constant": 0.5,
                                              "scaling_constant": 1.0,
                                              "block_factor": 0.5})
    assert {c.check_id for c in rep.checks if not c.passed} == {
        "duality-sandwich", "weight-scaling-c4", "weight-scaling-c0.333333",
        "unit-block-sandwich"}
    # the banks are the experiment's first draws; redo each rule row by row
    rng = np.random.default_rng(cfg.seed)
    scheme = besov.ShellScheme(2.0)
    nodes = Grid1D(30.0, 256).nodes
    spectra = (np.abs(nodes), nodes, bracket(nodes))
    banks = [besov.sample_vectors(vals, scheme, 40, rng) for vals in spectra]
    worst_hi, witness = 0.0, None
    for vals, bank in zip(spectra, banks):
        for u in bank:
            prof = besov.shell_decompose(u, vals, scheme)
            if prof.dual > 0 and prof.ball_sup / (0.5 * prof.dual) > worst_hi:
                worst_hi, witness = prof.ball_sup / (0.5 * prof.dual), u
    assert rep.extras["duality_witness"] == [[z.real, z.imag] for z in witness]
    # a scaling witness is the first row over 8 |c|^{1/2}; none is here
    for c in (1.0, 4.0, 1.0 / 3.0):
        first_over = None
        for u in banks[0]:
            if abs(c) <= 1.0:
                u = np.where(np.abs(c * spectra[0]) >= 1.0, u, 0.0)
            nb = besov.besov_norm(u, spectra[0], scheme)
            if nb > 0 and besov.besov_norm(u, c * spectra[0], scheme) > 8.0 * math.sqrt(c) * nb:
                first_over = [[float(z.real), float(z.imag)] for z in u]
                break
        assert rep.extras.get(f"scaling_witness_c{c:g}") == first_over


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
    back = load_vector(tmp_path / "vec")
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


def test_lap_sweep_small_passes():
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    assert rep.passed
    ids = {c.check_id for c in rep.checks}
    assert "unweighted-growth" in ids
    assert "shell-dual-upper-boundedness" in ids
    rows = rep.extras["csv_rows"]
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


def test_lap_sweep_unconverged_row_leaves_the_fits(monkeypatch):
    # a weighted Lanczos run that stops unconverged flags its row like the
    # stability gate does; the fit uses the remaining rows (the runner
    # looks the name up in lapkit.resolvent on each call)
    import lapkit.resolvent as resolvent

    real = resolvent.weighted_opnorm
    target = 3e-2

    def flaky(operator, z, *args, **kwargs):
        est = real(operator, z, *args, **kwargs)
        if abs(abs(z) - target) < 1e-12:
            est.converged = False
        return est

    monkeypatch.setattr(resolvent, "weighted_opnorm", flaky)
    rep = run_lap_sweep(parse_config_text(SMALL_SWEEP))
    rows = [r for r in rep.extras["csv_rows"] if r["quantity"] == "weighted"]
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
    others = [r for r in rep.extras["csv_rows"] if r["quantity"] != "weighted"]
    assert all(r["stable"] for r in others)


def test_lap_sweep_plain_norm_is_exact():
    # the unweighted rows and the recorded distances are 1 / dist(z, spectrum)
    # of the base grid's H, against a dense eigensolver
    cfg = parse_config_text(SMALL_SWEEP)
    rep = run_lap_sweep(cfg)
    h_op = build_hamiltonian(build_model(cfg), build_grid(cfg))
    eigs = sla.eigvalsh(h_op.toarray())
    rows = [r for r in rep.extras["csv_rows"] if r["quantity"] == "unweighted"]
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


def test_besov_bound_subset():
    cfg = parse_config_text(SMALL_SWEEP.replace("id = lap-sweep",
                                                "id = besov-bound"))
    rep = run_experiment(cfg)
    ids = {c.check_id for c in rep.checks}
    assert ids == {"shell-dual-lower-boundedness", "shell-dual-upper-boundedness"}
    quantities = {row["quantity"] for row in rep.extras["csv_rows"]}
    assert quantities == {"shell_dual"}


def test_uniqueness_trivial_source():
    cfg = parse_config_text("""
[model]
family = standard

[grid]
length = 100.0
size = 1024

[experiment]
id = uniqueness
source_width = 2.0
""")
    cfg.experiment["source_width"] = 2.0

    import lapkit.operators as ops

    real_probe = ops.gaussian_probe

    def zero_probe(grid, center=0.0, width=1.0):
        return np.zeros(grid.size, dtype=complex)

    ops.gaussian_probe = zero_probe
    try:
        rep = run_uniqueness(cfg)
    finally:
        ops.gaussian_probe = real_probe
    assert rep.extras.get("trivial")
    assert rep.passed


def test_uniqueness_needs_absorber():
    cfg = parse_config_text("""
[model]
family = standard

[grid]
length = 100.0
size = 1024
absorber_strength = 0.0

[experiment]
id = uniqueness
""")
    with pytest.raises(ConfigError):
        run_uniqueness(cfg)


def test_radiation_small_structure():
    # structure check at reduced scale: all role checks are present
    # and the conjugation identity holds tightly; the far-field ratio
    # thresholds are calibrated for the full desk box and are left to
    # the acceptance suite
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
    rep = run_radiation(cfg)
    ids = [c.check_id for c in rep.checks]
    for expected in ("boundary-value-converged", "incoming-conjugation",
                     "plus-outgoing-slope", "plus-high-slope",
                     "plus-mirrored-slope", "minus-outgoing-slope",
                     "minus-mirrored-slope", "minus-high-slope",
                     "plus-outgoing-far-ratio", "plus-high-far-ratio"):
        assert expected in ids
    by_id = {c.check_id: c for c in rep.checks}
    assert by_id["incoming-conjugation"].passed
    assert by_id["boundary-value-converged"].passed
    converged = by_id["boundary-value-converged"]
    assert converged.value <= converged.threshold
    assert by_id["plus-outgoing-slope"].passed
    assert by_id["plus-mirrored-slope"].passed
    assert set(rep.artifacts["vectors"]) == {"u_plus", "u_minus", "source"}


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
    cfg_path = tmp_path / "self.cfg"
    cfg_path.write_text("[experiment]\nid = besov-selftest\nsamples = 60\n"
                        f"[output]\ndirectory = {tmp_path}/a\n")
    report_path = tmp_path / "a" / "besov-selftest_report.json"
    assert cli_main(["besov-selftest", "--config", str(cfg_path),
                     "--seed", "7"]) == 0
    first = report_path.read_bytes()
    assert cli_main(["besov-selftest", "--config", str(cfg_path),
                     "--seed", "7"]) == 0
    assert report_path.read_bytes() == first


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
    ("sector", "theta", "4"),
], ids=["coulomb-dim1", "mu", "line-size", "theta"])
def test_cli_out_of_range_value_exits_two(tmp_path, capsys, section, key, value):
    # a value the schema parses but a constructor rejects is a config error
    path = tmp_path / "range.cfg"
    path.write_text(f"[{section}]\n{key} = {value}\n"
                    f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_free_model_with_v2_table_exits_two(tmp_path, capsys):
    # the free family has no potential, so a V2 table must not be dropped
    table = tmp_path / "v2.txt"
    np.savetxt(table, [[0.0, -0.1], [3.0, 0.0]])
    path = tmp_path / "free.cfg"
    path.write_text(f"[model]\nfamily = free\nv2_table = {table}\n"
                    f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["lap-sweep", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_failing_check_exit_one(tmp_path):
    # without the absorbing layer the box reflection contaminates the
    # boundary value and the direction filters detect it
    cfg_path = tmp_path / "rad.cfg"
    cfg_path.write_text("""
[model]
family = standard

[grid]
length = 100.0
size = 1024
absorber_strength = 0.0

[experiment]
id = radiation
tolerance = 1e-3
""" + f"[output]\ndirectory = {tmp_path}/out\n")
    assert cli_main(["radiation", "--config", str(cfg_path)]) == 1


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


def test_custom_v2_table_through_config(tmp_path):
    table = tmp_path / "v2.txt"
    radii = np.linspace(0.0, 3.0, 31)
    np.savetxt(table, np.column_stack([radii, -0.1 * np.exp(-radii)]))
    cfg = parse_config_text(f"""
[model]
family = standard
v2_table = {table}
v2_delta = 0.5
v2_c = 0.2
v2_r = 3.0

[grid]
length = 50.0
size = 512

[experiment]
id = check-potential
""")
    rep = run_check_potential(cfg)
    assert rep.passed, rep.to_dict()
    with pytest.raises(ConfigError):
        bad = parse_config_text(f"""
[model]
family = standard
v2_table = {tmp_path}/absent.txt

[experiment]
id = check-potential
""")
        run_check_potential(bad)
    # a table that is not two columns is a config error too
    np.savetxt(table, np.ones((4, 3)))
    with pytest.raises(ConfigError, match="two-column"):
        run_check_potential(cfg)
