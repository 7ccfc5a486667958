"""Tests of the benchmark itself: span arithmetic, the gate, the tracer.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from gate import Gate, load_expected  # noqa: E402


def span(name, parent, t0, t1, extra=None):
    return [name, parent, t0, t1, extra]


# ---------------------------------------------------------------------------
# self times and attribution
# ---------------------------------------------------------------------------

def test_self_times_of_a_nested_tree():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("a", 0, 1.0, 4.0),
        span("a.child", 1, 2.0, 3.0),
        span("b", 0, 5.0, 6.5),
    ]
    assert tracer.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_times_count_overlapping_children_once():
    spans = [
        span("root", -1, 0.0, 10.0),
        span("x", 0, 1.0, 5.0),
        span("y", 0, 3.0, 7.0),        # overlaps x on [3, 5]
        span("z", 0, 9.0, 12.0),       # runs past its parent's end
    ]
    assert tracer.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_bstar_time_and_solves_split_at_power_iterations():
    s = tracer.SOLVE
    spans = [
        span(tracer.BSTAR, -1, 0.0, 10.0),
        span(tracer.FACTORIZE, 0, 0.0, 1.0),
        span(s, 0, 1.0, 2.0),
        span(s, 0, 2.0, 3.0),
        span(tracer.POWER, 0, 4.0, 8.0, {"iterations": 7, "converged": False}),
        span(s, 4, 4.0, 5.0),
        span(tracer.SOLVE_ADJOINT, 4, 5.0, 6.5),
        span(s, 6, 5.5, 6.0),
        span(tracer.POWER, -1, 11.0, 12.0, {"iterations": 3, "converged": True}),
        span(s, 8, 11.0, 11.5),
    ]
    m = tracer.layer_metrics(spans)
    assert m["resolvent.bstar.block_s"] == pytest.approx(6.0)
    assert m["resolvent.bstar.pair_s"] == pytest.approx(4.0)
    assert m["resolvent.bstar.block_solves"] == 2
    assert m["resolvent.bstar.pair_solves"] == 2
    assert m["resolvent.solve.count"] == 5
    assert m["resolvent.solve.self_s"] == pytest.approx(1 + 1 + 1 + 1.0 + 0.5 + 0.5)
    assert m["resolvent.factorize.count"] == 1
    assert m["resolvent.solves_per_factorization"] == 5
    assert m["resolvent.power.runs"] == 2
    assert m["resolvent.power.matvecs"] == 10
    assert m["resolvent.power.unconverged_share"] == 0.5


def test_boundary_value_steps_count_outermost_calls_only():
    spans = [
        span(tracer.BOUNDARY, -1, 0.0, 1.0, {"steps": 12}),
        span(tracer.BOUNDARY, -1, 1.0, 2.0, {"steps": 12}),   # the -i0 value
        span(tracer.BOUNDARY, 1, 1.0, 2.0, {"steps": 12}),    # its +i0 solve
    ]
    assert tracer.layer_metrics(spans)["resolvent.boundary_value.steps"] == 24


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

RADIATION_VALUES = {"boundary-value-converged": 1e-5, "plus-outgoing-slope": -0.9,
                    "plus-high-slope": -1.2, "plus-mirrored-slope": 0.0,
                    "plus-outgoing-far-ratio": 0.15}


def radiation_report(**overrides):
    values = dict(RADIATION_VALUES, **overrides)
    return {"checks": [{"check_id": k, "passed": True, "value": v}
                       for k, v in values.items()],
            "extras": {"ladder_plus": [1.0, 0.65, 0.65**2]}}


def gate_for(report, command="radiation", seed=0):
    gate = Gate()
    gate.exit_code(command, 0)
    gate.report(command, report, seed, load_expected(ROOT))
    return gate


def test_gate_passes_a_good_report():
    gate = gate_for(radiation_report())
    assert gate.fail_share == 0.0
    # exit code, five checks, four present, four pinned checks, the ladder
    assert gate.attempted == 1 + 5 + 4 + 4 + 1


def test_gate_catches_a_flipped_check():
    report = radiation_report()
    report["checks"][2]["passed"] = False
    gate = gate_for(report)
    assert gate.fail_share > 0.0
    assert gate.failed == 1


def test_gate_catches_a_pinned_value_out_of_band():
    gate = gate_for(radiation_report(**{"plus-outgoing-slope": -0.7}))
    assert gate.fail_share > 0.0
    assert gate.failures == [
        "radiation: radiation_outgoing_slope = -0.7 outside [-1.15, -0.75]"]


def test_pins_apply_only_at_the_calibration_seed():
    gate = gate_for(radiation_report(**{"plus-outgoing-slope": -0.7}), seed=3)
    assert gate.fail_share == 0.0


def test_gate_catches_a_moved_ladder_ratio():
    report = radiation_report()
    report["extras"]["ladder_plus"] = [1.0, 0.9, 0.81]
    assert gate_for(report).fail_share > 0.0


def test_gate_catches_a_missing_check():
    checks = [{"check_id": "unweighted-growth", "passed": True, "value": -1.0}]
    gate = gate_for({"checks": checks, "extras": {}}, command="lap-sweep", seed=5)
    assert gate.failed == 3
    assert gate.fail_share > 0.0


def test_gate_catches_differing_repeats(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    for d in (first, second):
        d.mkdir()
        (d / "r_report.json").write_text("{}\n")
        (d / "r.log").write_text(f"runtime {d.name}\n")   # logs are not compared
    gate = Gate()
    gate.identical(first, second)
    assert gate.fail_share == 0.0
    (second / "r_report.json").write_text("{ }\n")
    gate.identical(first, second)
    assert gate.failed == 1


# ---------------------------------------------------------------------------
# the tracer on lapkit itself
# ---------------------------------------------------------------------------

def test_install_reaches_names_imported_by_callers():
    import lapkit.experiments as experiments
    import lapkit.resolvent as resolvent
    from lapkit.operators import Grid1D, build_hamiltonian
    from lapkit.potential import standard_model

    rec = tracer.Recorder()
    restore = tracer.install(rec)
    try:
        grid = Grid1D(8.0, 32)
        h_op = experiments.build_hamiltonian(standard_model(1.0, 1.0, 1), grid)
        est = experiments.weighted_opnorm(h_op, 0.1j, np.ones(32), np.ones(32),
                                          rng=np.random.default_rng(0))
    finally:
        restore()
    names = [s[0] for s in rec.spans]
    assert names[0] == "operators.build_hamiltonian"
    assert "resolvent.weighted_opnorm" in names
    power = names.index(tracer.POWER)
    assert rec.spans[power][4]["iterations"] == est.iterations
    solves = [s for s in rec.spans if s[0] == tracer.SOLVE]
    assert len(solves) >= 2 * est.iterations - 1
    # after restore nothing is traced
    assert experiments.build_hamiltonian is build_hamiltonian
    assert not hasattr(resolvent.ShiftedSolver.solve, "__wrapped__")
    count = len(rec.spans)
    resolvent.ShiftedSolver(h_op, 0.1j).solve(np.ones(32))
    assert len(rec.spans) == count


def test_dump_and_load_round_trip(tmp_path):
    rec = tracer.Recorder()
    outer = rec.open("outer")
    rec.wrap("inner", lambda: None, after=lambda a, k, r: {"n": 1})()
    rec.close(outer)
    rec.dump(tmp_path / "spans.json")
    spans = tracer.load_spans(tmp_path / "spans.json")
    assert [s[0] for s in spans] == ["outer", "inner", tracer.HOOK]
    assert [s[1] for s in spans] == [-1, 0, 0]
    assert spans[1][4] == {"n": 1}


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in run.PER_LAYER]
    derived = set(tracer.layer_metrics([])) | {"trace.overhead_s"}
    assert derived == {row[0] for row in run.PER_LAYER}
