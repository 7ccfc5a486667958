"""lapkit benchmark: the shipped CLI experiments as one closed-loop client.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0      # every workload in turn

A run is a sequence of passes.  Each pass is one fresh process
(bench/child.py) that imports lapkit, loads the config and runs the
workload's CLI commands one after the other, like a user at a shell.
Passes repeat while the next one is expected to end within
``--seconds``, at least MIN_PASSES of them.  Pass i uses seed
``--seed + i % 2``, so from the third pass on every pass repeats an
earlier (config, seed) and its output bytes are compared.
Before the passes, a warm-up process runs and SETUP_SAMPLES set-up-only
processes sample the set-up time.  At most one child runs at a time,
so the run uses no more threads than the BLAS pool of one process.

With ``--trace 1`` every pass is run twice, untraced and then traced
(tracer.py wraps lapkit's public functions), the two outputs are
compared byte for byte, and the per-layer metrics are printed instead
of the end-to-end ones; ``trace.overhead_s`` is the traced minus the
untraced pass wall time.

Every output is checked by gate.py.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and
metrics.  The full result, with the environment, is also written to
bench/out/<workload>-seed<seed>-trace<trace>/result.json.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Gate, load_expected

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_SAMPLES = 4
# a run must end within 180 s; leave room for start-up and reporting
RUN_LIMIT_S = 170.0

# workload -> the (command, config) pairs one pass runs, in order
WORKLOADS = {
    "sweep": [("lap-sweep", "bench/configs/sweep.cfg")],
    "radiation": [("radiation", "demos/configs/radiation.cfg"),
                  ("uniqueness", "demos/configs/radiation.cfg")],
    "selftest": [("besov-selftest", "demos/configs/selftest.cfg"),
                 ("check-potential", "demos/configs/coulomb_check.cfg")],
}
# one sweep pass (about 14 s) is too short to average the host's speed
# changes, so a sweep run makes two, over two seeds; others make one at least
MIN_PASSES = {"sweep": 2}

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("check_pass_share", "ratio", "higher"),
    ("bracket_ratio", "ratio", "lower"),
)

# name, unit, better, the end-to-end metric and workload it should move
PER_LAYER = (
    ("resolvent.factorize.count", "count", "lower", "wall_s on radiation and sweep"),
    ("resolvent.factorize.self_s", "s", "lower", "wall_s on radiation and sweep"),
    ("resolvent.solve.count", "count", "lower", "wall_s on sweep"),
    ("resolvent.solve.self_s", "s", "lower", "wall_s on sweep"),
    ("resolvent.solves_per_factorization", "ratio", "higher", "wall_s on sweep"),
    ("resolvent.bstar.block_s", "s", "lower", "wall_s on sweep"),
    ("resolvent.bstar.block_solves", "count", "lower", "wall_s on sweep"),
    ("resolvent.bstar.pair_s", "s", "lower", "wall_s and bracket_ratio on sweep"),
    ("resolvent.bstar.pair_solves", "count", "lower", "wall_s and bracket_ratio on sweep"),
    ("resolvent.power.runs", "count", "lower", "wall_s and bracket_ratio on sweep"),
    ("resolvent.power.matvecs", "count", "lower", "wall_s and bracket_ratio on sweep"),
    ("resolvent.power.unconverged_share", "ratio", "lower",
     "wall_s and bracket_ratio on sweep"),
    ("resolvent.weighted_opnorm.self_s", "s", "lower", "wall_s on sweep"),
    ("resolvent.boundary_value.steps", "count", "lower", "wall_s on radiation"),
    ("resolvent.boundary_value.self_s", "s", "lower", "wall_s on radiation"),
    ("weyl.weyl_apply.calls", "count", "lower", "wall_s on radiation"),
    ("weyl.weyl_apply.self_s", "s", "lower", "wall_s on radiation"),
    ("weyl.smoothstep7.points", "count", "lower", "wall_s on radiation"),
    ("weyl.smoothstep7.self_s", "s", "lower", "wall_s on radiation"),
    ("weyl.symbol.nonzero_share", "ratio", "higher",
     "wall_s and peak_rss_mb on radiation"),
    ("weyl.radiation_filter.self_s", "s", "lower", "wall_s on radiation"),
    ("besov.shell_decompose.calls", "count", "lower", "wall_s on selftest"),
    ("besov.shell_decompose.self_s", "s", "lower", "wall_s on selftest"),
    ("besov.verify.self_s", "s", "lower", "wall_s on selftest"),
    ("besov.schur_block_bound.self_s", "s", "lower", "wall_s on selftest"),
    ("besov.bstar_norm_dense.self_s", "s", "lower", "wall_s on selftest"),
    ("potential.weight_f.calls", "count", "lower", "wall_s on selftest and sweep"),
    ("potential.weight_f.self_s", "s", "lower", "wall_s on selftest and sweep"),
    ("potential.check_condition.self_s", "s", "lower", "wall_s on selftest and sweep"),
    ("operators.build_hamiltonian.calls", "count", "lower", "wall_s on sweep"),
    ("operators.build_hamiltonian.self_s", "s", "lower", "wall_s on sweep"),
    ("reports.write.self_s", "s", "lower", "wall_s on radiation"),
    ("reports.bytes", "B", "lower", "wall_s on radiation"),
    ("experiments.self_s", "s", "lower", "wall_s on sweep"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced pass wall time"),
)


def missing_files(root: Path) -> list[str]:
    """Files of the checkout the benchmark runs or reads that are absent."""
    needed = [root / "src" / "lapkit" / "cli.py",
              root / "tests" / "expected_results.json"]
    needed += sorted({root / cfg for pairs in WORKLOADS.values() for _, cfg in pairs})
    return [str(p.relative_to(root)) for p in needed if not p.is_file()]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

class Deadline(Exception):
    pass


def spawn(spec: dict, deadline: float) -> tuple[dict | None, float]:
    """Run one child to completion in the directory of its result file;
    returns its result (None on failure) and the wall time from spawn to
    exit."""
    result_path = Path(spec["result"])
    result_path.parent.mkdir(parents=True, exist_ok=True)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise Deadline()
    spec = dict(spec, root=str(ROOT))
    with open(result_path.with_name("stderr.txt"), "w") as err:
        spec["spawned"] = start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                cwd=result_path.parent, stdout=subprocess.DEVNULL, stderr=err,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            raise Deadline() from None
        wall = time.monotonic() - start
    if proc.returncode != 0 or not result_path.is_file():
        return None, wall
    return json.loads(result_path.read_text()), wall


def setup_spec(rundir: Path, name: str, config: str, env: bool = False) -> dict:
    return {"config": str(ROOT / config), "invocations": [], "trace": 0,
            "env": int(env), "result": str(rundir / name / "result.json")}


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------

def bracket_ratios(command: str, outdir: Path) -> list[float]:
    """upper/lower of the shell-space brackets on the stable sweep rows."""
    if command != "lap-sweep":
        return []
    with open(outdir / "lap-sweep.csv", newline="") as fh:
        return [float(r["upper"]) / float(r["lower"]) for r in csv.DictReader(fh)
                if r["quantity"] == "shell_dual" and r["stable"] == "True"
                and float(r["lower"]) > 0]


def gate_pass(gate: Gate, commands, seed, outdir: Path, result,
              expected) -> list[float]:
    """Gate one pass's outputs; returns the brackets it reports."""
    codes = result["codes"] if result else []
    brackets = []
    for k, command in enumerate(commands):
        code = codes[k] if k < len(codes) else None
        gate.exit_code(command, code)
        report_path = outdir / f"{command}_report.json"
        if code not in (0, 1) or not report_path.is_file():
            continue
        gate.report(command, json.loads(report_path.read_text()), seed, expected)
        try:
            brackets += bracket_ratios(command, outdir)
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            gate.check(False, f"{command}: unreadable bracket ({exc})")
    return brackets


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_facts(root: Path) -> dict:
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"src_lines": lines, "src_sha256": digest.hexdigest(),
            "git_commit": commit}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_pass(rundir, index, seed, pairs, trace, gate, expected, first_seen,
             deadline) -> dict:
    """One pass, and with tracing its traced repeat; gates every output."""
    record = {"seed": seed, "setups": []}
    for traced in ((False, True) if trace else (False,)):
        outdir = rundir / (f"pass{index}" + ("-traced" if traced else ""))
        out = outdir / "out"
        # reports embed the output directory, so every pass writes to the
        # same relative path and repeats can be compared byte for byte
        spec = {"config": str(ROOT / pairs[0][1]), "trace": int(traced),
                "invocations": [(cmd, str(ROOT / cfg), seed, out.name)
                                for cmd, cfg in pairs],
                "result": str(outdir / "result.json")}
        result, wall = spawn(spec, deadline)
        brackets = gate_pass(gate, [cmd for cmd, _ in pairs], seed, out,
                             result, expected)
        if seed in first_seen and out.is_dir():
            gate.identical(first_seen[seed], out)
        elif out.is_dir():
            first_seen[seed] = out
        if result is None:
            continue
        record["setups"].append(result["setup_s"])
        record["traced" if traced else "plain"] = {
            "wall_s": wall, "cpu_s": result["cpu_s"],
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
            "brackets": brackets, "spans": result.get("spans")}
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    rundir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    expected = load_expected(ROOT)
    pairs = WORKLOADS[name]
    first_config = pairs[0][1]
    gate = Gate()

    # the warm-up fills the file cache and compiles bytecode, and reports
    # the environment; it is not a set-up sample
    samples = [setup_spec(rundir, "warmup", first_config, env=True)]
    samples += [setup_spec(rundir, f"setup{k}", first_config)
                for k in range(SETUP_SAMPLES)]
    results = []
    for spec in samples:
        try:
            res, _ = spawn(spec, deadline)
        except Deadline:
            res = None
        gate.check(res is not None, f"set-up process {spec['result']} failed")
        results.append(res)
    warm = results[0]
    setups = [r["setup_s"] for r in results[1:] if r]

    passes = []
    first_seen: dict[int, Path] = {}
    measure_start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        try:
            record = run_pass(rundir, len(passes), seed + len(passes) % 2, pairs,
                              trace, gate, expected, first_seen, deadline)
        except Deadline:
            gate.check(False, f"pass {len(passes)} did not finish before the run limit")
            break
        passes.append(record)
        setups += record.pop("setups")
        # start no pass that would end after --seconds or the run limit
        now = time.monotonic()
        if len(passes) >= MIN_PASSES.get(name, 1) \
                and now - measure_start + (now - pass_start) > seconds \
                or now + (now - pass_start) > deadline:
            break

    plain = [p["plain"] for p in passes if "plain" in p]
    metrics = {}
    if plain:
        brackets = [max(p["brackets"]) for p in plain if p["brackets"]]
        # a pass's time is averaged, not a median, over the run: the host's
        # speed switches between states for seconds at a time, and a
        # median of passes picks one state where a mean weighs them
        metrics = {
            "wall_s": statistics.mean(p["wall_s"] for p in plain),
            "setup_s": statistics.median(setups) if setups else None,
            "cpu_s": statistics.mean(p["cpu_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "check_pass_share": 1.0 - gate.fail_share,
            # 1 on the workloads that run no sweep
            "bracket_ratio": statistics.median(brackets) if brackets else 1.0,
        }
    layers = None
    if trace:
        layers = layer_summary(passes)

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "passes": passes, "setup_samples": setups,
        "attempted": gate.attempted, "failed": gate.failed,
        "check_fail_share": gate.fail_share, "failures": gate.failures,
        "metrics": metrics, "layers": layers,
        "env": dict((warm or {}).get("env", {}), nproc=os.cpu_count(),
                    affinity=len(os.sched_getaffinity(0)),
                    platform=platform.platform(), **source_facts(ROOT)),
        "run_s": time.monotonic() - start,
        "rundir": str(rundir),
    }


def layer_summary(passes) -> dict | None:
    """Per-layer metrics, averaged over the traced passes."""
    from tracer import layer_metrics, load_spans

    traced = [p for p in passes if "traced" in p and "plain" in p
              and p["traced"].get("spans")]
    if not traced:
        return None
    totals: dict[str, float] = {}
    for p in traced:
        for key, value in layer_metrics(load_spans(p["traced"]["spans"])).items():
            totals[key] = totals.get(key, 0.0) + value
    out = {key: value / len(traced) for key, value in totals.items()}
    out["trace.overhead_s"] = (
        statistics.median(p["traced"]["wall_s"] for p in traced)
        - statistics.median(p["plain"]["wall_s"] for p in traced))
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def emitted_metrics(result: dict) -> dict:
    if result["trace"]:
        table, values = PER_LAYER, result["layers"] or {}
    else:
        table, values = END_TO_END, result["metrics"]
    return {row[0]: {"value": values[row[0]], "unit": row[1]}
            for row in table if values.get(row[0]) is not None}


def print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}"
          f"{' traced' if result['trace'] else ''}: {len(result['passes'])} pass(es), "
          f"{len(result['setup_samples'])} set-up samples, run {result['run_s']:.1f} s")
    if result["trace"]:
        values = result["layers"] or {}
        for name, unit, _, moves in PER_LAYER:
            if name in values:
                print(f"  {name:<38} {values[name]:>14.6g} {unit:<6} -> {moves}")
    else:
        for name, unit, _ in END_TO_END:
            if name in result["metrics"]:
                print(f"  {name:<18} {result['metrics'][name]:>12.6g} {unit}")
    print(f"  check_fail_share   {result['check_fail_share']:>12.6g} "
          f"({result['failed']} of {result['attempted']} checks failed)")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    env = result["env"]
    print("  env: " + ", ".join(f"{k}={env[k]}" for k in sorted(env)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = missing_files(ROOT)
    if missing:
        print("error: missing from the checkout: " + ", ".join(missing),
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        (Path(result["rundir"]) / "result.json").write_text(
            json.dumps(result, indent=1, default=str))
        print_summary(result)
        results.append(result)

    metrics = {}
    for result in results:
        for key, value in emitted_metrics(result).items():
            metrics[key if len(results) == 1 else f"{result['workload']}.{key}"] = value
    expected_count = len(PER_LAYER if args.trace else END_TO_END) * len(results)
    correct = all(r["failed"] == 0 for r in results) and len(metrics) == expected_count
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
