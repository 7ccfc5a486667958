"""Batch command line: run one experiment from a config file.

Exit codes: 0 when every check passes, 1 when a verified inequality
fails, 2 for configuration or solver errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import EXPERIMENT_IDS, load_config
from .errors import ConfigError, DimensionError, SolverError
from .experiments import build_grid, build_model, run_experiment
from .operators import build_hamiltonian, export_triplets
from .reports import Report, dump_vector, write_sweep_csv

SUBCOMMANDS = EXPERIMENT_IDS + ("export-operator",)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapkit",
        description="numerical checks of low-energy resolvent bounds")
    parser.add_argument("command", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="config file path")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--output", default=None,
                        help="override the output directory")
    return parser


def _print_checks(report: Report) -> None:
    # 13 digits: a ratio shows its distance from 1 at the 1e-12 allowance
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.check_id}  "
              f"{check.value:.13g} {check.comparison} {check.threshold:.13g}")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.experiment["seed"] = args.seed
        if args.output is not None:
            cfg.output["directory"] = args.output
        outdir = Path(cfg.output["directory"])
        if args.command == "export-operator":
            h_op = build_hamiltonian(build_model(cfg), build_grid(cfg))
            outdir.mkdir(parents=True, exist_ok=True)
            path = outdir / "operator_H.txt"
            export_triplets(h_op, path)
            print(f"wrote {path}")
            return 0
        # the subcommand wins over the config's experiment id
        cfg.experiment["id"] = args.command
        start = time.perf_counter()
        report = run_experiment(cfg)
        runtime = time.perf_counter() - start
    except (ConfigError, DimensionError, SolverError) as exc:
        kind = "solver" if isinstance(exc, SolverError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2

    outdir.mkdir(parents=True, exist_ok=True)
    rows = report.artifacts.pop("csv_rows", None)
    if rows:
        csv_path = outdir / f"{args.command}.csv"
        write_sweep_csv(csv_path, rows)
        print(f"wrote {csv_path}")
    vectors = report.artifacts.pop("vectors", None)
    if vectors:
        header_base = {"experiment": args.command, "seed": cfg.seed,
                       "grid": cfg.grid, "model": cfg.model,
                       "sector": cfg.sector}
        for name, vec in vectors.items():
            dump_vector(outdir / f"{args.command}_{name}", vec, header_base)
        print(f"wrote {len(vectors)} vector dumps to {outdir}")
    report_path = outdir / f"{args.command}_report.json"
    report.write(report_path)
    print(f"wrote {report_path}")

    _print_checks(report)
    print(f"runtime: {runtime:.2f} s")
    return 0 if report.passed else 1
