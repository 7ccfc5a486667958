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
from .reports import Report, dump_vector, write_sweep_csv

SUBCOMMANDS = EXPERIMENT_IDS + ("export-operator",)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapkit",
        description="numerical checks of low-energy resolvent bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--output", default=None,
                       help="override the output directory")
    return parser


def _print_checks(report: Report) -> None:
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = ""
        if check.value is not None and check.threshold is not None:
            detail = f"  {check.value:.6g} {check.comparison} {check.threshold:.6g}"
        print(f"[{status}] {check.check_id}{detail}")
    if report.inconclusive:
        print("[NOTE] report marked inconclusive")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.experiment["seed"] = args.seed
    if args.output is not None:
        cfg.output["directory"] = args.output
    outdir = Path(cfg.output["directory"])

    if args.command == "export-operator":
        from .operators import build_hamiltonian, export_triplets
        try:
            model = build_model(cfg)
            grid = build_grid(cfg)
            h_op = build_hamiltonian(model, grid)
        except (ConfigError, DimensionError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        outdir.mkdir(parents=True, exist_ok=True)
        path = outdir / "operator_H.txt"
        export_triplets(h_op, path)
        print(f"wrote {path}")
        return 0

    if cfg.experiment_id != args.command:
        # the subcommand wins over the config's experiment id
        cfg.experiment["id"] = args.command

    start = time.perf_counter()
    try:
        report = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    report.runtime_seconds = time.perf_counter() - start

    outdir.mkdir(parents=True, exist_ok=True)
    rows = report.extras.pop("csv_rows", None)
    if rows:
        csv_path = outdir / f"{args.command}.csv"
        write_sweep_csv(csv_path, rows)
        print(f"wrote {csv_path}")
    vectors = report.artifacts.pop("vectors", None)
    if vectors:
        header_base = {"experiment": args.command, "seed": cfg.seed,
                       "grid": cfg.grid, "model": cfg.model,
                       "sector": cfg.sector,
                       "tolerance": cfg.experiment["tolerance"]}
        for name, vec in vectors.items():
            dump_vector(outdir / f"{args.command}_{name}", vec, header_base)
        print(f"wrote {len(vectors)} vector dumps to {outdir}")
    report_path = outdir / f"{args.command}_report.json"
    report.write(report_path)
    print(f"wrote {report_path}")

    _print_checks(report)
    print(f"runtime: {report.runtime_seconds:.2f} s")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
