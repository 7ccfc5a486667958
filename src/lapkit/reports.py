"""Machine-readable experiment reports, CSV sweeps, and vector dumps.

Reports serialize deterministically: given the same config and seed
the JSON bytes are identical, so wall-clock runtime is kept out of the
serialized form (the command line prints it instead).  Each check
cites exactly one stable anchor id naming the inequality or identity
it exercises.  Reports and vector sidecars are strict JSON: a
non-finite float is written as the string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "CheckResult",
    "Report",
    "SWEEP_COLUMNS",
    "write_sweep_csv",
    "dump_vector",
]

SWEEP_COLUMNS = ["re_z", "im_z", "abs_z", "arg_z", "quantity",
                 "lower", "upper", "residual", "stable"]


@dataclass
class CheckResult:
    """One verified statement: measured value against its threshold.

    The one verdict rule: a check passes iff ``value comparison
    threshold`` holds, so a NaN value never passes.  A threshold
    includes whatever rounding allowance the check grants.
    """

    check_id: str
    anchor: str                  # stable id of the inequality checked
    value: float
    threshold: float
    comparison: str              # "<=" or ">="
    description: str

    @property
    def passed(self) -> bool:
        if self.comparison == "<=":
            return bool(self.value <= self.threshold)
        if self.comparison == ">=":
            return bool(self.value >= self.threshold)
        raise ValueError(f"unknown comparison {self.comparison!r}")

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed,
                "value": _jsonable(self.value), "threshold": _jsonable(self.threshold)}


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)   # CSV rows, vectors: not serialized

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "passed": self.passed,
            "config": _jsonable(self.config),
            "checks": [c.to_dict() for c in self.checks],
            "extras": _jsonable(self.extras),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _float(x: float):
    """A float, or "nan", "inf", "-inf" where strict JSON has no number."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return _float(value)
    # bool is a subclass of int, so it is tested first
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def write_sweep_csv(path, rows: list[dict]) -> None:
    """Sweep rows with the fixed column schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in SWEEP_COLUMNS})


def dump_vector(path, u, header: dict) -> None:
    """Little-endian float64 (re, im) pairs plus a JSON sidecar."""
    u = np.asarray(u, dtype="<c16")
    path = str(path)
    u.tofile(path + ".f64")
    sidecar = {**header, "length": len(u), "format": "little-endian float64 (re, im) pairs"}
    with open(path + ".json", "w") as fh:
        json.dump(_jsonable(sidecar), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")

