"""Machine-readable experiment reports, CSV sweeps, and vector dumps.

Reports serialize deterministically: given the same config and seed
the JSON bytes are identical, so wall-clock runtime is kept out of the
serialized form (it is carried on the in-memory object and printed by
the command line instead).  Each check cites exactly one stable
anchor id naming the inequality or identity it exercises.  Reports and
vector sidecars are strict JSON: a non-finite float is written as the
string "nan", "inf" or "-inf".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CheckResult",
    "Report",
    "SWEEP_COLUMNS",
    "write_sweep_csv",
    "dump_vector",
    "load_vector",
]

SWEEP_COLUMNS = ["re_z", "im_z", "abs_z", "arg_z", "quantity",
                 "lower", "upper", "residual", "stable"]


@dataclass
class CheckResult:
    """One verified statement: measured value against its threshold."""

    check_id: str
    anchor: str                  # stable id of the inequality checked
    passed: bool
    value: float | None = None
    threshold: float | None = None
    comparison: str = "<="
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "anchor": self.anchor,
            "passed": bool(self.passed),
            "value": _jsonable(self.value),
            "threshold": _jsonable(self.threshold),
            "comparison": self.comparison,
            "description": self.description,
        }


@dataclass
class Report:
    experiment: str
    seed: int
    config: dict
    checks: list[CheckResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)   # not serialized
    runtime_seconds: float | None = None            # not serialized
    inconclusive: bool = False

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
            "inconclusive": self.inconclusive,
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
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, float)):
        return _float(value)
    # bool is a subclass of int, so it is tested first
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        return [_float(value.real), _float(value.imag)]
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
    sidecar = dict(header)
    sidecar["length"] = len(u)
    sidecar["format"] = "little-endian float64 (re, im) pairs"
    with open(path + ".json", "w") as fh:
        json.dump(_jsonable(sidecar), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def load_vector(path) -> np.ndarray:
    path = str(path)
    raw = np.fromfile(path + ".f64", dtype="<f8")
    return raw[0::2] + 1j * raw[1::2]
