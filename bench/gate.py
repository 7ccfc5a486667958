"""Correctness gate of the benchmark.

Every check is counted as attempted; ``Gate.fail_share`` is the share
that failed.  The checks: each CLI invocation exits with 0, each check
in each report passes and the expected ones are present, at the
calibration seed 0 each value pinned in ``tests/expected_results.json``
that the reports carry lies inside its band, and repeats of one
(config, seed) write identical bytes.  The
pinned bands are read, never written.
"""

from __future__ import annotations

import json
from pathlib import Path

CALIBRATION_SEED = 0

# check ids a report must carry: a sweep whose fits find too few stable
# rows omits its checks instead of failing them
REQUIRED_CHECKS = {
    "lap-sweep": ("unweighted-growth", "weighted-boundedness",
                  "shell-dual-lower-boundedness", "shell-dual-upper-boundedness"),
}

# report check id -> key in tests/expected_results.json, per command; the
# sweep exponents are pinned for the desk config only, which the benchmark
# does not run (see bench/configs/sweep.cfg)
PINNED_CHECKS = {
    "radiation": {
        "plus-outgoing-slope": "radiation_outgoing_slope",
        "plus-high-slope": "radiation_high_slope",
        "plus-mirrored-slope": "radiation_mirrored_slope",
        "plus-outgoing-far-ratio": "radiation_far_ratio",
    },
    "uniqueness": {
        "interior-null-residual": "uniqueness_interior_residual",
        "null-difference-magnitude": "uniqueness_magnitude",
        "null-outgoing-slope": "uniqueness_outgoing_slope",
    },
}


def ladder_geometric_ratio(report: dict) -> float:
    """Mean per-step ratio of the boundary-value difference ladder."""
    diffs = report["extras"]["ladder_plus"]
    return (diffs[-1] / diffs[0]) ** (1.0 / (len(diffs) - 1))


# pinned values the reports carry outside their checks
PINNED_EXTRAS = {
    "radiation": {"ladder_geometric_ratio": ladder_geometric_ratio},
}


def load_expected(root) -> dict:
    return json.loads((Path(root) / "tests" / "expected_results.json").read_text())


class Gate:
    """Tally of attempted and failed correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def exit_code(self, command: str, code) -> None:
        self.check(code == 0, f"{command}: exit code {code}")

    def report(self, command: str, report: dict, seed: int,
               expected: dict) -> None:
        """Every check passes; pinned values in band at the calibration seed."""
        for check in report["checks"]:
            self.check(bool(check["passed"]),
                       f"{command}: check {check['check_id']} failed "
                       f"(value {check['value']})")
        values = {c["check_id"]: c["value"] for c in report["checks"]}
        for check_id in (*REQUIRED_CHECKS.get(command, ()),
                         *PINNED_CHECKS.get(command, ())):
            self.check(check_id in values, f"{command}: check {check_id} missing")
        if seed != CALIBRATION_SEED:
            return
        for check_id, key in PINNED_CHECKS.get(command, {}).items():
            self._pinned(command, key, values.get(check_id), expected)
        for key, fn in PINNED_EXTRAS.get(command, {}).items():
            try:
                value = fn(report)
            except (KeyError, IndexError, ZeroDivisionError, TypeError):
                value = None
            self._pinned(command, key, value, expected)

    def _pinned(self, command, key, value, expected) -> None:
        lo, hi = expected[key]
        ok = isinstance(value, (int, float)) and lo <= value <= hi
        self.check(ok, f"{command}: {key} = {value} outside [{lo}, {hi}]")

    def identical(self, first: Path, second: Path) -> None:
        """Both output directories hold the same files, byte for byte."""
        names_a = sorted(p.name for p in first.iterdir() if not p.name.endswith(".log"))
        names_b = sorted(p.name for p in second.iterdir() if not p.name.endswith(".log"))
        self.check(names_a == names_b,
                   f"{first} and {second} hold different files")
        for name in sorted(set(names_a) & set(names_b)):
            self.check((first / name).read_bytes() == (second / name).read_bytes(),
                       f"{name} differs between repeats of one (config, seed)")
