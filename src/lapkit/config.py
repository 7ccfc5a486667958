"""Line-oriented configuration files (INI sections of key = value).

The schema is fixed: unknown sections or keys are rejected with the
full schema listed, so a typo never silently falls back to a default.
``resolved_dict`` returns every effective value that decides a run,
which reports embed verbatim; the output directory only places the
files, so it is left out and a report does not depend on it.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .resolvent import LAMBDA0

__all__ = ["ExperimentConfig", "load_config", "parse_config_text",
           "config_schema_text", "EXPERIMENT_IDS"]

EXPERIMENT_IDS = ("besov-selftest", "check-potential", "lap-sweep",
                  "radiation", "uniqueness")


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


# section -> key -> (parser, default, help)
SCHEMA = {
    "model": {
        "family": (str, "standard", "potential family: standard | coulomb | free"),
        "gamma": (float, 1.0, "attraction strength"),
        "mu": (float, 1.0, "decay rate in (0, 2); ignored by coulomb"),
        "dim": (int, 1, "ambient dimension"),
    },
    "grid": {
        "kind": (str, "line", "grid kind: line | radial"),
        "length": (float, 400.0, "box half-width (line) or outer radius"),
        "size": (int, 4096, "node count; power of two on the line"),
    },
    "sector": {
        "moduli": (_floats, [1e-1, 1e-2, 1e-3, 1e-4], "sweep |z| on the ray theta/2"),
    },
    "experiment": {
        "id": (str, "lap-sweep", "one of: " + ", ".join(EXPERIMENT_IDS)),
        "seed": (int, 0, "seed of the self-test's sample banks"),
    },
    "output": {
        "directory": (str, "out", "where reports, CSV, vectors land"),
    },
}


@dataclass
class ExperimentConfig:
    model: dict
    grid: dict
    sector: dict
    experiment: dict
    output: dict

    @property
    def experiment_id(self) -> str:
        return self.experiment["id"]

    @property
    def seed(self) -> int:
        return self.experiment["seed"]

    def resolved_dict(self) -> dict:
        return {s: dict(getattr(self, s)) for s in SCHEMA if s != "output"}


def config_schema_text() -> str:
    lines = ["configuration schema (sections of key = value):"]
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (_, default, help_text) in keys.items():
            lines.append(f"  {key:<24} default={default!r:<24} {help_text}")
    return "\n".join(lines)


def _resolve(parser: configparser.ConfigParser) -> ExperimentConfig:
    resolved: dict[str, dict] = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(
                f"unknown section [{section}]\n" + config_schema_text())
        for key in parser[section]:
            if key not in SCHEMA[section]:
                raise ConfigError(
                    f"unknown key {key!r} in [{section}]\n" + config_schema_text())
    for section, keys in SCHEMA.items():
        resolved[section] = {}
        for key, (parse, default, _) in keys.items():
            if parser.has_option(section, key):
                raw = parser.get(section, key)
                try:
                    resolved[section][key] = parse(raw)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"bad value for {section}.{key}: {raw!r} ({exc})") from exc
                if parse in (float, _floats) and not all(
                        map(math.isfinite, _floats(raw))):
                    raise ConfigError(f"{section}.{key} must be finite: {raw!r}")
            else:
                resolved[section][key] = default
    exp_id = resolved["experiment"]["id"]
    if exp_id not in EXPERIMENT_IDS:
        raise ConfigError(
            f"unknown experiment id {exp_id!r}; valid: {', '.join(EXPERIMENT_IDS)}")
    sector = resolved["sector"]
    if not sector["moduli"]:
        raise ConfigError("sector grid is empty: no moduli given")
    if not all(0.0 < m <= LAMBDA0 for m in sector["moduli"]):
        raise ConfigError("sector.moduli must lie in (0, lambda0]")
    return ExperimentConfig(**resolved)


def parse_config_text(text: str) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    return _resolve(parser)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text())
