"""Line-oriented configuration files (INI sections of key = value).

The schema is fixed: unknown sections or keys are rejected with the
full schema listed, so a typo never silently falls back to a default.
``resolved_dict`` returns every effective value, which experiment
reports embed verbatim for reproducibility.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["ExperimentConfig", "load_config", "parse_config_text",
           "config_schema_text", "EXPERIMENT_IDS"]

EXPERIMENT_IDS = ("besov-selftest", "check-potential", "lap-sweep",
                  "besov-bound", "radiation", "uniqueness")


def _floats(text):
    return [float(tok) for tok in text.replace(",", " ").split()]


# section -> key -> (parser, default, help)
SCHEMA = {
    "model": {
        "family": (str, "standard", "potential family: standard | coulomb"),
        "gamma": (float, 1.0, "attraction strength"),
        "mu": (float, 1.0, "decay rate in (0, 2); ignored by coulomb"),
        "dim": (int, 1, "ambient dimension"),
        "v2_table": (str, None, "two-column text file (radius, value) for V2"),
        "v2_delta": (float, 0.5, "tail exponent margin of the tabulated V2"),
        "v2_c": (float, 1.0, "tail constant of the tabulated V2"),
        "v2_r": (float, 1.0, "tail radius of the tabulated V2"),
    },
    "grid": {
        "kind": (str, "line", "grid kind: line | radial"),
        "length": (float, 400.0, "box half-width (line) or outer radius"),
        "size": (int, 4096, "node count; power of two on the line"),
        "ell": (int, 0, "angular momentum for radial grids"),
        "absorber_strength": (float, 3.0, "absorbing-layer amplitude eta"),
        "absorber_width_fraction": (float, 0.375, "layer width / box size"),
    },
    "sector": {
        "theta": (float, 0.75 * math.pi, "sector opening in (0, pi)"),
        "lambda0": (float, 1.0, "modulus bound"),
        "rays": (_floats, None, "ray arguments; default theta/2"),
        "ratio": (float, 0.5, "geometric ladder ratio"),
        "steps": (int, 24, "maximum extrapolation steps"),
        "moduli": (_floats, [1e-1, 1e-2, 1e-3, 1e-4], "sweep |z| values"),
    },
    "experiment": {
        "id": (str, "lap-sweep", "one of: " + ", ".join(EXPERIMENT_IDS)),
        "seed": (int, 0, "RNG seed recorded in reports"),
        "tolerance": (float, 1e-4, "extrapolation tolerance"),
        "samples": (int, 200, "random samples per inequality"),
        "stability_check": (lambda s: s.lower() in ("1", "true", "yes"),
                            True, "gate quantities on box doubling"),
        "sigma_cut": (float, 0.5, "direction cutoff of the outgoing filter"),
        "source_width": (float, 2.0, "Gaussian source width"),
        "source_center": (float, 0.0, "Gaussian source center"),
        "weight_s": (float, None, "weight exponent; default s0 + 0.05"),
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
        return {
            "model": dict(self.model),
            "grid": dict(self.grid),
            "sector": dict(self.sector),
            "experiment": dict(self.experiment),
            "output": dict(self.output),
        }


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
            else:
                resolved[section][key] = default
    exp_id = resolved["experiment"]["id"]
    if exp_id not in EXPERIMENT_IDS:
        raise ConfigError(
            f"unknown experiment id {exp_id!r}; valid: {', '.join(EXPERIMENT_IDS)}")
    if not resolved["sector"]["moduli"]:
        raise ConfigError("sector grid is empty: no moduli given")
    return ExperimentConfig(
        model=resolved["model"],
        grid=resolved["grid"],
        sector=resolved["sector"],
        experiment=resolved["experiment"],
        output=resolved["output"],
    )


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
