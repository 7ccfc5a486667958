"""Desk-scale numerical verification of low-energy resolvent estimates.

Building blocks: exact shell-space (Besov-type) norms for
multiplication weights, potential models with runtime-checkable
hypotheses, discretized Hamiltonians and the dilation generator,
FFT Weyl quantization with radiation-condition filters, sector solves
with certified norm brackets, and batch experiments with
machine-readable reports.

The numpy-only modules load with the package; ``experiments``,
``operators`` and ``resolvent`` (which need scipy) and the names they
export here load on first access.
"""

import importlib

from . import besov, config, errors, grids, potential, reports, weyl
from .besov import (ShellScheme, besov_norm, bstar0_defect, dual_norm,
                    shell_decompose)
from .errors import (ConfigError, DataError, DimensionError,
                     ExtrapolationError, SolverError)
from .grids import Grid1D, RadialGrid
from .potential import (PotentialModel, WeightParams, check_condition,
                        coulomb_model, standard_model, virial_w, weight_f)
from .weyl import FilterSpec, radiation_filter, weyl_apply, weyl_matrix

__version__ = "0.1.0"

# the scipy-side submodules and the names exported from them, loaded on
# first access
_LAZY = {
    "experiments": (),
    "operators": ("build_dilation", "build_hamiltonian", "commutator_residual"),
    "resolvent": ("Sector", "ShiftedSolver", "besov_bstar_estimate",
                  "boundary_value", "hoelder_estimate", "mourre_resolvent",
                  "quadratic_check", "solve", "spectral_free_solve",
                  "weighted_opnorm"),
}
_ORIGIN = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_ORIGIN[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_ORIGIN))
