"""Desk-scale numerical verification of low-energy resolvent estimates.

Building blocks: exact shell-space (Besov-type) norms for
multiplication weights, potential models with runtime-checkable
hypotheses, discretized Hamiltonians and the dilation generator,
FFT Weyl quantization with radiation-condition filters, sector solves
with certified norm brackets, and batch experiments with
machine-readable reports.
"""

import os

# set before numpy loads OpenBLAS: no lapkit BLAS call is big enough to split
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import (besov, config, errors, experiments, grids, operators, potential,
               reports, resolvent, weyl)
from .besov import ShellScheme, besov_norm, shell_decompose
from .errors import (ConfigError, DataError, DimensionError,
                     ExtrapolationError, SolverError)
from .grids import Grid1D, RadialGrid
from .operators import build_dilation, build_hamiltonian, commutator_residual
from .potential import (PotentialModel, WeightParams, check_condition,
                        coulomb_model, standard_model, virial_w, weight_f)
from .resolvent import (Sector, ShiftedSolver, besov_bstar_estimate,
                        boundary_value, hoelder_estimate, mourre_resolvent,
                        quadratic_check, spectral_free_solve,
                        weighted_opnorm)
from .weyl import FilterSpec, radiation_filter, weyl_apply, weyl_matrix

__version__ = "0.1.0"
