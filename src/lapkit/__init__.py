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

__version__ = "0.1.0"
