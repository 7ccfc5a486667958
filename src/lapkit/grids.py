"""Grids on the line and the half-line.

The 1-d line grid carries nodes offset half a cell from the box edges
(FFT-compatible, node count a power of two); the radial grid offsets
nodes away from r = 0 so the centrifugal term is evaluated exactly at
nodes.  Only numpy is needed here, so the shell-space and potential
checks can build grids without loading the sparse operator stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid1D", "RadialGrid"]


@dataclass(frozen=True)
class Grid1D:
    """Symmetric box [-L, L] with N power-of-two cell-centered nodes."""

    length: float
    size: int

    def __post_init__(self):
        if self.size < 2 or self.size & (self.size - 1):
            raise ValueError("grid size must be a power of two")
        if self.length <= 0:
            raise ValueError("half-width must be positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.length / self.size

    @property
    def nodes(self) -> np.ndarray:
        h = self.spacing
        return -self.length + (np.arange(self.size) + 0.5) * h

    @property
    def frequencies(self) -> np.ndarray:
        """FFT frequency ladder (pi/L) {-N/2, ..., N/2 - 1}, fftshifted order."""
        return (math.pi / self.length) * np.arange(-self.size // 2, self.size // 2)

    def refine(self) -> "Grid1D":
        """Half the spacing, same box."""
        return Grid1D(self.length, self.size * 2)

    def widen(self) -> "Grid1D":
        """Same spacing, twice the box."""
        return Grid1D(self.length * 2, self.size * 2)


@dataclass(frozen=True)
class RadialGrid:
    """Half-line (0, L] with cell-centered nodes, spherical reduction.

    The effective radial operator is -d^2/dr^2 + c_l / r^2 with
    c_l = (d-1)(d-3)/4 + l(l+d-2).
    """

    length: float
    size: int
    dim: int = 3
    ell: int = 0

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("grid size must be at least 2")
        if self.length <= 0:
            raise ValueError("radius must be positive")
        if self.ell < 0 or self.dim < 1:
            raise ValueError("need ell >= 0 and dim >= 1")
        if self.centrifugal < -0.25:
            raise ValueError("centrifugal coefficient below -1/4")

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def nodes(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(self.size) + 0.5) * h

    @property
    def centrifugal(self) -> float:
        d, ell = self.dim, self.ell
        return (d - 1) * (d - 3) / 4.0 + ell * (ell + d - 2)
