"""Grids on the line and the half-line.

The 1-d line grid carries nodes offset half a cell from the box edges
(FFT-compatible, node count a power of two); the radial grid offsets
nodes away from r = 0 so the centrifugal term is evaluated exactly at
nodes.
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

    def widen(self) -> "Grid1D":
        """Same spacing, twice the box."""
        return Grid1D(self.length * 2, self.size * 2)


@dataclass(frozen=True)
class RadialGrid:
    """Half-line (0, L] with cell-centered nodes, spherical reduction
    of the s-wave (angular momentum 0) in dimension ``dim``."""

    length: float
    size: int
    dim: int

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("grid size must be at least 2")
        if self.length <= 0:
            raise ValueError("radius must be positive")
        if self.dim < 1:
            raise ValueError("need dim >= 1")

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def nodes(self) -> np.ndarray:
        h = self.spacing
        return (np.arange(self.size) + 0.5) * h
