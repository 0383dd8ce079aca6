"""Periodic grid and spectral-field containers.

The domain is [-L, L) sampled at n points (n a power of two), with
frequencies xi_j = pi j / L in numpy fft ordering.  Coefficients are stored
in the raw ``np.fft.fft`` convention; ``continuum_coeffs`` rescales them by
dx / sqrt(2 pi) and moves the origin from x = -L to x = 0, so they
approximate the unitary Fourier transform on the line, which is the
normalization used by all norm diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Grid:
    """Periodic spatial/spectral discretization with n modes on [-L, L)."""

    n_modes: int
    half_length: float

    def __post_init__(self):
        # n >= 2 keeps a Nyquist mode apart from the mean and 5n/2, the
        # dealiased quartic's grid, a whole number
        if self.n_modes < 2 or self.n_modes & (self.n_modes - 1):
            raise ValueError(f"n_modes must be a power of two >= 2, got {self.n_modes}")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_modes

    @property
    def dxi(self) -> float:
        return math.pi / self.half_length

    @property
    def nyquist(self) -> float:
        return math.pi * self.n_modes / (2.0 * self.half_length)

    @property
    def points(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n_modes)

    @property
    def frequencies(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n_modes, d=self.dx)


@dataclass
class SpectralField:
    """Fourier coefficients of a real field at a fixed time."""

    grid: Grid
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.n_modes,):
            raise ValueError("coefficient array does not match grid size")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite spectral coefficients")

    @classmethod
    def from_physical(cls, grid: Grid, values, time: float = 0.0) -> "SpectralField":
        values = np.asarray(values, dtype=float)
        return cls(grid, np.fft.fft(values), time)

    @classmethod
    def from_function(cls, grid: Grid, fn, time: float = 0.0) -> "SpectralField":
        return cls.from_physical(grid, fn(grid.points), time)

    def physical(self) -> np.ndarray:
        """Real-space samples; imaginary residue is discarded."""
        return np.fft.ifft(self.coeffs).real

    def max_imag(self) -> float:
        """Largest imaginary residue of the physical field (realness check)."""
        return float(np.max(np.abs(np.fft.ifft(self.coeffs).imag)))

    @property
    def continuum_coeffs(self) -> np.ndarray:
        """Coefficients scaled to the unitary continuous Fourier transform.

        The fft indexes samples from x = -L, so a phase exp(i xi_j L) restores
        the continuum convention; without it the coefficients alternate in
        sign and off-grid interpolation is meaningless.  As xi_j L = pi j,
        that phase is exactly (-1)^j: the odd fft indices are negated.
        """
        c = self.coeffs * (self.grid.dx / _TWO_PI_SQRT)
        np.negative(c[1::2], out=c[1::2])
        return c

    def hermitian_defect(self) -> float:
        """Max |c(-xi) - conj(c(xi))| over the grid; 0 for a real field."""
        c = self.coeffs
        mirrored = np.conj(np.roll(c[::-1], 1))
        return float(np.max(np.abs(c - mirrored)))
