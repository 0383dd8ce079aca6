"""Periodic grid and spectral-field containers.

On [-L, L) at n points (n a power of two), a real field is held as its
half-spectrum, the n/2 + 1 raw ``np.fft.fft`` coefficients at xi_k = pi k / L,
k = 0 ... n/2; the modes at -xi_k are their conjugates, so realness is
structural.  The one component the layout leaves free is the Nyquist entry's
imaginary part: ``physical()`` ignores it, ``quartic_hat`` does not.
``from_physical`` transforms one complex copy of the samples in place and
keeps its first n/2 + 1 entries in an array of their own, so neither the
samples nor the n-point transform outlive it.
``continuum_coeffs`` rescales by dx / sqrt(2 pi) and moves the origin from
x = -L to x = 0, approximating the unitary Fourier transform on the line.
A snapshot file holds the half-spectrum as it is held here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TWO_PI_SQRT = math.sqrt(2.0 * math.pi)

#: The margin ahead of the fast front at x = tau, in units of its Airy scale (3 tau)^(1/3)
#: (omega = xi - xi^3 + ... near xi = 0).  At this margin a linear run's sup|u| is within 1e-9
#: of that on a box 8 times longer (L = 64 and 128, dx = 0.25, width 0.5); at 4, within 3e-5.
AIRY_MARGIN = 8.0


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
        if not 0 < self.half_length < math.inf:
            raise ValueError(f"half_length must be positive and finite, got {self.half_length!r}")

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
        """x_j = -L + dx j, formed in place in one array: bitwise -L + dx * arange(n)."""
        x = np.arange(self.n_modes, dtype=float)
        x *= self.dx
        x += -self.half_length
        return x

    def max_unwrapped_time(self, reach: float) -> float:
        """The largest tau with (9/8) tau + 2 reach + AIRY_MARGIN (3 tau)^(1/3) <= 2L, negative if
        there is none.  Linear waves from data within ``reach`` of x = 0 travel at group velocities
        in [-1/8, 1]; until tau the fast front, re-entering at -L, stays off the slow edge at
        -tau/8 - reach.  With y = (3 tau)^(1/3) that is y^3 + p y = 16 (L - reach) / 3 with
        p = 8 AIRY_MARGIN / 3, whose one real root has the closed form below."""
        p = 8.0 * AIRY_MARGIN / 3.0
        r = math.sqrt(p / 3.0)
        y = 2.0 * r * math.sinh(math.asinh(8.0 * (self.half_length - reach) / (p * r)) / 3.0)
        return y**3 / 3.0

    @property
    def frequencies(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.rfftfreq(self.n_modes, d=self.dx)


@dataclass
class SpectralField:
    """Half-spectrum of a real field at a fixed time (see the module docstring)."""

    grid: Grid
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.grid.n_modes // 2 + 1,):
            raise ValueError(f"expected the n/2 + 1 half-spectrum coefficients, got shape {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite spectral coefficients")

    @classmethod
    def from_physical(cls, grid: Grid, values, time: float = 0.0) -> "SpectralField":
        # fft, not rfft: rfft's 2e-17 moves a scatter row of perfbench/reference past its 1e-9 tolerance.
        # The samples are dropped once copied into z, so a caller that keeps none frees them before
        # the in-place transform; the copy of z's first n/2 + 1 entries lets z go too.
        z = np.asarray(values, dtype=float).astype(complex)
        del values
        np.fft.fft(z, out=z)
        return cls(grid, z[: grid.n_modes // 2 + 1].copy(), time)

    @classmethod
    def from_function(cls, grid: Grid, fn, time: float = 0.0) -> "SpectralField":
        return cls.from_physical(grid, fn(grid.points), time)

    def physical(self, out: np.ndarray | None = None) -> np.ndarray:
        """Real-space samples, written to ``out`` (n floats) if given; the mean
        and Nyquist entries' imaginary parts are ignored."""
        return np.fft.irfft(self.coeffs, self.grid.n_modes, out=out)

    @property
    def continuum_coeffs(self) -> np.ndarray:
        """Coefficients scaled to the unitary continuous Fourier transform.

        The fft indexes samples from x = -L, so a phase exp(i xi_j L) restores
        the continuum convention; without it the coefficients alternate in
        sign and off-grid interpolation is meaningless.  As xi_j L = pi j,
        that phase is exactly (-1)^j: the odd indices are negated.
        """
        c = self.coeffs * (self.grid.dx / _TWO_PI_SQRT)
        np.negative(c[1::2], out=c[1::2])
        return c
