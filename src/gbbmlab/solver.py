"""Pseudo-spectral integration of the quartic gBBM equation

    u_t - u_xxt + (u + u^4)_x = 0

on a periodic box, written on the Fourier side as

    d/dt uhat = -i omega(xi) (uhat + (u^4)^),

with the quartic product dealiased by zero-padding to 5n/2 points, the
(p + 1) n / 2 of Orszag's rule for a p = 4-fold product of n modes.  On that
grid the one alias that reaches a kept mode is 4 x (-n/2) == +n/2 (mod 5n/2),
and quartic_hat subtracts it exactly, so the product is alias-free for any
Nyquist coefficient, real or complex.  The symbol is bounded
(|omega| <= 1/2), so the system is non-stiff and plain RK4 on uhat is
adequate; stepping with -dt is the exact adjoint of stepping with +dt,
which the reversal test exploits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dispersion import omega
from .spectral import Grid, SpectralField

#: Any coefficient magnitude above this trips the blow-up guard.
BLOWUP_GUARD = 1e10

#: The quartic product is formed on a grid this many times finer.  A 4-fold
#: product of n modes needs 5n/2 points (Orszag's rule), which removes every
#: alias except 4 x (-n/2) onto +n/2; quartic_hat subtracts that one term.
DEALIAS_PAD = 2.5


@dataclass
class SolverConfig:
    dt: float = 0.01
    t_end: float = 100.0
    record_stride: int = 100

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be nonzero and finite")
        if abs(self.dt) > 0.1:
            raise ValueError("dt exceeds the 0.1 stability budget")
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end = {self.t_end:g} must be finite")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    def n_steps(self, t0: float) -> int:
        """Number of dt-steps from t0 to t_end (0 if they coincide); ValueError if dt
        points away from t_end or misses the span by more than one part in 10^9."""
        span = self.t_end - t0
        if span * self.dt < 0:
            raise ValueError("dt sign inconsistent with t_end")
        n = round(span / self.dt)
        if abs(n * self.dt - span) > 1e-9 * abs(span):
            raise ValueError(f"dt = {self.dt:g} does not divide t_end - t0 = {span:g} into whole steps")
        return n


def quartic_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays of quartic_hat on n modes: the scaled half-spectrum, the
    field on the DEALIAS_PAD * n-point grid and that field's rfft.  ``evolve``
    makes one set per run, so the fine-grid pages are not faulted in anew on
    every call."""
    m = int(DEALIAS_PAD * n)
    return np.empty(n // 2 + 1, dtype=complex), np.empty(m), np.empty(m // 2 + 1, dtype=complex)


def quartic_hat(c: np.ndarray, buffers=None) -> np.ndarray:
    """Fourier coefficients of u^4 from those of u, with aliasing removed by
    zero-padding (irfft pads the half-spectrum) to m = DEALIAS_PAD * n points.
    The field is real, so rfft/irfft transform half the spectrum and the
    round trip re-Hermitianizes roundoff.  u^4 is two in-place squarings:
    ``u**4`` takes numpy's slow generic pow when samples are negative.

    ``buffers`` is a ``quartic_buffers(n)`` triple, reused across calls;
    without it the call makes its own.  The result is always a new array."""
    n = c.size
    half = n // 2
    ph, u, w = quartic_buffers(n) if buffers is None else buffers
    m = u.size
    np.multiply(c[: half + 1], DEALIAS_PAD, out=ph)
    ph[half] *= 0.5  # the Nyquist mode is split evenly between +-n/2
    np.fft.irfft(ph, m, out=u)  # same field sampled on the fine grid
    u *= u
    u *= u
    np.fft.rfft(u, out=w)
    # the one alias on m = 5n/2 points, 4 x (-n/2) == +n/2 (mod m): irfft puts
    # conj(a) at -n/2 for the halved Nyquist entry a, so it adds conj(a)^4 / m^3
    w[half] -= np.conj(ph[half]) ** 4 / m**3
    out = np.empty(n, dtype=complex)
    out[:half] = w[:half]
    out[half] = w[half].real * 2.0
    np.conj(w[half - 1 : 0 : -1], out=out[half + 1 :])
    out /= DEALIAS_PAD
    return out


def linear_symbol(grid: Grid) -> np.ndarray:
    """The linear symbol -i omega(xi) on the grid frequencies."""
    return -1j * omega(grid.frequencies)


def rhs(c: np.ndarray, symbol: np.ndarray, nonlinear: bool = True, buffers=None) -> np.ndarray:
    """Time derivative of the coefficients c: symbol * (c + (u^4)^), the
    quartic formed in ``buffers`` (see quartic_hat)."""
    if np.max(np.abs(c)) > BLOWUP_GUARD:
        raise OverflowError("blow-up guard tripped: coefficients exceed 1e10")
    total = c + quartic_hat(c, buffers) if nonlinear else c
    return symbol * total


def step(c: np.ndarray, symbol: np.ndarray, dt: float, nonlinear: bool = True, buffers=None) -> np.ndarray:
    """Coefficients after one classical RK4 step of size dt (dt may be negative)."""
    k1 = rhs(c, symbol, nonlinear, buffers)
    k2 = rhs(c + 0.5 * dt * k1, symbol, nonlinear, buffers)
    k3 = rhs(c + 0.5 * dt * k2, symbol, nonlinear, buffers)
    k4 = rhs(c + dt * k3, symbol, nonlinear, buffers)
    return c + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def evolve(u0: SpectralField, cfg: SolverConfig, recorder=None, nonlinear: bool = True) -> SpectralField:
    """Advance u0 to cfg.t_end in n = cfg.n_steps(t0) steps of dt = (t_end -
    t0) / n, calling ``recorder(field, profile)`` on the initial state, on
    every record_stride-th step and at the final time.  ``profile`` is
    ``discrete_profile_of(field, dt, i)`` after i steps of the dt taken.

    A cfg.dt that does not divide the span raises ValueError before anything
    is recorded, so the step taken differs from cfg.dt by round-off only.
    The state after step i is stamped with the lattice time t0 + span * i /
    n (not a sum of dt's), so lattice points such as t_end and dyadic times
    carry their exact values."""
    t0, grid = u0.time, u0.grid
    n = cfg.n_steps(t0)
    span = cfg.t_end - t0
    dt = span / n if n else cfg.dt
    if recorder is not None:
        recorder(u0, discrete_profile_of(u0, dt, 0))
    symbol = linear_symbol(grid)
    buffers = quartic_buffers(grid.n_modes)
    state = u0
    for i in range(1, n + 1):
        c = step(state.coeffs, symbol, dt, nonlinear, buffers)
        t = t0 + span * i / n
        if not np.all(np.isfinite(c)):
            raise OverflowError(f"non-finite state at t={t}")
        state = SpectralField(grid, c, t)
        if recorder is not None and (i % cfg.record_stride == 0 or i == n):
            recorder(state, discrete_profile_of(state, dt, i))
    return state


@functools.cache
def rk4_linear_log_factor(grid: Grid, dt: float) -> np.ndarray:
    """log of the RK4 amplification factor for the linear part, per mode.

    RK4 applied to c' = -i omega c multiplies by R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24 with z = -i omega dt.  Dividing the state by R^n instead
    of by e^{-i omega t} gives a profile that is exactly constant for the
    discrete linear flow, so its drift isolates the nonlinearity instead of
    being swamped by the integrator's O(dt^5) linear phase error.

    Computed once per (grid, dt) and read-only, since every record of a run
    divides by the same factor.
    """
    z = linear_symbol(grid) * dt
    log_factor = np.log(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
    log_factor.flags.writeable = False
    return log_factor


def discrete_profile_of(field: SpectralField, dt: float, n: int) -> SpectralField:
    """Interaction-picture profile relative to the discrete (RK4) linear
    flow: coefficients times R(xi)^{-n}, for a field n dt-steps from the
    start of its run."""
    factor = np.exp(-n * rk4_linear_log_factor(field.grid, dt))
    return SpectralField(field.grid, field.coeffs * factor, field.time)


def gaussian_data(
    grid: Grid, epsilon: float, width: float = 1.0, carrier: float = 0.0, time: float = 1.0
) -> SpectralField:
    """Initial data epsilon * exp(-x^2 / (2 width^2)) * cos(carrier x) at the
    given time; carrier != 0 concentrates the transform near +-carrier.  Built
    inside ``from_function``, so no grid-sized temporary lives through the FFT."""

    def u(x):
        envelope = epsilon * np.exp(-(x * x) / (2.0 * width * width))
        return envelope * np.cos(carrier * x) if carrier != 0.0 else envelope

    return SpectralField.from_function(grid, u, time)
