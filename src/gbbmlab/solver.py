"""Pseudo-spectral integration of the quartic gBBM equation

    u_t - u_xxt + (u + u^4)_x = 0

on a periodic box, written on the Fourier side as

    d/dt uhat = -i omega(xi) (uhat + (u^4)^),

on the n/2 + 1 modes xi >= 0 of the real field's half-spectrum (see
``spectral``), with the quartic product dealiased by zero-padding to m = 5n/2
points, the (p + 1) n / 2 of Orszag's rule for a p = 4-fold product of n
modes.  On that grid the one alias that reaches a kept mode is 4 x (-n/2) ==
+n/2 (mod 5n/2), and quartic_hat subtracts it exactly, so the product is
alias-free for any Nyquist coefficient, real or complex.  The fine grid is
transformed as its even and its odd samples, joined by one decimation-in-time
step (Cooley & Tukey), so m must be even: a 2-mode grid takes m = 6, where no
alias reaches a kept mode.  ``evolve`` builds each array a run reuses once
and hands it down, so a steady-state step allocates only the state it
returns.  The symbol is bounded (|omega| <= 1/2), so the system is
non-stiff and plain RK4 on uhat is adequate; stepping with -dt is the exact
adjoint of stepping with +dt, which the reversal test exploits.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dispersion import omega
from .spectral import Grid, SpectralField

#: Any coefficient magnitude above this trips the blow-up guard.
BLOWUP_GUARD = 1e10

#: The quartic product is formed on a grid this many times finer.  A 4-fold
#: product of n modes needs 5n/2 points (Orszag's rule), which removes every
#: alias except 4 x (-n/2) onto +n/2; quartic_hat subtracts that one term.
#: The grid is split into even and odd samples, so its size is rounded up to
#: an even m = 2 ceil(5n/4): 5n/2 for every n >= 4 and 6 for n = 2, where the
#: alias lands on the dropped mode +-2 instead of the kept Nyquist mode.
DEALIAS_PAD = 2.5


@dataclass(frozen=True)
class Records(Sequence):
    """A run's record step indices, ``(*range(0, n, stride), n)``: step 0, every
    stride-th step and n, held as (n, stride), so a long run's lattice costs
    two numbers; it is indexed by int, iterated and searched as that tuple."""

    n: int
    stride: int

    def __len__(self) -> int:
        return len(range(0, self.n, self.stride)) + 1

    def __getitem__(self, j: int) -> int:
        steps = range(0, self.n, self.stride)
        return self.n if j in (len(steps), -1) else steps[j if j >= 0 else j + 1]

    def __iter__(self):
        return itertools.chain(range(0, self.n, self.stride), (self.n,))

    def __contains__(self, i) -> bool:
        """O(1) for any i: an int (np.integer, bool) or an integral float is looked up as
        that int; anything else is no member, as for the tuple."""
        if isinstance(i, (float, np.floating)) and i.is_integer():
            i = int(i)
        if not isinstance(i, (int, np.integer)):
            return False
        return i == self.n or (0 <= i < self.n and i % self.stride == 0)


@dataclass(frozen=True)
class Lattice:
    """A run's n steps of dt = span / n from t0 (span = t_end - t0), its
    ``records`` (step 0, every record_stride-th step and n) and ``snapshots``,
    the records whose time is an exact power of two; ``step_at`` inverts ``time``."""

    t0: float
    span: float
    n: int
    dt: float
    records: Records

    @functools.cached_property
    def _snap(self) -> float:
        """How near a whole number a step's time is stamped as it: 1e-9 |span|, capped at a
        quarter step (which bites beyond 2.5e8 steps) so no two steps stamp the same one."""
        return min(1e-9 * abs(self.span), abs(self.dt) / 4)

    def time(self, i: int) -> float:
        """Time after step i, t0 + span * i / n and not a sum of dt's, stamped as the
        whole number within ``_snap`` of it if there is one; t0 itself at i = 0."""
        if i == 0:
            return self.t0
        t = self.t0 + self.span * i / self.n
        return float(round(t)) if abs(t - round(t)) <= self._snap else t

    def step_at(self, t: float) -> int | None:
        """The step i whose time(i) is t, or None: the one candidate round((t - t0) n / span), 0 if n = 0."""
        i = round((t - self.t0) / self.span * self.n) if self.n else 0
        return i if 0 <= i <= self.n and self.time(i) == t else None

    @functools.cached_property
    def snapshots(self) -> tuple[int, ...]:
        """The records i whose time(i) is an exact power of two: step_at of each power of two between t0
        and t_end, widened by the snap and the rounding of t0 + span * i / n."""
        lo, hi = sorted((self.t0, self.t0 + self.span))
        tol = self._snap + 1e-15 * max(abs(lo), abs(hi))
        first = math.frexp(lo - tol)[1] - 1 if lo - tol > 0.0 else -1074
        steps = (self.step_at(math.ldexp(1.0, e)) for e in range(first, math.frexp(hi + tol)[1] if hi > 0.0 else first))
        return tuple(sorted(i for i in steps if i is not None and i in self.records))


@dataclass
class SolverConfig:
    dt: float = 0.01
    t_end: float = 100.0
    record_stride: int = 100

    def __post_init__(self):
        if self.dt == 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be nonzero and finite")
        if abs(self.dt) > 0.1:
            raise ValueError("dt exceeds the 0.1 accuracy budget (RK4 is stable on this symbol up to dt = 4 sqrt(2))")
        if not np.isfinite(self.t_end):
            raise ValueError(f"t_end = {self.t_end:g} must be finite")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")

    def lattice(self, t0: float) -> Lattice:
        """The lattice from t0 to t_end (n = 0 if they coincide); ValueError if dt points away from t_end,
        takes more steps than an index holds (sys.maxsize) or misses the span by more than one part in 10^9."""
        span = self.t_end - t0
        if span * self.dt < 0:
            raise ValueError("dt sign inconsistent with t_end")
        steps = span / self.dt
        if not steps < sys.maxsize:  # len(records) raises OverflowError past it
            raise ValueError(f"dt = {self.dt:g} cuts t_end - t0 = {span:g} into {steps:.6g} steps, "
                             "more than an index holds")
        n = round(steps)
        if abs(n * self.dt - span) > 1e-9 * abs(span):
            raise ValueError(f"dt = {self.dt:g} does not divide t_end - t0 = {span:g} into whole steps")
        return Lattice(t0, span, n, span / n if n else self.dt, Records(n, self.record_stride))


def quartic_buffers(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Work arrays of quartic_hat on n modes, one row each, which the even and
    then the odd samples of the m-point fine grid (m = 2 * ceil(DEALIAS_PAD * n
    / 2)) take in turn: the half-spectrum fed to each half-length irfft, the m/2
    samples and their rfft; and the twiddles exp(+-2 pi i k / m) for k <= n/2.
    ``evolve`` makes the one set of its run, so the fine-grid pages are not
    faulted in anew on every call."""
    half, h = n // 2, math.ceil(DEALIAS_PAD * n / 2)
    twiddle = np.exp(2j * np.pi * np.arange(half + 1) / (2 * h))
    return (
        np.empty(half + 1, dtype=complex),
        np.empty(h),
        np.empty(h // 2 + 1, dtype=complex),
        np.stack([twiddle, twiddle.conj()]),
    )


def _fourth_power_spectrum(ph: np.ndarray, v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """rfft of the fourth power of the v.size samples irfft(ph, v.size), formed in
    v and written to f, which is returned; ph is left as it was."""
    np.fft.irfft(ph, v.size, out=v)  # same field sampled on every other point
    v *= v
    v *= v
    return np.fft.rfft(v, out=f)


def quartic_hat(c: np.ndarray, buffers: tuple, out: np.ndarray) -> np.ndarray:
    """Half-spectrum of u^4 from the half-spectrum c of u (n = 2 (c.size - 1)),
    with aliasing removed by zero-padding (irfft pads the half-spectrum) to the
    m-point fine grid; the halved Nyquist entry a puts a at +n/2 and conj(a)
    at -n/2, so its imaginary part counts here.  The fine grid's even samples are
    irfft(ph, m/2) and its odd samples irfft(ph * exp(2 pi i k / m), m/2);
    with E and O the rfft of each half's fourth power, a kept mode k of the
    m-point transform is E_k + exp(-2 pi i k / m) O_k.  The even half is done
    first and its E_k parked in ``out``; ph is then twiddled in place and its
    buffers reused for the odd half, so the workspace is one row of each.  On
    2^14 modes pocketfft faults its scratch in anew on every transform of m =
    40960 points, and on none of m/2.  v^4 is two in-place squarings: ``v**4``
    takes numpy's slow generic pow when samples are negative.  ``buffers`` is
    the run's ``quartic_buffers(n)``; the result is written to ``out`` (n/2 +
    1 points, not sharing memory with c), which is returned."""
    half = c.size - 1
    n = 2 * half
    ph, v, f, twiddle = buffers
    h = v.size
    m = 2 * h
    np.multiply(c, h / n, out=ph)
    ph[half] *= 0.5  # the Nyquist mode is split evenly between +-n/2
    nyquist = ph[half]  # a scalar copy: ph is twiddled in place below
    out[:] = _fourth_power_spectrum(ph, v, f)[: half + 1]  # E, of the even samples
    np.multiply(ph, twiddle[0], out=ph)  # shifted by one fine-grid point
    odd = _fourth_power_spectrum(ph, v, f)[: half + 1]  # O, of the odd samples
    np.add(np.multiply(twiddle[1], odd, out=odd), out, out=out)
    if m - 2 * n == half:
        # the one alias on m = 5n/2 points, 4 x (-n/2) == +n/2 (mod m): irfft
        # puts conj(a) at -n/2 for the halved Nyquist entry a = 2 nyquist, so
        # it adds conj(a)^4 / m^3
        out[half] -= np.conj(2.0 * nyquist) ** 4 / m**3
    out[half] = out[half].real * 2.0
    out /= m / n
    return out


def linear_symbol(grid: Grid) -> np.ndarray:
    """The linear symbol -i omega(xi) on the half-spectrum's frequencies."""
    return -1j * omega(grid.frequencies)


def _guard(c: np.ndarray, scratch: np.ndarray):
    """The blow-up guard: OverflowError if any |c| exceeds BLOWUP_GUARD, |c| formed in ``scratch``."""
    if np.max(np.abs(c, out=scratch)) > BLOWUP_GUARD:
        raise OverflowError("blow-up guard tripped: coefficients exceed 1e10")


def rhs(c: np.ndarray, symbol: np.ndarray, nonlinear: bool, buffers: tuple, out: np.ndarray) -> np.ndarray:
    """Time derivative symbol * (c + (u^4)^) of the coefficients c (symbol *
    c if not ``nonlinear``), written to ``out`` (not sharing memory with c)
    and returned; the quartic is formed in ``buffers`` (see quartic_hat) and
    the guard's |c| in out's real parts, so nothing grid-sized is allocated."""
    _guard(c, out.real)
    if nonlinear:
        np.add(c, quartic_hat(c, buffers, out), out=out)
    else:
        out[:] = c
    return np.multiply(symbol, out, out=out)


def step(c: np.ndarray, symbol: np.ndarray, dt: float, nonlinear: bool, buffers: tuple, stages) -> np.ndarray:
    """Coefficients after one classical RK4 step of size dt (dt may be negative).

    ``stages`` is the run's (3, c.size) complex array, reused across calls:
    the running sum of the k's, the latest k and the stage state.  Every
    in-place operation keeps the operand order of c + dt/6 (k1 + 2 k2 + 2 k3
    + k4), so the result is bitwise that of the expression.  It is always a
    new array."""
    acc, k, y = stages
    rhs(c, symbol, nonlinear, buffers, acc)  # k1
    np.add(c, np.multiply(0.5 * dt, acc, out=y), out=y)
    rhs(y, symbol, nonlinear, buffers, k)  # k2
    np.add(c, np.multiply(0.5 * dt, k, out=y), out=y)
    np.add(acc, np.multiply(2, k, out=k), out=acc)
    rhs(y, symbol, nonlinear, buffers, k)  # k3
    np.add(c, np.multiply(dt, k, out=y), out=y)
    np.add(acc, np.multiply(2, k, out=k), out=acc)
    rhs(y, symbol, nonlinear, buffers, k)  # k4
    np.add(acc, k, out=acc)
    return c + np.multiply(dt / 6.0, acc, out=acc)


def evolve(u0: SpectralField, cfg: SolverConfig, recorder=None, nonlinear: bool = True) -> SpectralField:
    """Advance u0 to cfg.t_end over the steps of ``cfg.lattice(u0.time)``,
    calling ``recorder(field, profile, snapshot)`` at each record i: the state
    stamped with its lattice time, ``discrete_profile_of(field,
    rk4_linear_log_factor(symbol, dt), i)`` and whether i is a snapshot.  The
    loop steps bare coefficients, checked finite here (OverflowError); u0 meets
    the blow-up guard before its record, whose norms it would overflow."""
    grid, lat = u0.grid, cfg.lattice(u0.time)
    symbol = linear_symbol(grid)
    log_factor = rk4_linear_log_factor(symbol, lat.dt)
    buffers = quartic_buffers(grid.n_modes)
    stages = np.empty((3, u0.coeffs.size), dtype=complex)
    c, previous = u0.coeffs, 0
    _guard(c, stages[0].real)
    for r in lat.records:
        for i in range(previous + 1, r + 1):
            c = step(c, symbol, lat.dt, nonlinear, buffers, stages)
            if not np.all(np.isfinite(c)):
                raise OverflowError(f"non-finite state at t={lat.time(i)}")
        previous = r
        if recorder is not None:
            field = SpectralField(grid, c, lat.time(r))
            recorder(field, discrete_profile_of(field, log_factor, r), r in lat.snapshots)
    return SpectralField(grid, c, lat.time(lat.n))


def rk4_linear_log_factor(symbol: np.ndarray, dt: float) -> np.ndarray:
    """log of the RK4 amplification factor for the linear part, per mode:
    RK4 on c' = symbol c multiplies by R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24,
    z = symbol dt.  Dividing the state by R^n instead of by e^{-i omega t}
    gives a profile that is exactly constant for the discrete linear flow, so
    its drift isolates the nonlinearity instead of being swamped by the
    integrator's O(dt^5) linear phase error."""
    z = symbol * dt
    return np.log(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)


def discrete_profile_of(field: SpectralField, log_factor: np.ndarray, n: int) -> SpectralField:
    """Interaction-picture profile of a field n steps into its run: the
    coefficients times exp(-n log_factor), log_factor being the log of the
    run's linear factor per step, ``rk4_linear_log_factor`` for R(xi)^{-n}.  The
    factor and the profile are one array, the factor overwritten by the product."""
    profile = np.multiply(-n, log_factor)
    np.exp(profile, out=profile)
    return SpectralField(field.grid, np.multiply(field.coeffs, profile, out=profile), field.time)


def gaussian_data(
    grid: Grid, epsilon: float, width: float = 1.0, carrier: float = 0.0, time: float = 1.0
) -> SpectralField:
    """Initial data epsilon * exp(-x^2 / (2 width^2)) * cos(carrier x) at the
    given time; carrier != 0 concentrates the transform near +-carrier.  Built
    inside ``from_function``, so no grid-sized temporary lives through the FFT,
    and in place in one array, in the expression's own order of operations."""

    def u(x):
        envelope = np.multiply(x, x)
        np.negative(envelope, out=envelope)
        envelope /= 2.0 * width * width
        np.exp(envelope, out=envelope)
        envelope *= epsilon
        if carrier != 0.0:  # the cosine is taken in place in carrier x's one buffer
            wave = np.multiply(x, carrier)
            envelope *= np.cos(wave, out=wave)
        return envelope

    return SpectralField.from_function(grid, u, time)
