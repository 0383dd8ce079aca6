"""Norm tracking, power-law exponent fitting, and the scattering Cauchy test.

The bootstrap norm has three components: sup|fhat|, the weighted norm
||x f||_2 (computed spectrally as ||d fhat / d xi||_2), and a Sobolev norm.
The budget allows the weighted norm to grow like t^P0 with P0 just below 1/6
and the Sobolev norm like t^P1 with P1 = 1e-3; decay exponents are recovered
by least squares in log-log coordinates over dyadic time samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, SpectralField


@dataclass(frozen=True)
class NormSample:
    """Bootstrap-norm components of one profile snapshot."""

    t: float
    linf_fhat: float
    weighted_l2: float  # ||x f||_2 == ||d fhat/d xi||_2
    sobolev: float
    sup_u: float


@dataclass(frozen=True)
class DecayFit:
    exponent: float
    log_prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


#: Growth budget t^P0 of the weighted norm, t^P1 of the Sobolev norm, and
#: the slack a fitted exponent may exceed its budget by.
P0 = 1.0 / 6.0 - 1e-3
P1 = 1e-3
BUDGET_SLACK = 0.05


def linf_fhat(fhat: np.ndarray) -> float:
    """sup |fhat| of continuum coefficients."""
    return float(np.max(np.abs(fhat)))


def dxi_l2(grid: Grid, fhat: np.ndarray) -> float:
    """L2 norm of d fhat/d xi for a half-spectrum a[0] ... a[m], m = n/2, of
    continuum coefficients: the sum np.gradient takes over the full spectrum
    f[-m] ... f[m-1] (f[-k] = conj a[k], f[-m] = a[m]), read off the half.
    Each interior +k, 1 <= k <= m - 2, stands for +-k: |a[k+1] - a[k-1]|^2 / 4
    counted twice (a[0] is real, as a real field's mean is).  The rest are the
    centred xi = 0 and -(m - 1) terms, |a[1] - conj a[1]|^2 / 4 and
    |a[m-2] - conj a[m]|^2 / 4, and the one-sided ends -m and m - 1,
    |conj a[m-1] - a[m]|^2 and |a[m-1] - a[m-2]|^2 (n = 2 has no interior, and
    its f[-1] is a[1] = fhat[-1]).  The interior sum runs from one index
    before the first nonzero entry to one after the last: a band-cut array
    costs its band and one scan.  By Plancherel this is ||x f||_2 for a
    profile's own coefficients.  No BLAS (its threaded zdotc leaves a thread spinning)."""
    m = fhat.size - 1
    nz = np.flatnonzero(fhat != 0)  # a bool scan: numpy's nonzero on complex tests each entry in a slow loop
    first, last = (nz[0], nz[-1]) if nz.size else (m, 0)  # all zero: an empty interior sum
    lo = max(first - 1, 1)
    hi = max(min(last + 2, m - 1), lo)
    d = (fhat[lo + 1 : hi + 1] - fhat[lo - 1 : hi - 1]).view(np.float64)
    ends = abs(fhat[m - 1].conjugate() - fhat[m]) ** 2 + abs(fhat[m - 1] - fhat[m - 2]) ** 2
    mid = fhat[1].imag ** 2 + abs(fhat[m - 2] - fhat[m].conjugate()) ** 2 / 4.0 if m > 1 else 0.0
    return float(math.sqrt((0.5 * np.sum(np.square(d, out=d)) + ends + mid) / grid.dxi))


@functools.cache
def sobolev_weight(grid: Grid, s: float) -> np.ndarray:
    """The H^s weight (1 + xi^2)^s, doubled for 0 < xi < xi_N as each such mode
    stands for +-xi; once per (grid, s), read-only, as every record uses it.  An s
    whose bound 2 (1 + xi_N^2)^s would overflow is a ValueError, tested in logs."""
    if s * math.log1p(grid.nyquist * grid.nyquist) > math.log(np.finfo(float).max / 2.0):
        raise ValueError(f"s = {s:g} overflows the H^s weight 2 (1 + xi_N^2)^s at xi_N = {grid.nyquist:g}")
    xi = grid.frequencies
    w = (1.0 + xi * xi) ** s
    w[1:-1] *= 2.0
    w.flags.writeable = False
    return w


def sobolev(grid: Grid, fhat: np.ndarray, s: float) -> float:
    """H^s norm of the field with the half-spectrum fhat of continuum
    coefficients, via the frequency-side quadrature."""
    return float(math.sqrt(np.sum(sobolev_weight(grid, s) * np.abs(fhat) ** 2) * grid.dxi))


def h1_norm(field: SpectralField) -> float:
    """Conserved energy norm sqrt(integral of u^2 + u_x^2)."""
    return sobolev(field.grid, field.continuum_coeffs, 1.0)


def compute_norms(profile: SpectralField, field: SpectralField, s: float = 10.0) -> NormSample:
    """Bootstrap-norm components of a profile snapshot; ``field`` is the
    solution it is the profile of, whose sup is sup_u."""
    fhat = profile.continuum_coeffs
    return NormSample(
        t=profile.time,
        linf_fhat=linf_fhat(fhat),
        weighted_l2=dxi_l2(profile.grid, fhat),
        sobolev=sobolev(profile.grid, fhat, s),
        sup_u=float(np.max(np.abs(field.physical()))),
    )


def fit_decay(samples, window: tuple[float, float] | None = None) -> DecayFit:
    """Least-squares power law through (t, value) samples: the line through
    (log t, log value) in closed form on the centred logs dx, dy, slope
    sum(dx dy) / sum(dx^2) and r^2 = 1 - sum((dy - slope dx)^2) / sum(dy^2),
    by numpy reductions only (np.polyfit would run LAPACK on OpenBLAS, whose
    first call maps about 1 MB of workspace, for two numbers).

    Raises ValueError on fewer than 4 usable samples, and ArithmeticError
    on a computed value the log-log line cannot take: a non-positive value,
    a sample whose log is not finite (a NaN or infinite value, a time not in
    (0, inf)) or a window of one time only.
    """
    pts = [(float(t), float(v)) for t, v in samples]
    if window is not None:
        pts = [p for p in pts if window[0] <= p[0] <= window[1]]
    if len(pts) < 4:
        raise ValueError("need at least 4 samples in the fit window")
    if any(v <= 0 for _, v in pts):
        raise ArithmeticError("non-positive value in fit window")
    bad = [(t, v) for t, v in pts if not (0 < t < math.inf and v < math.inf)]  # a NaN fails every comparison
    if bad:
        raise ArithmeticError(f"sample (t, value) = {bad[0]} in the fit window has no finite log")
    lt = np.log([t for t, _ in pts])
    lv = np.log([v for _, v in pts])
    mt, mv = np.mean(lt), np.mean(lv)
    dt, dv = lt - mt, lv - mv
    sxx = np.sum(dt * dt)
    if sxx == 0.0:
        raise ArithmeticError(f"the fit window holds one time only, t = {pts[0][0]}")
    slope = np.sum(dt * dv) / sxx
    intercept = mv - slope * mt
    ss_res = float(np.sum((dv - slope * dt) ** 2))  # residuals on the centred logs: no log(prefactor) to cancel
    ss_tot = float(np.sum(dv**2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return DecayFit(
        exponent=float(slope),
        log_prefactor=float(intercept),
        r_squared=min(1.0, r2),
        window=(min(t for t, _ in pts), max(t for t, _ in pts)),
        n_points=len(pts),
    )


class DyadicDifferences:
    """The scattering Cauchy test as a fold, a ``keep(t, profile)`` fed the
    snapshots at dyadic times t, 2t, 4t, ...: each appends the row (t,
    sup|d|, L2 of d), d = fhat(2t) - fhat(t), holding only the last t and
    fhat.  The L2 is m L2(d / m), m = sup|d|, so it underflows only where m
    does (d / m is divided on d's real view: a complex quotient multiplies by
    1/m, which overflows for a subnormal m).  A successor at other than twice
    the last t, and ``result()`` with fewer than 3 rows, raise ValueError."""

    def __init__(self):
        self.rows: list[tuple[float, float, float]] = []
        self._last: tuple[float, np.ndarray] | None = None

    def __call__(self, t: float, profile: SpectralField):
        fhat = profile.continuum_coeffs
        if self._last is not None:
            t1, f1 = self._last
            if not math.isclose(t, 2.0 * t1, rel_tol=1e-9):
                raise ValueError(f"snapshots not dyadic: {t1} followed by {t}")
            d = np.subtract(fhat, f1, out=f1)  # f1 is the fold's own array, not read again
            m = linf_fhat(d)
            if m:
                np.divide(d.view(float), m, out=d.view(float))
            self.rows.append((t1, m, m * sobolev(profile.grid, d, 0.0) if m else 0.0))
        self._last = t, fhat

    def result(self) -> list[tuple[float, float, float]]:
        if len(self.rows) < 3:
            raise ValueError("need at least 3 dyadic pairs for the scattering test")
        return self.rows


def scattering_test(profile_snapshots) -> list[tuple[float, float, float]]:
    """The rows of ``DyadicDifferences`` fed the (t, profile field) pairs in order of t."""
    fold = DyadicDifferences()
    for t, profile in sorted(profile_snapshots, key=lambda p: p[0]):
        fold(t, profile)
    return fold.result()


class Recorder:
    """Solver callback ``recorder(field, profile, snapshot)``: tracks the
    bootstrap-norm samples of every recorded profile and hands the profile
    itself to ``keep(t, profile)`` where ``snapshot`` is true, at the run
    lattice's powers of two.  By default ``keep`` appends (t, profile) to
    ``profiles``; a caller that reads each as it comes passes its own (evolve's
    writer, scatter's ``DyadicDifferences``), and the Recorder holds none."""

    def __init__(self, s: float = 10.0, keep=None):
        self.s = s
        self.samples: list[NormSample] = []
        self.profiles: list[tuple[float, SpectralField]] = []
        profiles = self.profiles
        self.keep = keep if keep is not None else lambda t, profile: profiles.append((t, profile))

    def __call__(self, field: SpectralField, profile: SpectralField, snapshot: bool):
        self.samples.append(compute_norms(profile, field, self.s))
        if snapshot:
            self.keep(field.time, profile)


def bootstrap_report(samples: list[NormSample]) -> dict:
    """Sup of each budgeted component and fitted growth exponents of the
    weighted and Sobolev norms, with violation flags when a fitted exponent
    exceeds its budget by more than the slack; the window and sample count
    are the weighted fit's, so fewer than 4 samples is fit_decay's ValueError."""
    fit_w = fit_decay([(s.t, s.weighted_l2) for s in samples])
    fit_s = fit_decay([(s.t, s.sobolev) for s in samples])
    return {
        "sup_linf_fhat": max(s.linf_fhat for s in samples),
        "sup_weighted_budgeted": max(s.weighted_l2 * s.t**-P0 for s in samples),
        "sup_sobolev_budgeted": max(s.sobolev * s.t**-P1 for s in samples),
        "weighted_growth_exponent": fit_w.exponent,
        "sobolev_growth_exponent": fit_s.exponent,
        "weighted_violation": fit_w.exponent > P0 + BUDGET_SLACK,
        "sobolev_violation": fit_s.exponent > P1 + BUDGET_SLACK,
        "window": fit_w.window,
        "n_samples": fit_w.n_points,
    }
