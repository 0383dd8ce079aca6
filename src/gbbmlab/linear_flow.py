"""Linear evolution, direct oscillatory-integral evaluation, and the
frequency-localized dispersive decay bounds.

A dyadic piece of the linear solution is the integral

    u_k(t, x) = (2 pi)^(-1/2) int psi_k(xi) fhat(xi) exp(i(x xi - omega(xi) t)) dxi,

evaluated by trapezoid quadrature on nodes fine enough that the phase
advances by at most pi/10 between neighbours (using the a-priori bound
|d/dxi (x xi - t omega)| <= |x| + t max|omega'| over the band).  The nodes
are uniform, and so are the points, a scan x = linspace(a, b, m), so the
sum over nodes is a chirp-z transform, evaluated with one FFT convolution
(Bluestein) in O((N + M) log(N + M)).  Every value is cross-checked at twice
the resolution; disagreement raises instead of returning a silently wrong
number.  The coarse rule's nodes are every other fine node, so psi_k, fhat
and the phase are evaluated once, on the fine nodes.

The decay bounds split into five regimes by frequency-vs-time balance; each
regime has its own right-hand side built from sup|fhat|, the band-localized
L2 norm of d fhat/dxi, or a Sobolev norm of the data.  A sweep over bands
and times (``EstimateSweep``) does each job once at the level it depends on:
per field the continuum coefficients, the frequencies, the fhat interpolant,
sup|fhat| and (for a case-1 row only) the Sobolev norm; per band the range of
omega' and the d/dxi norm of psi_k fhat; per (band, time) row only the case
arithmetic and the quadrature.  Every row function takes the sweep and reads
the profile and the Sobolev index from it; ``verify_dispersive_estimate`` is
the one place that builds a sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .dispersion import omega, omega_prime
from .littlewood_paley import psi_k
from .solver import linear_symbol
from .spectral import Grid, SpectralField

#: Frequency-band constants separating the five decay regimes.
CASE_C_HI = 2.0**4
CASE_C_LO = 2.0**-2

#: Maximum phase advance between quadrature nodes.
PHASE_STEP = math.pi / 10.0

#: Relative agreement demanded between a quadrature and its refinement.
CONVERGENCE_RTOL = 1e-6

#: Fixed padding of the sup-norm scan beyond the group-velocity cone.
CONE_MARGIN = 20.0

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def propagate_linear(field: SpectralField, t: float) -> SpectralField:
    """Evolve a spectral field exactly under the linear equation from
    field.time to t (multiplication by exp(-i omega (t - time)), formed in
    place in the symbol's one array)."""
    factor = linear_symbol(field.grid)
    factor *= t - field.time
    np.exp(factor, out=factor)
    return SpectralField(field.grid, np.multiply(field.coeffs, factor, out=factor), t)


def linear_sup_sweep(field: SpectralField, t0: float, count: int):
    """Yield (sup_x |u|, u) for the linear solution u at the doubling times
    field.time + t0 2^j, j = 0 ... count - 1, u its real-space samples.

    The phase factor exp(-i omega t0) is computed once and squared in place
    at each doubling, so its phase error grows as the direct exp's argument
    rounding, omega t eps, does.  The coefficients and the samples live in one
    buffer each for the whole sweep: u is overwritten at the next time.  Each
    time's coefficients pass SpectralField's finiteness check."""
    # propagating the unit half-spectrum gives exp(-i omega t0) itself, in an array of our own
    factor = propagate_linear(SpectralField(field.grid, np.ones_like(field.coeffs)), t0).coeffs
    coeffs = np.empty_like(field.coeffs)
    u = np.empty(field.grid.n_modes)
    for j in range(count):
        if j:
            np.multiply(factor, factor, out=factor)
        state = SpectralField(field.grid, np.multiply(field.coeffs, factor, out=coeffs), field.time + t0 * 2.0**j)
        state.physical(out=u)
        yield float(max(u.max(), -u.min())), u


def aggregate_sup_norm(field: SpectralField, t: float) -> float:
    """sup_x |u(t, x)| of the full linear solution, via exact periodic
    propagation and an inverse FFT (the one-time case of ``linear_sup_sweep``).
    The domain must outrun the fastest group velocity (|omega'| <= 1) for the
    periodic image to be negligible."""
    ((sup, _),) = linear_sup_sweep(field, t - field.time, 1)
    return sup


def require_band_on_grid(grid: Grid, k: int) -> None:
    """Raise ValueError unless band k, which reaches 2^(k+1), lies below the grid Nyquist frequency."""
    if 2.0 ** (k + 1) > grid.nyquist:
        raise ValueError(f"grid Nyquist {grid.nyquist:g} too small for band k = {k}")


def _band_interval(k: int) -> tuple[float, float]:
    return 2.0 ** (k - 1), 2.0 ** (k + 1)


def _band_velocity_range(k: int) -> tuple[float, float]:
    """Range of omega' over the positive band [2^(k-1), 2^(k+1)]."""
    lo, hi = _band_interval(k)
    xs = np.linspace(lo, hi, 4097)
    v = omega_prime(xs)
    return float(np.min(v)), float(np.max(v))


class EstimateSweep:
    """What the rows of a decay-bound sweep over the profile ``field`` (with
    Sobolev index ``s``) share, each computed once and kept for every row.

    Per field, here: one read of ``continuum_coeffs``, the frequencies, the
    real and imaginary parts the fhat interpolant reads, and sup|fhat|; the
    H^s norm at the first case-1 row.  Per band, at its first row: the range of
    omega' over the band; at its first case 2-4 row, psi_k fhat, cut into one
    buffer the sweep owns, and its d/dxi L2 norm."""

    def __init__(self, field: SpectralField, s: float = 5.5):
        self.field, self.s = field, s
        self.fhat = field.continuum_coeffs
        self.xi = field.grid.frequencies
        self.fsup = diagnostics.linf_fhat(self.fhat)
        self._re, self._im = self.fhat.real.copy(), self.fhat.imag.copy()
        self._cut = np.zeros_like(self.fhat)
        self._hs: float | None = None
        self._velocity: dict[int, tuple[float, float]] = {}
        self._dk: dict[int, float] = {}

    def fhat_at(self, q: np.ndarray) -> np.ndarray:
        """Complex linear interpolant of the continuum coefficients on 0 <= xi <= xi_N."""
        return np.interp(q, self.xi, self._re) + 1j * np.interp(q, self.xi, self._im)

    def sobolev(self) -> float:
        if self._hs is None:
            self._hs = diagnostics.sobolev(self.field.grid, self.fhat, self.s)
        return self._hs

    def velocity_range(self, k: int) -> tuple[float, float]:
        if k not in self._velocity:
            self._velocity[k] = _band_velocity_range(k)
        return self._velocity[k]

    def band_dxi_l2(self, k: int) -> float:
        """L2 norm of d/dxi of the band-localized profile psi_k fhat.  psi_k is
        exactly 0 off the band's indices, so only those are written to the
        buffer, and zeroed again after."""
        if k not in self._dk:
            lo, hi = np.searchsorted(self.xi, _band_interval(k))
            band = self._cut[lo:hi]
            np.multiply(self.fhat[lo:hi], psi_k(k, self.xi[lo:hi]), out=band)
            self._dk[k] = diagnostics.dxi_l2(self.field.grid, self._cut)
            band[:] = 0.0
        return self._dk[k]


def _quadrature_nodes(k: int, t: float, xmax: float, velocity: tuple[float, float]) -> np.ndarray:
    """Uniform nodes covering the positive band, spaced so the oscillatory
    phase moves by at most PHASE_STEP between every other neighbour: the fine
    rule's 2n + 1 nodes.  The coarse rule's are ``fine[::2]``, which is
    bitwise ``np.linspace(lo, hi, n + 1)``, as the fine step is exactly half
    the coarse one.  ``velocity`` is the band's range of omega'."""
    lo, hi = _band_interval(k)
    vmax = max(abs(velocity[0]), abs(velocity[1]))
    dphi_max = abs(xmax) + t * vmax
    step = PHASE_STEP / max(dphi_max, 1.0)
    n = max(64, int(math.ceil((hi - lo) / step)))
    return np.linspace(lo, hi, 2 * n + 1)


def _chirp_z_sum(amp, nodes, x):
    """sum_j amp_j exp(i x_m xi_j) for uniform x_m and xi_j (Bluestein).

    With x_m = x_0 + m h_x, xi_j = xi_0 + j h_xi and theta = h_x h_xi,
    x_m xi_j = x_m xi_0 + x_0 (xi_j - xi_0) + theta m j, and
    m j = (m^2 + j^2 - (m - j)^2) / 2 turns the sum over j into a linear
    convolution with the chirp exp(-i theta d^2 / 2), done by FFT at a
    length >= N + M - 1 so it does not wrap.  The squares are formed
    exactly in integers before scaling.
    """
    n, m = nodes.size, x.size
    half_theta = 0.5 * (x[-1] - x[0]) / (m - 1) * (nodes[-1] - nodes[0]) / (n - 1)
    j, mm, d = np.arange(n), np.arange(m), np.arange(1 - n, m)
    size = 1 << (n + m - 2).bit_length()
    pre = amp * np.exp(1j * (x[0] * (nodes - nodes[0]) + half_theta * (j * j)))
    chirp = np.exp(-1j * half_theta * (d * d))
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(chirp, size))[n - 1 : n - 1 + m]
    return np.exp(1j * (x * nodes[0] + half_theta * (mm * mm))) * conv


def _piece_on_nodes(x, nodes, psi, f, phase):
    """Trapezoid evaluation of the band integral at the uniform scan x,
    exploiting Hermitian symmetry of a real field (integral = 2 Re of the
    xi>0 half), from psi_k, fhat and exp(-i omega t) at the nodes."""
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return 2.0 * _chirp_z_sum(w * psi * f * phase, nodes, x).real / _SQRT_2PI


def evaluate_lp_piece(sweep: EstimateSweep, k: int, t: float, a: float, b: float, m: int) -> np.ndarray:
    """Dyadic piece u_k(t, x) of the linear solution with profile data
    ``sweep.field`` (interpreted at time 0), by direct oscillatory quadrature,
    on the uniform scan x = np.linspace(a, b, m), m >= 2.

    Returns real values at those points.  Raises ArithmeticError if
    doubling the quadrature resolution moves the answer by more than
    CONVERGENCE_RTOL relative to the overall sup of the piece.
    """
    require_band_on_grid(sweep.field.grid, k)
    x = np.linspace(a, b, m)
    # linspace hits both ends exactly, so this is max|x|
    nodes = _quadrature_nodes(k, t, max(abs(a), abs(b)), sweep.velocity_range(k))
    integrand = psi_k(k, nodes), sweep.fhat_at(nodes), np.exp(-1j * omega(nodes) * t)
    coarse = _piece_on_nodes(x, nodes[::2], *(v[::2] for v in integrand))
    fine = _piece_on_nodes(x, nodes, *integrand)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(fine - coarse))) > CONVERGENCE_RTOL * scale:
        raise ArithmeticError(
            f"band quadrature failed to self-converge at k={k}, t={t}"
        )
    return fine


def stationary_cone(t: float, velocity: tuple[float, float]) -> tuple[float, float]:
    """Spatial interval containing the stationary points of the phase of a
    band whose range of omega' is ``velocity``, padded by 5% of the travel
    distance plus CONE_MARGIN."""
    vlo, vhi = velocity
    return (
        min(1.05 * t * vlo, t * vlo) - CONE_MARGIN,
        max(1.05 * t * vhi, t * vhi) + CONE_MARGIN,
    )


def sup_norm_of_piece(sweep: EstimateSweep, k: int, t: float, points_per_wavelength: int = 8) -> tuple[float, float]:
    """(sup_x |u_k(t, x)|, argmax x) for the profile ``sweep.field``, scanning
    the group-velocity cone of the band at a spacing of
    1/points_per_wavelength of the band wavelength."""
    a, b = stationary_cone(t, sweep.velocity_range(k))
    spacing = 2.0 * math.pi * 2.0 ** (-k) / points_per_wavelength
    n = max(16, int(math.ceil((b - a) / spacing)))
    vals = np.abs(evaluate_lp_piece(sweep, k, t, a, b, n + 1))
    i = int(np.argmax(vals))
    return float(vals[i]), float(np.linspace(a, b, n + 1)[i])


# ---------------------------------------------------------------------------
# Five-regime decay bounds
# ---------------------------------------------------------------------------

def classify_case(k: int, t: float) -> int:
    """Which of the five decay regimes the pair (band k, time t) falls in.

    1: 2^k >= CASE_C_HI t^(1/9)        (very high frequency; Sobolev tail)
    2: 8 <= 2^k < CASE_C_HI t^(1/9)    (high frequency)
    3: 1/2 <= 2^k < 8                  (intermediate, includes the inflection)
    4: CASE_C_LO t^(-1/3) <= 2^k < 1/2 (low frequency)
    5: 2^k < CASE_C_LO t^(-1/3)        (very low frequency; trivial bound)
    """
    if t <= 0:
        raise ValueError("t must be positive")
    lam = 2.0**k
    if lam >= CASE_C_HI * t ** (1.0 / 9.0):
        return 1
    if lam >= 8.0:
        return 2
    if lam >= 0.5:
        return 3
    if lam >= CASE_C_LO * t ** (-1.0 / 3.0):
        return 4
    return 5


@dataclass
class DispersiveCaseBound:
    """One row of the decay-bound verification table."""

    k: int
    t: float
    case: int
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs if self.rhs > 0 else math.inf


def dispersive_bound(sweep: EstimateSweep, k: int, t: float) -> DispersiveCaseBound:
    """Evaluate both sides of the frequency-localized decay estimate for the
    profile ``sweep.field`` on band k at time t, with Sobolev index ``sweep.s``
    (constants taken to be 1; only the t- and k- scalings are asserted by the
    verification)."""
    case = classify_case(k, t)
    lam = 2.0**k
    fsup = sweep.fsup
    if case == 1:
        rhs = lam ** (-(sweep.s - 1.0)) * sweep.sobolev()
    elif case == 5:
        rhs = lam * fsup
    else:
        dk = sweep.band_dxi_l2(k)
        if case == 2:
            rhs = t**-0.5 * lam**1.5 * fsup + t**-0.75 * lam**2.25 * dk
        elif case == 3:
            rhs = t ** (-1.0 / 3.0) * fsup + t**-0.5 * dk
        else:
            rhs = t**-0.5 * lam**-0.5 * fsup + t**-0.75 * lam**-0.75 * dk
    lhs, _ = sup_norm_of_piece(sweep, k, t)
    return DispersiveCaseBound(k=k, t=t, case=case, lhs=lhs, rhs=rhs)


def verify_dispersive_estimate(field: SpectralField, bands, times, s: float = 5.5) -> list[DispersiveCaseBound]:
    """Decay-bound table over a sweep of bands and times, sorted by (k, t):
    one dispersive_bound row per pair, all sharing one EstimateSweep."""
    sweep = EstimateSweep(field, s)
    return [dispersive_bound(sweep, k, t) for k in bands for t in times]
