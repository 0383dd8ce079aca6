"""Linear evolution, direct oscillatory-integral evaluation, and the
frequency-localized dispersive decay bounds.

The sup-norm sweep reads each time off the smallest sub-box that holds the
waves' cone, an exact periodization (``linear_sup_sweep``).

A dyadic piece of the linear solution is the integral

    u_k(t, x) = (2 pi)^(-1/2) int psi_k(xi) fhat(xi) exp(i(x xi - omega(xi) t)) dxi,

evaluated by trapezoid quadrature on nodes fine enough that the phase
advances by at most pi/10 between neighbours (using the a-priori bound
|d/dxi (x xi - t omega)| <= |x| + t max|omega'| over the band).  The nodes
are uniform, and so are the points, a scan x = linspace(a, b, m), so the
sum over nodes is a chirp-z transform, evaluated with an FFT convolution
(Bluestein) in O((N + M) log(N + M)).  Every value is cross-checked against
the rule at half the resolution; disagreement raises instead of returning a
silently wrong number.  The coarse rule's nodes are every other fine node, so
psi_k, fhat and the phase are evaluated once, on the fine nodes, and the
fine rule's sum is split as E + O over its even and odd nodes: the coarse
rule is 2E, and O is a sum over the even nodes too, so one row makes two
chirp-z sums on the even nodes that share one Bluestein set-up.

The decay bounds split into five regimes by frequency-vs-time balance, one
row each of ``_REGIMES``: the lowest 2^k at time t and a right-hand side from
sup|fhat|, the band-localized L2 norm of d fhat/dxi, or a Sobolev norm.  A
sweep over bands and times (``EstimateSweep``) does each job once at the level
it depends on: per field the continuum coefficients, the frequencies, sup|fhat|
and (for a case-1 row only) the Sobolev norm; per band the range of omega' and
the d/dxi norm of psi_k fhat; per (band, time) row only the table lookup, the
fhat interpolant on the band's nodes and the quadrature.  Every row function
reads the profile and the Sobolev index from the sweep, which only
``verify_dispersive_estimate`` builds, and which keeps fhat and the frequencies
and no other grid-sized array.
"""

from __future__ import annotations

import functools
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


def _fold(grid: Grid, tau: float, reach: float) -> int:
    """The largest power of two p with Grid(n/p, L/p).max_unwrapped_time(reach) >= 2 |tau|, else 1 (as for
    reach = inf): the smallest sub-box that holds the waves of data within ``reach`` of x = 0 at elapsed
    time tau, whose backward cone mirrors the forward one.  At the wrap rule's own bound the Airy tail ahead
    of the front folds into the sup at 7e-12 relative (gaussian data at tau = 400); at twice it, round-off."""
    p = 1
    while grid.n_modes >= 4 * p:
        if Grid(grid.n_modes // (2 * p), grid.half_length / (2 * p)).max_unwrapped_time(reach) < 2.0 * abs(tau):
            break
        p *= 2
    return p


def linear_sup_sweep(field: SpectralField, t0: float, count: int, reach: float):
    """Yield (sup_x |u|, x, u) for the linear solution u at the doubling times
    field.time + t0 2^j, j = 0 ... count - 1, u its real-space samples and x
    the full box's coordinate -L + dx j of the first peak of |u|.

    The phase factor exp(-i omega t0) is computed once and squared in place
    at each doubling, so its phase error grows as the direct exp's argument
    rounding, omega t eps, does.  The coefficients and the samples live in one
    buffer each for the whole sweep: u is a view of the front of the samples'
    buffer, overwritten at the next time.  Each time's coefficients pass
    SpectralField's finiteness check.

    Given the data's ``reach``, each time tau is read off the sub-box of
    ``_fold``: u is the irfft of every p-th mode at n/p points, which is exact
    periodization (Poisson summation on the DFT; both transforms read the
    Nyquist entry alike), irfft(c[::p], n/p)[i] = sum_r irfft(c, n)[i + r n/p].
    Of the p translates by 2L/p that sample i at -L + dx i sums, the one in
    [-tau/8 - reach, -tau/8 - reach + 2L/p) carries the waves, the others
    round-off, and the peak's j is that translate's, picked in integers.  Given
    reach = inf (data anywhere), the full box's transform, and j = i."""
    grid = field.grid
    # propagating the unit half-spectrum gives exp(-i omega t0) itself, in an array of our own
    factor = propagate_linear(SpectralField(grid, np.ones_like(field.coeffs)), t0).coeffs
    coeffs = np.empty_like(field.coeffs)
    samples = np.empty(grid.n_modes)
    for j in range(count):
        if j:
            np.multiply(factor, factor, out=factor)
        tau = t0 * 2.0**j
        p = _fold(grid, tau, reach)
        sub = Grid(grid.n_modes // p, grid.half_length / p)
        folded = np.multiply(field.coeffs[::p], factor[::p], out=coeffs[: sub.n_modes // 2 + 1])
        u = SpectralField(sub, folded, field.time + tau).physical(out=samples[: sub.n_modes])
        # np.argmax(np.abs(u)), the first index of the largest |u|, with no |u| array
        hi, lo = int(u.argmax()), int(u.argmin())
        top, bottom = u[hi], -u[lo]
        i = min((-top, hi), (-bottom, lo))[1]
        if p > 1:
            first = math.ceil((-tau / 8.0 - reach + grid.half_length) / grid.dx)
            i = first + (i - first) % sub.n_modes
        yield float(max(top, bottom)), -grid.half_length + grid.dx * i, u


def aggregate_sup_norm(field: SpectralField, t: float) -> float:
    """sup_x |u(t, x)| of the full linear solution, via exact periodic
    propagation and one inverse FFT on the full box (the one-time case of
    ``linear_sup_sweep``, given reach = inf).  The domain must outrun the fastest
    group velocity (|omega'| <= 1) for the periodic image to be negligible."""
    ((sup, _, _),) = linear_sup_sweep(field, t - field.time, 1, math.inf)
    return sup


def require_band_on_grid(grid: Grid, k: int) -> None:
    """Raise ValueError unless band k, which reaches 2^(k+1), lies below the grid Nyquist frequency."""
    if 2.0 ** (k + 1) > grid.nyquist:
        raise ValueError(f"grid Nyquist {grid.nyquist:g} too small for band k = {k}")


def _band_interval(k: int) -> tuple[float, float]:
    return 2.0 ** (k - 1), 2.0 ** (k + 1)


@functools.cache
def _band_velocity_range(k: int) -> tuple[float, float]:
    """Range of omega' over the positive band [2^(k-1), 2^(k+1)], once per k."""
    lo, hi = _band_interval(k)
    xs = np.linspace(lo, hi, 4097)
    v = omega_prime(xs)
    return float(np.min(v)), float(np.max(v))


class EstimateSweep:
    """What the rows of a decay-bound sweep over a profile ``field`` (with
    Sobolev index ``s``) share, each computed once and kept for every row.

    Per field, here: the grid, one read of ``continuum_coeffs`` (fhat), the
    frequencies xi and sup|fhat|.  fhat and xi are the only grid-sized arrays
    the sweep keeps: it holds no reference to ``field``.  The H^s norm is
    taken at the first case-1 row.  Per band, at its first case 2-4 row: the
    d/dxi L2 norm of psi_k fhat, cut into a transient array."""

    def __init__(self, field: SpectralField, s: float = 5.5):
        self.grid, self.s = field.grid, s
        self.fhat = field.continuum_coeffs
        self.xi = field.grid.frequencies
        self.fsup = diagnostics.linf_fhat(self.fhat)
        self._dk: dict[int, float] = {}

    def fhat_at(self, q: np.ndarray) -> np.ndarray:
        """Complex linear interpolant of the continuum coefficients on 0 <= xi <= xi_N,
        over the slice of xi that brackets q: bitwise np.interp over the whole grid,
        as the interval found for each point, and so its slope, are the same."""
        lo = max(int(np.searchsorted(self.xi, q.min(), side="right")) - 1, 0)
        hi = int(np.searchsorted(self.xi, q.max())) + 1
        xi, f = self.xi[lo:hi], self.fhat[lo:hi]
        return np.interp(q, xi, f.real) + 1j * np.interp(q, xi, f.imag)

    @functools.cached_property
    def sobolev(self) -> float:
        return diagnostics.sobolev(self.grid, self.fhat, self.s)

    def band_dxi_l2(self, k: int) -> float:
        """L2 norm of d/dxi of the band-localized profile psi_k fhat.  psi_k is
        exactly 0 off the band's indices, so only those are written, into a
        zero-filled array whose untouched pages are never faulted in."""
        if k not in self._dk:
            lo, hi = np.searchsorted(self.xi, _band_interval(k))
            cut = np.zeros(self.fhat.shape, dtype=complex)
            np.multiply(self.fhat[lo:hi], psi_k(k, self.xi[lo:hi]), out=cut[lo:hi])
            self._dk[k] = diagnostics.dxi_l2(self.grid, cut)
        return self._dk[k]


def _quadrature_nodes(k: int, t: float, xmax: float, velocity: tuple[float, float]) -> np.ndarray:
    """Uniform nodes covering the positive band, spaced so the oscillatory
    phase moves by at most PHASE_STEP between every other neighbour: the fine
    rule's 2n + 1 nodes, whose even ones are the coarse rule's.  ``velocity``
    is the band's range of omega'."""
    lo, hi = _band_interval(k)
    vmax = max(abs(velocity[0]), abs(velocity[1]))
    dphi_max = abs(xmax) + t * vmax
    step = PHASE_STEP / max(dphi_max, 1.0)
    n = max(64, int(math.ceil((hi - lo) / step)))
    return np.linspace(lo, hi, 2 * n + 1)


def _chirp_z_sum(amps, nodes, x):
    """[sum_j amp_j exp(i x_m xi_j) for amp in amps] for uniform x_m and xi_j (Bluestein).

    With x_m = x_0 + m h_x, xi_j = xi_0 + j h_xi and theta = h_x h_xi,
    x_m xi_j = x_m xi_0 + x_0 (xi_j - xi_0) + theta m j, and
    m j = (m^2 + j^2 - (m - j)^2) / 2 turns the sum over j into a linear
    convolution with the chirp exp(-i theta d^2 / 2), done by FFT at a
    length >= N + M - 1 so it does not wrap.  The squares are formed
    exactly in integers before scaling.  The chirps and the kernel's transform
    are formed once for all the rows, which then run one after another
    through one array of the transform length, transformed into it,
    multiplied in place by the kernel's transform and inverted in place.
    """
    n, m = nodes.size, x.size
    half_theta = 0.5 * (x[-1] - x[0]) / (m - 1) * (nodes[-1] - nodes[0]) / (n - 1)
    j, mm, d = np.arange(n), np.arange(m), np.arange(1 - n, m)
    size = 1 << (n + m - 2).bit_length()
    kernel = np.fft.fft(np.exp(-1j * half_theta * (d * d)), size)
    chirp_in = np.exp(1j * (x[0] * (nodes - nodes[0]) + half_theta * (j * j)))
    chirp_out = np.exp(1j * (x * nodes[0] + half_theta * (mm * mm)))
    conv = np.empty(size, dtype=complex)
    sums = []
    for amp in amps:
        np.fft.fft(amp * chirp_in, size, out=conv)
        conv *= kernel
        np.fft.ifft(conv, out=conv)
        sums.append(chirp_out * conv[n - 1 : n - 1 + m])
    return sums


def evaluate_lp_piece(sweep: EstimateSweep, k: int, t: float, a: float, b: float, m: int) -> np.ndarray:
    """Dyadic piece u_k(t, x) of the linear solution with the sweep's profile
    data (interpreted at time 0), by direct oscillatory quadrature,
    on the uniform scan x = np.linspace(a, b, m), m >= 2.

    A trapezoid rule is 2 Re of its sum over xi > 0 (a real field's spectrum
    is Hermitian).  The fine rule's sum (spacing h) is E + O over its even and
    odd nodes; the coarse rule's (spacing 2h) is 2E, as its nodes are the even
    ones with twice the fine weights; and O is exp(i x h) times the odd terms
    summed over the even nodes.  Returns the fine rule's real values.  Raises
    ArithmeticError if the two rules differ by more than CONVERGENCE_RTOL
    relative to the overall sup of the piece.
    """
    require_band_on_grid(sweep.grid, k)
    x = np.linspace(a, b, m)
    # linspace hits both ends exactly, so this is max|x|
    nodes = _quadrature_nodes(k, t, max(abs(a), abs(b)), _band_velocity_range(k))
    h = nodes[1] - nodes[0]
    terms = h * psi_k(k, nodes) * sweep.fhat_at(nodes) * np.exp(-1j * omega(nodes) * t)
    even, odd = terms[::2].copy(), np.append(terms[1::2], 0.0)  # no odd node above the last even one
    del terms
    even[[0, -1]] *= 0.5
    even, odd = _chirp_z_sum((even, odd), nodes[::2], x)
    fine = 2.0 * (even + odd * np.exp(1j * h * x)).real / _SQRT_2PI
    coarse = 4.0 * even.real / _SQRT_2PI
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
    """(sup_x |u_k(t, x)|, argmax x) for the sweep's profile, scanning
    the group-velocity cone of the band at a spacing of
    1/points_per_wavelength of the band wavelength."""
    a, b = stationary_cone(t, _band_velocity_range(k))
    spacing = 2.0 * math.pi * 2.0 ** (-k) / points_per_wavelength
    n = max(16, int(math.ceil((b - a) / spacing)))
    vals = np.abs(evaluate_lp_piece(sweep, k, t, a, b, n + 1))
    i = int(np.argmax(vals))
    return float(vals[i]), float(np.linspace(a, b, n + 1)[i])


# ---------------------------------------------------------------------------
# Five-regime decay bounds
# ---------------------------------------------------------------------------

#: The five decay regimes, case 1 to 5 from the highest frequency down: (lowest 2^k at
#: time t, rhs of the bound from (sweep, k, t, 2^k)).  (k, t) is in the first regime whose
#: floor is at most 2^k, so case 2 is empty for t < 2^-9 and case 4 for t < 1/8.
_REGIMES = (
    (lambda t: CASE_C_HI * t ** (1.0 / 9.0),  # 1: very high frequency; Sobolev tail
     lambda sweep, k, t, lam: lam ** (-(sweep.s - 1.0)) * sweep.sobolev),
    (lambda t: 8.0,  # 2: high frequency
     lambda sweep, k, t, lam: t**-0.5 * lam**1.5 * sweep.fsup + t**-0.75 * lam**2.25 * sweep.band_dxi_l2(k)),
    (lambda t: 0.5,  # 3: intermediate, includes the inflection point sqrt(3)
     lambda sweep, k, t, lam: t ** (-1.0 / 3.0) * sweep.fsup + t**-0.5 * sweep.band_dxi_l2(k)),
    (lambda t: CASE_C_LO * t ** (-1.0 / 3.0),  # 4: low frequency
     lambda sweep, k, t, lam: t**-0.5 * lam**-0.5 * sweep.fsup + t**-0.75 * lam**-0.75 * sweep.band_dxi_l2(k)),
    (lambda t: 0.0,  # 5: very low frequency; trivial bound
     lambda sweep, k, t, lam: lam * sweep.fsup),
)


def classify_case(k: int, t: float) -> int:
    """Which of the five decay regimes (``_REGIMES``) the pair (band k, time t) falls in."""
    if t <= 0:
        raise ValueError("t must be positive")
    lam = 2.0**k
    return next(case for case, (floor, _) in enumerate(_REGIMES, 1) if lam >= floor(t))


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
    sweep's profile on band k at time t, with Sobolev index ``sweep.s``
    (constants taken to be 1; only the t- and k- scalings are asserted by the
    verification)."""
    case = classify_case(k, t)
    rhs = _REGIMES[case - 1][1](sweep, k, t, 2.0**k)
    lhs, _ = sup_norm_of_piece(sweep, k, t)
    return DispersiveCaseBound(k=k, t=t, case=case, lhs=lhs, rhs=rhs)


def verify_dispersive_estimate(field: SpectralField, bands, times, s: float = 5.5) -> list[DispersiveCaseBound]:
    """Decay-bound table over a sweep of bands and times, sorted by (k, t):
    one dispersive_bound row per pair, all sharing one EstimateSweep.  The
    field is dropped once the sweep is built: a caller that keeps no reference
    to it frees its coefficients before the first row."""
    sweep = EstimateSweep(field, s)
    del field
    return [dispersive_bound(sweep, k, t) for k in bands for t in times]
