import ast
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from gbbmlab import diagnostics
from gbbmlab.diagnostics import (
    DecayFit,
    DyadicDifferences,
    NormSample,
    Recorder,
    bootstrap_report,
    compute_norms,
    dxi_l2,
    fit_decay,
    h1_norm,
    scattering_test,
    sobolev,
)
from gbbmlab.littlewood_paley import phi_le_k
from gbbmlab.solver import SolverConfig, evolve, gaussian_data
from gbbmlab.spectral import Grid, SpectralField


@pytest.fixture(scope="module")
def grid():
    return Grid(2**12, 128.0)


def test_compute_norms_zero_field(grid):
    z = SpectralField(grid, np.zeros(grid.n_modes // 2 + 1, dtype=complex), time=1.0)
    s = compute_norms(z, z)
    assert (s.linf_fhat, s.weighted_l2, s.sobolev, s.sup_u) == (0.0, 0.0, 0.0, 0.0)


def test_weighted_l2_gaussian_closed_form():
    # for f = exp(-x^2/2): ||x f||_2^2 = integral x^2 e^{-x^2} = sqrt(pi)/2.
    # The centered-difference error is O(dxi^2), so hitting 1e-6 needs a
    # fine frequency grid (dxi ~ 1.5e-3).
    g = Grid(2**17, 2048.0)
    f = SpectralField.from_function(g, lambda x: np.exp(-x * x / 2.0))
    assert dxi_l2(g, f.continuum_coeffs) == pytest.approx(math.sqrt(math.sqrt(math.pi) / 2.0), rel=1e-6)


def test_weighted_l2_gaussian_converges_quadratically(grid):
    exact = math.sqrt(math.sqrt(math.pi) / 2.0)
    errs = []
    for n, L in ((2**12, 128.0), (2**14, 256.0)):
        g = Grid(n, L)
        f = SpectralField.from_function(g, lambda x: np.exp(-x * x / 2.0))
        errs.append(abs(dxi_l2(g, f.continuum_coeffs) - exact))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_sobolev_s0_is_plancherel_l2(grid):
    f = SpectralField.from_function(grid, lambda x: np.exp(-x * x / 2.0))
    # ||f||_2^2 = sqrt(pi)
    assert sobolev(grid, f.continuum_coeffs, 0.0) == pytest.approx(math.pi**0.25, rel=1e-10)


def test_h1_gaussian_closed_form(grid):
    # ||f||_2^2 + ||f'||_2^2 = sqrt(pi) + sqrt(pi)/2
    f = SpectralField.from_function(grid, lambda x: np.exp(-x * x / 2.0))
    assert h1_norm(f) == pytest.approx(math.sqrt(math.sqrt(math.pi) * 1.5), rel=1e-10)


def test_sobolev_weight_rejects_an_s_it_cannot_hold():
    # the bound 2 (1 + xi_N^2)^s is tested in logs, so the largest s it
    # allows forms a finite weight (a RuntimeWarning fails the suite) and the
    # next one is refused before anything overflows
    g = Grid(256, 32.0)
    s_max = math.log(np.finfo(float).max / 2.0) / math.log1p(g.nyquist**2)
    assert np.all(np.isfinite(diagnostics.sobolev_weight(g, s_max * (1.0 - 1e-12))))
    with pytest.raises(ValueError, match="s = 200 overflows"):
        diagnostics.sobolev_weight(g, 200.0)


@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_half_spectrum_norms_match_full_grid_sums(n):
    # each interior mode of the half-spectrum stands for +-xi: the norms equal
    # the sums over all n modes of the full spectrum, Nyquist entry at -n/2
    g = Grid(n, 4.0)
    x = np.random.default_rng(n).standard_normal(n)
    fhat = SpectralField.from_physical(g, x).continuum_coeffs
    fhat[-1] += 0.3j  # a complex Nyquist entry, which the state can hold
    full = np.fft.fft(x) * (g.dx / math.sqrt(2.0 * math.pi) * (-1.0) ** np.arange(n))
    full[n // 2] += 0.3j
    full = np.fft.fftshift(full)
    xi = g.dxi * np.arange(-(n // 2), n // 2)
    for s in (0.0, 1.0, 10.0):
        ref = math.sqrt(float(np.sum((1.0 + xi * xi) ** s * np.abs(full) ** 2)) * g.dxi)
        assert sobolev(g, fhat, s) == pytest.approx(ref, rel=1e-14)
    ref = math.sqrt(float(np.sum(np.abs(np.gradient(full, g.dxi)) ** 2)) * g.dxi)
    assert dxi_l2(g, fhat) == pytest.approx(ref, rel=1e-14)


SUPPORTS = {
    "mean": (0, 1),
    "low": (1, 4),
    "interior": (200, 321),
    "top": (2**9 - 3, 2**9 + 1),
    "nyquist": (2**9, 2**9 + 1),
    "zero": (0, 0),
}


@pytest.mark.parametrize("support", SUPPORTS.values(), ids=SUPPORTS.keys())
def test_dxi_l2_over_a_support_matches_np_gradient_of_the_full_spectrum(support):
    # random entries on [lo, hi) and exact zeros elsewhere of a 2^10-point
    # half-spectrum, its mean real and its Nyquist entry complex; the full
    # spectrum is built in fft order and fftshifted
    n, (lo, hi) = 2**10, support
    g = Grid(n, 8.0)
    rng = np.random.default_rng(lo)
    half = np.zeros(n // 2 + 1, dtype=complex)
    half[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    half[0] = half[0].real
    full = np.concatenate([half, np.conj(half[n // 2 - 1 : 0 : -1])])
    full = np.fft.fftshift(full)
    ref = math.sqrt(float(np.sum(np.abs(np.gradient(full, g.dxi)) ** 2)) * g.dxi)
    assert (ref == 0.0) == (hi == lo)
    # abs=0: the all-zero half-spectrum gives exactly 0.0
    assert dxi_l2(g, half) == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_norms_monotone_under_band_truncation(grid):
    f = SpectralField.from_function(grid, lambda x: np.exp(-x * x / 2.0) * np.cos(3 * x))
    low = SpectralField(grid, f.coeffs * phi_le_k(0, grid.frequencies), f.time)
    full = compute_norms(f, f)
    trunc = compute_norms(low, low)
    assert trunc.linf_fhat <= full.linf_fhat + 1e-15
    assert trunc.sobolev <= full.sobolev + 1e-12


def test_fit_decay_exact_power_law():
    ts = [2.0**j for j in range(8)]
    fit = fit_decay([(t, 3.0 * t ** (-1.0 / 3.0)) for t in ts])
    assert fit.exponent == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.log_prefactor == pytest.approx(math.log(3.0), abs=1e-10)


def test_fit_decay_constant():
    ts = [2.0**j for j in range(6)]
    fit = fit_decay([(t, 5.0) for t in ts])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_scale_equivariant():
    ts = [2.0**j for j in range(6)]
    vals = [(t, t**-0.5 * (1 + 0.1 * math.sin(t))) for t in ts]
    a = fit_decay(vals)
    b = fit_decay([(t, 7.0 * v) for t, v in vals])
    assert b.exponent == pytest.approx(a.exponent, abs=1e-12)
    assert b.log_prefactor - a.log_prefactor == pytest.approx(math.log(7.0), abs=1e-12)


def test_fit_decay_validation():
    with pytest.raises(ValueError):
        fit_decay([(1.0, 1.0), (2.0, 1.0)])
    with pytest.raises(ArithmeticError, match="non-positive value in fit window"):
        fit_decay([(1.0, 1.0), (2.0, -1.0), (4.0, 1.0), (8.0, 1.0)])


def _polyfit_reference(pts):
    """(exponent, log prefactor, r^2) as np.polyfit gives them, r^2 from its line as 1 - ss_res / ss_tot."""
    lt, lv = np.log([t for t, _ in pts]), np.log([v for _, v in pts])
    slope, intercept = np.polyfit(lt, lv, 1)
    ss_res = np.sum((lv - (slope * lt + intercept)) ** 2)
    ss_tot = np.sum((lv - np.mean(lv)) ** 2)
    return slope, intercept, 1.0 - ss_res / ss_tot


_RNG = np.random.default_rng(7)

#: The shapes the CLI fits: the minimum of 4 points; 7 dyadic times with
#: +-10% noise (scatter's differences); 41 lattice times, t = 1 ... 41, with
#: a slope near 2e-7 (evolve's weighted growth), its values near 1, where
#: np.polyfit's own r^2 is not round-off (the next test takes a prefactor far from 1).
FIT_SHAPES = {
    "minimum": [(t, 3.0 * t ** (-1.0 / 3.0) * w) for t, w in zip([1.0, 2.0, 4.0, 8.0], [1.0, 1.05, 0.97, 1.02])],
    "dyadic": [(2.0**j, 2.0 ** (-j / 2.0) * (1.0 + 0.1 * _RNG.uniform(-1.0, 1.0))) for j in range(7)],
    "lattice": [(float(t), t**2e-7 * (1.0 + 1e-9 * _RNG.uniform(-1.0, 1.0))) for t in range(1, 42)],
}


@pytest.mark.parametrize("pts", FIT_SHAPES.values(), ids=FIT_SHAPES.keys())
def test_fit_decay_matches_np_polyfit(pts):
    slope, intercept, r2 = _polyfit_reference(pts)
    fit = fit_decay(pts)
    assert fit.exponent == pytest.approx(slope, rel=0.0, abs=1e-12)
    assert fit.log_prefactor == pytest.approx(intercept, rel=0.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(r2, rel=0.0, abs=1e-12)


def test_fit_decay_r_squared_on_centred_logs_is_exact():
    # evolve's weighted norm is about 3.3e-3 t^2e-7; with 1e-8 relative noise
    # the residuals are 1e-8 against a log prefactor of -5.7, so r^2 from
    # log v - (slope log t + intercept) loses digits (np.polyfit's line gives
    # r^2 1.2e-11 off); the centred residuals match exact rational arithmetic
    # on the same float logs
    rng = np.random.default_rng(0)
    pts = [(float(t), 3.3e-3 * t**2e-7 * (1.0 + 1e-8 * rng.uniform(-1.0, 1.0))) for t in range(1, 42)]
    x = [Fraction(float(a)) for a in np.log([t for t, _ in pts])]
    y = [Fraction(float(b)) for b in np.log([v for _, v in pts])]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    slope = sum((a - xm) * (b - ym) for a, b in zip(x, y)) / sum((a - xm) ** 2 for a in x)
    r2 = 1 - sum((b - ym - slope * (a - xm)) ** 2 for a, b in zip(x, y)) / sum((b - ym) ** 2 for b in y)
    fit = fit_decay(pts)
    assert fit.exponent == pytest.approx(float(slope), rel=1e-12)
    assert fit.log_prefactor == pytest.approx(float(ym - slope * xm), rel=0.0, abs=1e-14)
    assert fit.r_squared == pytest.approx(float(r2), rel=0.0, abs=1e-15)


@pytest.mark.parametrize(
    "pts",
    [
        [(1.0, 1.0), (2.0, math.nan), (4.0, 1.0), (8.0, 1.0)],
        [(1.0, 1.0), (2.0, math.inf), (4.0, 1.0), (8.0, 1.0)],
        [(0.0, 1.0), (2.0, 1.0), (4.0, 1.0), (8.0, 1.0)],
        [(math.nan, 1.0), (2.0, 1.0), (4.0, 1.0), (8.0, 1.0)],
        [(2.0, 1.0), (2.0, 3.0), (2.0, 1.0), (2.0, 3.0)],
    ],
    ids=["nan-value", "inf-value", "zero-time", "nan-time", "one-time"],
)
def test_fit_decay_refuses_a_line_it_cannot_fit(pts, capfd):
    # a NaN once came out as exponent nan with r^2 0.0, LAPACK printing to stderr
    with pytest.raises(ArithmeticError):
        fit_decay(pts)
    assert capfd.readouterr() == ("", "")


def test_scattering_linear_flow_is_silent(grid):
    rec = Recorder()
    evolve(gaussian_data(grid, 1e-2), SolverConfig(dt=0.05, t_end=16.0, record_stride=20), rec, nonlinear=False)
    assert [t for t, _ in rec.profiles] == [1.0, 2.0, 4.0, 8.0, 16.0]
    rows = scattering_test(rec.profiles)
    assert all(dl < 1e-12 and d2 < 1e-12 for _, dl, d2 in rows)


def test_scattering_validation(grid):
    u0 = gaussian_data(grid, 1e-2)
    with pytest.raises(ValueError, match=r"^snapshots not dyadic: 1\.0 followed by 3\.0$"):
        scattering_test([(1.0, u0), (3.0, u0), (6.0, u0), (12.0, u0)])
    with pytest.raises(ValueError, match=r"^need at least 3 dyadic pairs for the scattering test$"):
        scattering_test([(1.0, u0), (2.0, u0), (4.0, u0)])


def test_dyadic_differences_refuses_a_successor_as_it_arrives(grid):
    u0 = gaussian_data(grid, 1e-2)
    fold = DyadicDifferences()
    fold(2.0, u0)
    with pytest.raises(ValueError, match=r"^snapshots not dyadic: 2\.0 followed by 3\.0$"):
        fold(3.0, u0)


def test_dyadic_difference_l2_scales_with_its_sup():
    # the L2 is m L2(d / m), m = sup|d|: data scaled by 2^-700, whose squares underflow, gives
    # the rows scaled by 2^-700, and a zero difference gives 0 with no RuntimeWarning
    g = Grid(64, 8.0)
    rng = np.random.default_rng(3)
    samples = {t: rng.standard_normal(g.n_modes) for t in (1.0, 2.0, 4.0, 8.0)}
    rows = scattering_test([(t, SpectralField.from_physical(g, x, t)) for t, x in samples.items()])
    tiny = scattering_test([(t, SpectralField.from_physical(g, x * 2.0**-700, t)) for t, x in samples.items()])
    for (t, linf, l2), (tt, tiny_linf, tiny_l2) in zip(rows, tiny, strict=True):
        assert tt == t and tiny_linf * 2.0**700 == pytest.approx(linf, rel=1e-15)
        assert tiny_l2 * 2.0**700 == pytest.approx(l2, rel=1e-15)
    u = SpectralField.from_physical(g, samples[1.0], 1.0)
    assert scattering_test([(t, u) for t in samples]) == [(t, 0.0, 0.0) for t in (1.0, 2.0, 4.0)]


def test_scattering_rows_are_the_full_grid_norms_of_each_difference():
    # each difference's full spectrum, all n modes and the Nyquist entry once,
    # formed here from the physical samples; its sup and L2 sum are the row
    g = Grid(64, 8.0)
    rng = np.random.default_rng(7)
    samples = {t: rng.standard_normal(g.n_modes) for t in (1.0, 2.0, 4.0, 8.0)}
    rows = scattering_test([(t, SpectralField.from_physical(g, x, t)) for t, x in samples.items()])
    assert [t for t, _, _ in rows] == [1.0, 2.0, 4.0]
    for t, linf, l2 in rows:
        full = np.fft.fft(samples[2.0 * t] - samples[t]) * (g.dx / math.sqrt(2.0 * math.pi))
        assert linf == pytest.approx(float(np.max(np.abs(full))), rel=1e-12)
        assert l2 == pytest.approx(math.sqrt(float(np.sum(np.abs(full) ** 2)) * g.dxi), rel=1e-12)


def test_bootstrap_report_budgets_each_sup_by_its_own_exponent():
    # sup of w t^-P0 and of s t^-P1, with P0 = 1/6 - 1e-3 and P1 = 1e-3 written out here
    ts = [1.0, 2.0, 4.0, 8.0, 16.0]
    samples = [NormSample(t=t, linf_fhat=1.0 / t, weighted_l2=3.0 * t**0.25, sobolev=2.0 + t, sup_u=0.5) for t in ts]
    rep = bootstrap_report(samples)
    assert rep["sup_linf_fhat"] == 1.0
    assert rep["sup_weighted_budgeted"] == pytest.approx(max(3.0 * t**0.25 * t ** -(1.0 / 6.0 - 1e-3) for t in ts))
    assert rep["sup_sobolev_budgeted"] == pytest.approx(max((2.0 + t) * t**-1e-3 for t in ts))


def test_bootstrap_report_linear_flow(grid):
    rec = Recorder()
    evolve(gaussian_data(grid, 1e-2), SolverConfig(dt=0.1, t_end=256.0, record_stride=30), rec, nonlinear=False)
    samples = [s for s in rec.samples if s.t in (1.0, 4.0, 16.0, 64.0, 256.0)]
    assert len(samples) == 5
    rep = bootstrap_report(samples)
    assert abs(rep["weighted_growth_exponent"]) < 1e-8
    assert abs(rep["sobolev_growth_exponent"]) < 1e-8
    assert not rep["weighted_violation"]
    assert not rep["sobolev_violation"]


def test_recorder_collects_samples_and_dyadic_profiles(grid):
    u0 = gaussian_data(grid, 1e-2)
    rec = Recorder(s=5.0)
    evolve(u0, SolverConfig(dt=0.05, t_end=4.0, record_stride=20), rec)
    assert [s.t for s in rec.samples] == pytest.approx([1.0, 2.0, 3.0, 4.0])
    assert [t for t, _ in rec.profiles] == pytest.approx([1.0, 2.0, 4.0])


def test_recorder_keeps_a_profile_where_told_only(grid):
    # which records are snapshots is the solver lattice's call, not a test of the time
    u0 = gaussian_data(grid, 1e-2)
    rec = Recorder()
    for t, snapshot in ((4.0, False), (3.0, True), (4.0, True)):
        field = SpectralField(grid, u0.coeffs, t)
        rec(field, field, snapshot)
    assert len(rec.samples) == 3
    assert [t for t, _ in rec.profiles] == [3.0, 4.0]


def test_recorder_hands_each_snapshot_to_keep_and_holds_none(grid):
    # a keep that writes each profile out leaves the Recorder, and the run, no reference to it
    taken = []

    def keep(t, profile):
        assert all(ref() is None for _, ref in taken)  # the earlier snapshots are gone already
        taken.append((t, weakref.ref(profile)))

    rec = Recorder(keep=keep)
    evolve(gaussian_data(grid, 1e-2), SolverConfig(dt=0.05, t_end=8.0, record_stride=20), rec)
    assert [t for t, _ in taken] == [1.0, 2.0, 4.0, 8.0]
    assert all(ref() is None for _, ref in taken)
    assert rec.profiles == [] and len(rec.samples) == 8


def test_diagnostics_does_not_import_solver():
    # the solver hands profiles to the Recorder, so the dependency runs one way
    tree = ast.parse(Path(diagnostics.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        assert not any("solver" in m.split(".") for m in modules), ast.dump(node)
