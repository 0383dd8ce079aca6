import ast
import math
from pathlib import Path

import numpy as np
import pytest

from gbbmlab import diagnostics
from gbbmlab.diagnostics import (
    DecayFit,
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
from gbbmlab.spectral import Grid, SpectralField, sorted_spectrum


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
    assert np.max(np.abs(sorted_spectrum(fhat) - full)) <= 1e-15 * np.max(np.abs(full))
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
    # spectrum is built in fft order and fftshifted, not by sorted_spectrum
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
    with pytest.raises(ValueError):
        fit_decay([(1.0, 1.0), (2.0, -1.0), (4.0, 1.0), (8.0, 1.0)])


def test_scattering_linear_flow_is_silent(grid):
    rec = Recorder()
    evolve(gaussian_data(grid, 1e-2), SolverConfig(dt=0.05, t_end=16.0, record_stride=20), rec, nonlinear=False)
    assert [t for t, _ in rec.profiles] == [1.0, 2.0, 4.0, 8.0, 16.0]
    rows = scattering_test(rec.profiles)
    assert all(dl < 1e-12 and d2 < 1e-12 for _, dl, d2 in rows)


def test_scattering_validation(grid):
    u0 = gaussian_data(grid, 1e-2)
    with pytest.raises(ValueError):
        scattering_test([(1.0, u0), (3.0, u0), (6.0, u0), (12.0, u0)])
    with pytest.raises(ValueError):
        scattering_test([(1.0, u0), (2.0, u0), (4.0, u0)])


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


def test_recorder_keeps_a_profile_at_an_exact_power_of_two_only(grid):
    # evolve stamps whole times exactly, so a time one part in 2^40 off 4 is not 4
    u0 = gaussian_data(grid, 1e-2)
    rec = Recorder()
    for t in (4.0 * (1.0 + 2.0**-40), 4.0, 3.0, 0.0, -4.0):
        field = SpectralField(grid, u0.coeffs, t)
        rec(field, field)
    assert len(rec.samples) == 5
    assert [t for t, _ in rec.profiles] == [4.0]


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
