import math
import tracemalloc

import numpy as np
import pytest

from gbbmlab.solver import gaussian_data
from gbbmlab.spectral import Grid, SpectralField


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1000, 10.0)  # not a power of two
    with pytest.raises(ValueError):
        Grid(256, 0.0)
    with pytest.raises(ValueError):
        Grid(0, 10.0)
    with pytest.raises(ValueError, match="power of two >= 2"):
        Grid(1, 10.0)  # no Nyquist mode apart from the mean; 5n/2 is not whole
    for half_length in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="half_length must be positive and finite"):
            Grid(256, half_length)


def test_grid_geometry():
    g = Grid(256, 32.0)
    assert g.dx == 0.25
    assert g.dxi == pytest.approx(math.pi / 32.0)
    assert g.nyquist == pytest.approx(math.pi * 256 / 64.0)
    assert g.points[0] == -32.0
    assert g.points[-1] == pytest.approx(32.0 - 0.25)
    assert np.max(np.abs(g.frequencies)) == pytest.approx(g.nyquist)


def test_roundtrip_physical():
    g = Grid(512, 40.0)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.n_modes)
    f = SpectralField.from_physical(g, u)
    assert np.max(np.abs(f.physical() - u)) < 1e-12


def test_continuum_coeffs_match_gaussian_transform():
    # transform of exp(-x^2 / (2 w^2)) is w exp(-xi^2 w^2 / 2) in the
    # unitary convention; the periodic approximation should match closely
    g = Grid(2**12, 128.0)
    w = 1.0
    f = SpectralField.from_function(g, lambda x: np.exp(-x * x / (2 * w * w)))
    xi = g.frequencies
    exact = w * np.exp(-xi * xi * w * w / 2.0)
    err = np.max(np.abs(f.continuum_coeffs - exact))
    assert err < 1e-12


def test_continuum_coeffs_exact_sign_on_large_grid():
    # xi_j L = pi j, so the origin shift is the exact sign (-1)^j: on the
    # 2^18 grid the transform of an even Gaussian is real and matches
    # w exp(-xi^2 w^2 / 2) to round-off, with no phase error growing with j
    g = Grid(2**18, 9000.0)
    w = 0.5
    c = SpectralField.from_function(g, lambda x: np.exp(-x * x / (2 * w * w))).continuum_coeffs
    xi = g.frequencies
    assert np.max(np.abs(c - w * np.exp(-xi * xi * w * w / 2.0))) <= 1e-14
    assert np.max(np.abs(c.imag)) <= 1e-15 * np.max(np.abs(c))


def test_continuum_coeffs_translation_phase():
    # shifting the data by a multiplies the transform by exp(-i a xi)
    g = Grid(2**12, 128.0)
    a = 3.0
    f0 = SpectralField.from_function(g, lambda x: np.exp(-x * x))
    fa = SpectralField.from_function(g, lambda x: np.exp(-((x - a) ** 2)))
    xi = g.frequencies
    predicted = f0.continuum_coeffs * np.exp(-1j * a * xi)
    assert np.max(np.abs(fa.continuum_coeffs - predicted)) < 1e-12


def test_field_validation():
    g = Grid(64, 8.0)
    with pytest.raises(ValueError):
        SpectralField(g, np.zeros(65, dtype=complex))
    bad = np.zeros(33, dtype=complex)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        SpectralField(g, bad)


def test_field_rejects_full_spectrum():
    # an n-point array in the full-spectrum layout fails loudly
    g = Grid(64, 8.0)
    with pytest.raises(ValueError, match="n/2 \\+ 1 half-spectrum"):
        SpectralField(g, np.zeros(64, dtype=complex))


def test_frequencies_are_the_half_spectrum():
    g = Grid(64, 8.0)
    assert np.array_equal(g.frequencies, g.dxi * np.arange(33))
    assert np.array_equal(g.frequencies[:32], 2.0 * math.pi * np.fft.fftfreq(64, d=g.dx)[:32])


@pytest.mark.parametrize("n", [2, 4, 2**12, 2**18])
def test_coefficients_are_bitwise_the_full_transform(n):
    # the half-spectrum is fft(values)[: n/2 + 1] to the last bit, the
    # Nyquist entry's round-off imaginary part included, held in an array of
    # its own rather than a view of the n-point transform; random samples,
    # and linear-decay's Gaussian profile on its 2^18 grid
    g = Grid(n, 9000.0)
    values = np.random.default_rng(n).standard_normal(n)
    fn = (lambda x: np.exp(-(x * x) / 0.5)) if n == 2**18 else (lambda x: values)
    expected = np.fft.fft(fn(g.points))[: n // 2 + 1].view(np.float64)
    for f in (SpectralField.from_physical(g, fn(g.points)), SpectralField.from_function(g, fn)):
        assert np.array_equal(f.coeffs.view(np.float64), expected)
        assert f.coeffs.base is None


def test_gaussian_data_peak_memory():
    # the samples are freed before the transform, which runs in place in
    # their one complex copy (16 bytes a point) beside the kept half-spectrum
    # (8 more): 26 bytes a point bounds the peak
    g = Grid(2**18, 9000.0)
    tracemalloc.start()
    try:
        gaussian_data(g, 1.0, 0.5, time=0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 26 * g.n_modes
