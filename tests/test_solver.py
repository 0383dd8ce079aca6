import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gbbmlab import solver
from gbbmlab.diagnostics import h1_norm
from gbbmlab.linear_flow import propagate_linear
from gbbmlab.littlewood_paley import psi_k
from gbbmlab.solver import (
    SolverConfig,
    discrete_profile_of,
    evolve,
    gaussian_data,
    linear_symbol,
    quartic_hat,
    rhs,
    rk4_linear_log_factor,
    step,
)
from gbbmlab.spectral import Grid, SpectralField


@pytest.fixture(scope="module")
def grid():
    return Grid(2**11, 128.0)


@pytest.fixture(scope="module")
def small_data(grid):
    return gaussian_data(grid, 1e-2)


def _workspace(n):
    # the arrays an evolve run builds for its kernels: quartic_hat's buffers
    # and the (3, n/2 + 1) RK4 stages, whose first row serves as rhs's out
    return solver.quartic_buffers(n), np.empty((3, n // 2 + 1), dtype=complex)


def _quartic(c):
    buffers, stages = _workspace(2 * (c.size - 1))
    return quartic_hat(c, buffers, stages[0])


def _rhs(c, symbol, nonlinear=True):
    buffers, stages = _workspace(2 * (c.size - 1))
    return rhs(c, symbol, nonlinear, buffers, stages[0])


def _step(c, symbol, dt, nonlinear=True):
    return step(c, symbol, dt, nonlinear, *_workspace(2 * (c.size - 1)))


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        SolverConfig(dt=0.2)
    with pytest.raises(ValueError):
        SolverConfig(record_stride=0)


def test_rhs_zero_field(grid):
    z = SpectralField(grid, np.zeros(grid.n_modes // 2 + 1, dtype=complex))
    assert np.max(np.abs(_rhs(z.coeffs, linear_symbol(grid)))) == 0.0


def test_rhs_linear_single_mode(grid):
    from gbbmlab.dispersion import omega

    c = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
    c[5] = 1.0
    d = _rhs(c, linear_symbol(grid), nonlinear=False)
    xi5 = grid.frequencies[5]
    assert d[5] == pytest.approx(-1j * float(omega(xi5)) * 1.0, abs=1e-15)


def test_quartic_cos_identity(grid):
    # cos^4 = 3/8 + cos(2a x)/2 + cos(4a x)/8, exact on the dealiased 5n/2-point
    # grid (4a is far below the Nyquist mode, so no alias term arises)
    j = 40
    a = j * grid.dxi
    f = SpectralField.from_function(grid, lambda x: np.cos(a * x))
    u4 = np.fft.irfft(_quartic(f.coeffs), grid.n_modes)
    x = grid.points
    exact = 3.0 / 8.0 + 0.5 * np.cos(2 * a * x) + np.cos(4 * a * x) / 8.0
    assert np.max(np.abs(u4 - exact)) < 1e-13


def test_quartic_spurious_band_energy(grid):
    # data limited to <= n/8 active modes: the dealiased quartic must leave
    # nothing beyond 4x the data band
    rng = np.random.default_rng(5)
    c = np.zeros(grid.n_modes // 2 + 1, dtype=complex)
    m = grid.n_modes // 16
    c[1 : m + 1] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = _quartic(c)
    xi = grid.frequencies
    data_max = (m + 1) * grid.dxi
    spurious = np.abs(xi) > 4.0 * data_max
    total = float(np.sum(np.abs(q) ** 2))
    assert float(np.sum(np.abs(q[spurious]) ** 2)) < 1e-14 * total


def test_quartic_hat_matches_padded_complex_product():
    # reference: full complex transforms on the 3n grid, the Nyquist mode split
    # evenly between +-n/2 and the outputs there folded back onto it
    n = 64
    half, m = n // 2, 3 * n
    rng = np.random.default_rng(11)
    c = np.empty(n, dtype=complex)
    c[0] = rng.standard_normal()
    c[1:half] = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    c[half] = 0.7
    c[half + 1 :] = np.conj(c[half - 1 : 0 : -1])
    u = np.fft.ifft(c).real
    assert np.min(u) < 0.0 < np.max(u)
    before = c.copy()
    q = _quartic(c[: half + 1])
    assert np.array_equal(c, before)
    padded = np.zeros(m, dtype=complex)
    padded[:half] = c[:half]
    padded[half] = padded[m - half] = 0.5 * c[half]
    padded[m - half + 1 :] = c[half + 1 :]
    w = np.fft.fft((3.0 * np.fft.ifft(padded)) ** 4) / 3.0
    ref = np.concatenate([w[:half], [w[half] + w[m - half]]])
    assert np.max(np.abs(q - ref)) < 1e-13 * np.max(np.abs(q))


def _quartic_hat_3n(c):
    # the 3n-point algorithm quartic_hat used before the 5n/2 grid: no alias
    # reaches a kept mode, so nothing is subtracted
    half = c.size - 1
    n = 2 * half
    ph = c * 3.0
    ph[half] *= 0.5
    u = np.fft.irfft(ph, 3 * n)
    u *= u
    u *= u
    w = np.fft.rfft(u)
    out = w[: half + 1].copy()
    out[half] = w[half].real * 2.0
    return out / 3.0


def _random_real_coeffs(n, nyquist, seed):
    # the half-spectrum of a real field with the given Nyquist entry
    rng = np.random.default_rng(seed)
    half = n // 2
    c = np.empty(half + 1, dtype=complex)
    c[0] = rng.standard_normal()
    c[1:half] = rng.standard_normal(half - 1) + 1j * rng.standard_normal(half - 1)
    c[half] = nyquist
    return c


@pytest.mark.parametrize("n", [2, 4, 8, 64, 4096, 2**14])
def test_quartic_hat_matches_3n_product_with_complex_nyquist(n):
    # the state can hold a complex Nyquist coefficient; on 5n/2 points its
    # fourth power aliases onto +n/2 unless quartic_hat subtracts it
    c = _random_real_coeffs(n, 0.7 - 0.4j, n)
    ref = _quartic_hat_3n(c)
    assert np.max(np.abs(_quartic(c) - ref)) < 1e-13 * np.max(np.abs(ref))


def _quartic_hat_two_rows(c):
    # the two-row loop quartic_hat ran before its one-row workspace: both
    # half-spectra, then each half's irfft, fourth power and rfft in its own row
    half = c.size - 1
    n = 2 * half
    h = math.ceil(solver.DEALIAS_PAD * n / 2)
    m = 2 * h
    twiddle = np.exp(2j * np.pi * np.arange(half + 1) / m)
    twiddle = np.stack([twiddle, twiddle.conj()])
    ph, v, f = np.empty((2, half + 1), dtype=complex), np.empty((2, h)), np.empty((2, h // 2 + 1), dtype=complex)
    out = np.empty(half + 1, dtype=complex)
    np.multiply(c, h / n, out=ph[0])
    ph[0, half] *= 0.5
    np.multiply(ph[0], twiddle[0], out=ph[1])
    for p, u, w in zip(ph, v, f):
        np.fft.irfft(p, h, out=u)
        u *= u
        u *= u
        np.fft.rfft(u, out=w)
    np.multiply(twiddle[1], f[1, : half + 1], out=out)
    out += f[0, : half + 1]
    if m - 2 * n == half:
        out[half] -= np.conj(2.0 * ph[0, half]) ** 4 / m**3
    out[half] = out[half].real * 2.0
    out /= m / n
    return out


@pytest.mark.parametrize("nyquist", [0.7, 0.7 - 0.4j])
@pytest.mark.parametrize("n", [2, 4, 256, 4096])
def test_quartic_hat_is_bitwise_the_two_row_loop(n, nyquist):
    # one row of each work array, the even half parked in out: the same bits
    c = _random_real_coeffs(n, nyquist, n + 1)
    buffers = solver.quartic_buffers(n)
    assert [b.shape for b in buffers[:3]] == [(n // 2 + 1,), (buffers[1].size,), (buffers[1].size // 2 + 1,)]
    assert quartic_hat(c, buffers, np.empty_like(c)).tobytes() == _quartic_hat_two_rows(c).tobytes()


def test_quartic_hat_result_survives_next_call():
    n = 64
    buffers, stages = _workspace(n)
    q = quartic_hat(_random_real_coeffs(n, 0.3, 1), buffers, stages[0])
    kept = q.copy()
    quartic_hat(_random_real_coeffs(n, -0.5, 2), buffers, stages[1])
    assert np.array_equal(q, kept)


def test_step_result_survives_next_step():
    # recorded fields and snapshots hold the state step returns, so it must not
    # be one of the arrays the run reuses for later steps
    n = 64
    symbol = linear_symbol(Grid(n, 16.0))
    buffers, stages = _workspace(n)
    c = 0.1 * _random_real_coeffs(n, 0.3, 1)
    out = step(c, symbol, 0.05, True, buffers, stages)
    kept = out.copy()
    step(0.1 * _random_real_coeffs(n, -0.5, 2), symbol, -0.05, True, buffers, stages)
    assert not any(np.shares_memory(out, a) for a in (*buffers, stages))
    assert np.array_equal(out, kept)
    assert np.array_equal(out, _step(c, symbol, 0.05))


def test_step_with_run_buffers_allocates_only_its_result():
    # a steady-state step on run-owned arrays allocates the state it returns
    # and nothing else grid-sized (pocketfft's own scratch is not traced)
    n = 2**12
    symbol = linear_symbol(Grid(n, 64.0))
    buffers, stages = _workspace(n)
    c = 0.1 * _random_real_coeffs(n, 0.3, 3)
    step(c, symbol, 0.05, True, buffers, stages)
    tracemalloc.start()
    try:
        step(c, symbol, 0.05, True, buffers, stages)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * c.nbytes


def test_evolve_runs_share_no_buffers():
    def run(n):
        u0 = gaussian_data(Grid(n, 16.0), 0.5, width=0.5)
        return evolve(u0, SolverConfig(dt=0.05, t_end=2.0)).coeffs

    first = run(64)
    run(128)
    assert np.array_equal(run(64), first)


def test_blowup_guard(grid):
    c = np.full(grid.n_modes // 2 + 1, 1e11, dtype=complex)
    with pytest.raises(OverflowError):
        _rhs(c, linear_symbol(grid))


def test_step_dt_zero_identity(small_data):
    out = _step(small_data.coeffs, linear_symbol(small_data.grid), 0.0)
    assert np.max(np.abs(out - small_data.coeffs)) == 0.0


def test_step_linear_matches_exact_multiplier(small_data):
    state, symbol = small_data.coeffs, linear_symbol(small_data.grid)
    workspace = _workspace(small_data.grid.n_modes)
    for _ in range(1000):
        state = step(state, symbol, 1e-3, False, *workspace)
    exact = propagate_linear(small_data, small_data.time + 1.0)
    assert np.max(np.abs(state - exact.coeffs)) < 1e-10


def test_step_halving_is_fourth_order(small_data):
    def run(dt):
        return evolve(small_data, SolverConfig(dt=dt, t_end=2.0)).coeffs

    # step sizes that divide the span exactly, so evolve does not round them
    ref = run(0.0025)
    e1 = np.max(np.abs(run(0.05) - ref))
    e2 = np.max(np.abs(run(0.025) - ref))
    assert 14.0 <= e1 / e2 <= 18.0


def test_evolve_zero_data(grid):
    z = SpectralField(grid, np.zeros(grid.n_modes // 2 + 1, dtype=complex), time=1.0)
    out = evolve(z, SolverConfig(dt=0.05, t_end=3.0))
    assert np.max(np.abs(out.coeffs)) == 0.0


def test_evolve_h1_conservation(small_data):
    out = evolve(small_data, SolverConfig(dt=1e-2, t_end=11.0))
    drift = abs(h1_norm(out) - h1_norm(small_data)) / h1_norm(small_data)
    assert drift < 1e-10


def test_evolve_reversal(small_data):
    fwd = evolve(small_data, SolverConfig(dt=1e-2, t_end=6.0))
    back = evolve(fwd, SolverConfig(dt=-1e-2, t_end=1.0))
    err = np.max(np.abs(back.coeffs - small_data.coeffs)) / np.max(np.abs(small_data.coeffs))
    assert err < 1e-10


def test_evolve_recorder_called(small_data):
    times = []
    evolve(small_data, SolverConfig(dt=0.05, t_end=2.0, record_stride=10), lambda f, p, snapshot: times.append(f.time))
    assert times[0] == 1.0
    assert times[-1] == pytest.approx(2.0, abs=1e-12)
    assert len(times) == 3  # t = 1, 1.5, 2


def test_evolve_records_exact_lattice_times(small_data):
    times = []
    evolve(small_data, SolverConfig(dt=0.1, t_end=16.0, record_stride=1), lambda f, p, snapshot: times.append(f.time))
    assert times == [1 + 15 * i / 150 for i in range(151)]
    assert 8.0 in times and times[-1] == 16.0


def test_evolve_records_whole_times_exactly_when_t_end_is_not_a_binary_fraction(small_data):
    # the span 16.9 - 1 rounds to 15.899999999999999, so the lattice time
    # 1 + span * 30 / 159 is 3.9999999999999996, not 4
    times = []
    evolve(small_data, SolverConfig(dt=0.1, t_end=16.9, record_stride=10), lambda f, p, snapshot: times.append(f.time))
    assert times == [float(j) for j in range(1, 17)] + [16.9]


def test_evolve_rejects_non_dividing_dt(small_data):
    calls = []
    with pytest.raises(ValueError, match="divide"):
        evolve(small_data, SolverConfig(dt=0.07, t_end=16.0), lambda f, p, snapshot: calls.append(f.time))
    assert calls == []


def test_evolve_evaluates_omega_once_per_run(monkeypatch):
    from gbbmlab.dispersion import omega

    # a grid no other test steps on, and two runs of it: one evaluation each
    u0 = gaussian_data(Grid(2**7, 24.0), 1e-2)
    calls = []
    monkeypatch.setattr(solver, "omega", lambda xi: calls.append(xi) or omega(xi))
    for run in range(1, 3):
        records = []
        evolve(u0, SolverConfig(dt=0.05, t_end=1.5, record_stride=5), lambda f, p, snapshot: records.append(f.time))
        assert records == [1.0, 1.25, 1.5]
        assert len(calls) == run


def test_evolve_returns_the_last_recorded_field(small_data):
    records = []
    cfg = SolverConfig(dt=0.05, t_end=2.0, record_stride=7)
    out = evolve(small_data, cfg, lambda f, p, snapshot: records.append(f))
    assert [f.time for f in records] == [1.0, 1.35, 1.7, 2.0]
    assert out.time == 2.0
    assert np.array_equal(out.coeffs, records[-1].coeffs)


def test_evolve_without_steps_returns_u0(small_data):
    records = []
    out = evolve(small_data, SolverConfig(dt=0.05, t_end=small_data.time), lambda f, p, snapshot: records.append(f))
    assert [f.time for f in records] == [small_data.time]
    assert out.time == small_data.time
    assert np.array_equal(out.coeffs, small_data.coeffs)


def test_lattice_is_the_step_lattice():
    lat = SolverConfig(dt=0.1, t_end=16.0, record_stride=10).lattice(1.0)
    assert (lat.t0, lat.span, lat.n, lat.dt) == (1.0, 15.0, 150, 0.1)
    assert tuple(lat.records) == (*range(0, 150, 10), 150)
    assert SolverConfig(dt=-0.1, t_end=1.0).lattice(6.0).n == 50
    lat = SolverConfig(dt=0.1, t_end=1.0).lattice(1.0)
    assert (lat.n, lat.dt, tuple(lat.records), lat.time(0)) == (0, 0.1, (0,), 1.0)
    with pytest.raises(ValueError, match="divide"):
        SolverConfig(dt=0.07, t_end=16.0).lattice(1.0)
    with pytest.raises(ValueError, match="sign"):
        SolverConfig(dt=0.1, t_end=0.5).lattice(1.0)
    with pytest.raises(ValueError, match="finite"):
        SolverConfig(t_end=math.inf)


def test_lattice_snapshots_are_the_records_at_exact_powers_of_two():
    lat = SolverConfig(dt=0.1, t_end=4.0, record_stride=10).lattice(-4.0)
    assert [lat.time(i) for i in lat.records] == [float(t) for t in range(-4, 5)]
    assert [lat.time(i) for i in lat.snapshots] == [1.0, 2.0, 4.0]  # not 0, -4 or 3
    # the span 16.9 - 1 rounds to 15.899999999999999, so the lattice time
    # 1 + span * 30 / 159 is 3.9999999999999996; it is stamped as 4
    lat = SolverConfig(dt=0.1, t_end=16.9, record_stride=10).lattice(1.0)
    assert 1.0 + lat.span * 30 / 159 == 3.9999999999999996
    assert lat.snapshots == (0, 10, 30, 70, 150)
    assert [lat.time(i) for i in lat.snapshots] == [1.0, 2.0, 4.0, 8.0, 16.0]
    # a time one part in 2^40 off 4, beyond the 1e-9 |span| of a short span, is not 4
    t_end = 4.0 * (1.0 + 2.0**-40)
    lat = SolverConfig(dt=0.001, t_end=t_end).lattice(t_end - 0.001)
    assert lat.time(lat.n) != 4.0 and abs(lat.time(lat.n) - 4.0) < 1e-11
    assert lat.snapshots == ()


def test_long_lattice_holds_its_records_as_two_numbers():
    # a 10^7-step lattice and its snapshots cost no more than a short one: the
    # records are (n, stride), and only the records near a power of two are stamped
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        lat = SolverConfig(dt=0.1, t_end=1e6, record_stride=10).lattice(1.0)
        snapshots = lat.snapshots
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05 and peak < 2**20
    assert [lat.time(i) for i in snapshots] == [2.0**k for k in range(20)]
    assert (len(lat.records), lat.records[0], lat.records[-2], lat.records[-1]) == (10**6, 0, 9999980, 9999990)


#: Run starts: negative and fractional times, and signed powers of two (the snapshot times themselves).
_T0 = st.one_of(
    st.floats(-50.0, 50.0, allow_subnormal=False),
    st.builds(lambda sign, e: sign * 2.0**e, st.sampled_from([-1.0, 1.0]), st.integers(-6, 6)),
)


@settings(max_examples=60, deadline=1000)
@given(
    t0=_T0,
    n=st.integers(0, 9999),
    dt=st.sampled_from([0.1, 0.07, 0.05, 1 / 30, 0.01, 0.001]),
    sign=st.sampled_from([-1.0, 1.0]),
    stride=st.integers(1, 50),
)
def test_step_at_inverts_time_on_the_step_by_step_lattice(t0, n, dt, sign, stride):
    dt *= sign
    t_end = t0 + n * dt
    try:
        records, times, snapshots = _reference_lattice(dt, t_end, stride, t0)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            SolverConfig(dt=dt, t_end=t_end, record_stride=stride).lattice(t0)
        assert str(raised.value) == str(e)
        return
    lat = SolverConfig(dt=dt, t_end=t_end, record_stride=stride).lattice(t0)
    assert tuple(lat.records) == records
    assert np.array([lat.time(i) for i in lat.records]).tobytes() == np.array(times).tobytes()
    assert lat.snapshots == snapshots
    assert [lat.step_at(lat.time(i)) for i in lat.records] == list(records)
    # a time strictly between two neighbouring steps' is no step's
    for i in (0, lat.n // 3, lat.n - 1) if lat.n else ():
        a, b = sorted((lat.time(i), lat.time(i + 1)))
        between = a + (b - a) / 2
        assert a < between < b and lat.step_at(between) is None


def test_step_at_is_the_one_step_of_a_time():
    lat = SolverConfig(dt=0.1, t_end=16.9, record_stride=10).lattice(1.0)
    # the stamped 4.0 (1 + span * 30 / 159 is 3.9999999999999996) is step 30
    assert lat.step_at(4.0) == 30 and lat.step_at(3.9999999999999996) is None
    assert (lat.step_at(16.9), lat.step_at(1.0)) == (159, 0)
    assert (lat.step_at(0.9), lat.step_at(17.0), lat.step_at(1.05)) == (None, None, None)
    lat = SolverConfig(dt=-0.1, t_end=1.0).lattice(6.0)
    assert (lat.step_at(4.0), lat.step_at(6.0), lat.step_at(1.0)) == (20, 0, 50)
    lat = SolverConfig(dt=0.1, t_end=2.0).lattice(2.0)
    assert (lat.n, lat.step_at(2.0), lat.step_at(1.0)) == (0, 0, None)
    # a last step stamped as a power of two just beyond t_end, going forward and back, is a snapshot
    lat = SolverConfig(dt=0.1, t_end=4.0 - 1e-10, record_stride=10).lattice(1.0)
    assert (lat.time(30), lat.step_at(4.0), lat.snapshots) == (4.0, 30, (0, 10, 30))
    lat = SolverConfig(dt=-0.1, t_end=1.0 + 1e-10, record_stride=10).lattice(6.0)
    assert (lat.time(50), lat.step_at(1.0), lat.snapshots) == (1.0, 50, (20, 40, 50))


@pytest.mark.parametrize("n, stride", [(150, 10), (149, 10), (7, 3), (1, 5), (0, 2)])
def test_records_index_iterate_and_search_as_their_tuple(n, stride):
    records = solver.Records(n, stride)
    want = (*range(0, n, stride), n)
    assert tuple(records) == want and len(records) == len(want)
    assert [records[j] for j in range(-len(want), len(want))] == [want[j] for j in range(-len(want), len(want))]
    for j in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            records[j]
    assert [i in records for i in range(-2, n + 3)] == [i in want for i in range(-2, n + 3)]
    others = (None, 2.5, float(stride), np.int64(n), True, -0.0, np.float32(n), math.nan, "5", (5,))
    assert [i in records for i in others] == [i in want for i in others]


def test_records_membership_takes_no_scan():
    # range.__contains__ scans its range for anything but an int: 0.34 s for
    # None in Records(10**7, 1), timed here first, and no end for 10**12
    t0 = time.perf_counter()
    assert None not in solver.Records(10**7, 1)
    assert time.perf_counter() - t0 < 0.05
    records = solver.Records(10**12, 1)
    assert None not in records and 2.5 not in records and "x" not in records
    assert 5.0 in records and np.int64(10**12) in records and float(10**12 - 1) in records


def test_a_billion_step_lattice_stamps_each_whole_time_once():
    # 1e-9 |span| is a whole step here: the snap is capped at a quarter step,
    # so steps 21 (t = 2.05) and 59, 61 (3.95, 4.05) keep their own times
    lat = SolverConfig(dt=0.05, t_end=1 + 5e7, record_stride=1).lattice(1.0)
    assert lat.n == 10**9
    assert [lat.time(i) for i in (19, 20, 21)] == [1.95, 2.0, 2.05]
    assert [lat.time(i) == 4.0 for i in (59, 60, 61)] == [False, True, False]
    times = [lat.time(i) for i in lat.snapshots]
    assert times == [2.0**e for e in range(26)]
    assert lat.snapshots[:3] == (0, 20, 60)


def _reference_lattice(dt: float, t_end: float, stride: int, t0: float = 1.0):
    """Records, their times and the snapshots as a run stamped and kept them
    step by step: the step count of dt, then i % stride == 0 or i == n, the
    time t0 + span * i / n snapped to a whole number within 1e-9 |span| (t0
    itself at i = 0), and a snapshot where frexp of the time is 0.5."""
    span = t_end - t0
    if span * dt < 0:
        raise ValueError("dt sign inconsistent with t_end")
    n = round(span / dt)
    if abs(n * dt - span) > 1e-9 * abs(span):
        raise ValueError(f"dt = {dt:g} does not divide t_end - t0 = {span:g} into whole steps")
    records, times, snapshots = [0], [t0], [0] if math.frexp(t0)[0] == 0.5 else []
    for i in range(1, n + 1):
        t = t0 + span * i / n
        t = float(round(t)) if abs(t - round(t)) <= 1e-9 * abs(span) else t
        if i % stride == 0 or i == n:
            records.append(i)
            times.append(t)
            if math.frexp(t)[0] == 0.5:
                snapshots.append(i)
    return tuple(records), times, tuple(snapshots)


@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("t_end", [16.9, 7.3, 16.0, 33.0, 1.0, 0.5])
@pytest.mark.parametrize("dt", [0.04, 0.06, 0.07, 1 / 30, -0.01, 0.1, 0.05])
def test_lattice_is_the_step_by_step_records(dt, t_end, stride):
    try:
        reference = _reference_lattice(dt, t_end, stride)
    except ValueError as e:
        with pytest.raises(ValueError) as raised:
            SolverConfig(dt=dt, t_end=t_end, record_stride=stride).lattice(1.0)
        assert str(raised.value) == str(e)
        return
    lat = SolverConfig(dt=dt, t_end=t_end, record_stride=stride).lattice(1.0)
    records, times, snapshots = reference
    assert tuple(lat.records) == records
    # bitwise: the times as IEEE doubles, so 3.9999999999999996 is not 4.0
    assert np.array([lat.time(i) for i in lat.records]).tobytes() == np.array(times).tobytes()
    assert lat.snapshots == snapshots


def test_evolve_realness(small_data):
    # the half-spectrum layout makes the field real; of the two entries whose
    # imaginary part it leaves free, the mean stays exactly real (omega(0) = 0)
    out = evolve(small_data, SolverConfig(dt=0.05, t_end=3.0))
    assert out.coeffs.shape == (small_data.grid.n_modes // 2 + 1,)
    assert small_data.coeffs[0].imag == 0.0
    assert out.coeffs[0].imag == 0.0


def test_discrete_profile_constant_under_rk4_linear_flow(small_data):
    dt = 0.05
    state, symbol = small_data.coeffs, linear_symbol(small_data.grid)
    workspace = _workspace(small_data.grid.n_modes)
    for _ in range(100):
        state = step(state, symbol, dt, False, *workspace)
    log_factor = rk4_linear_log_factor(symbol, dt)
    a = discrete_profile_of(small_data, log_factor, 0)
    b = discrete_profile_of(SpectralField(small_data.grid, state), log_factor, 100)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-14


def test_rk4_factor_near_exact_symbol(grid):
    from gbbmlab.dispersion import omega

    dt = 0.01
    logR = rk4_linear_log_factor(linear_symbol(grid), dt)
    exact = -1j * omega(grid.frequencies) * dt
    assert np.max(np.abs(logR - exact)) < 1e-12
