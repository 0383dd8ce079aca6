import dataclasses
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gbbmlab import diagnostics, linear_flow, solver
from gbbmlab.diagnostics import dxi_l2, linf_fhat, sobolev
from gbbmlab.dispersion import SQRT3, omega, omega_prime
from gbbmlab.linear_flow import (
    EstimateSweep,
    _band_velocity_range,
    _chirp_z_sum,
    _fold,
    _quadrature_nodes,
    aggregate_sup_norm,
    classify_case,
    dispersive_bound,
    evaluate_lp_piece,
    linear_sup_sweep,
    propagate_linear,
    stationary_cone,
    sup_norm_of_piece,
    verify_dispersive_estimate,
)
from gbbmlab.littlewood_paley import psi_k
from gbbmlab.spectral import Grid, SpectralField


def _amplitude(field, k, t, nodes):
    """The trapezoid weights (the node spacing, halved at both ends) times the integrand at the
    nodes, with fhat interpolated over the whole grid from fresh continuum coefficients."""
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    xi, c = field.grid.frequencies, field.continuum_coeffs
    f = np.interp(nodes, xi, c.real) + 1j * np.interp(nodes, xi, c.imag)
    return w * psi_k(k, nodes) * f * np.exp(-1j * omega(nodes) * t)


def _piece(field, k, t, xs, nodes):
    """One trapezoid rule of the band integral on the given nodes, at the uniform scan xs."""
    (total,) = _chirp_z_sum([_amplitude(field, k, t, nodes)], nodes, xs)
    return 2.0 * total.real / math.sqrt(2 * math.pi)


def _dense_piece(field, k, t, x, nodes):
    """The same trapezoid rule as a dense sum over the nodes, at any points x."""
    return 2.0 * np.real(np.exp(1j * np.outer(x, nodes)) @ _amplitude(field, k, t, nodes)) / math.sqrt(2 * math.pi)


@pytest.fixture(scope="module")
def gaussian_field():
    g = Grid(2**13, 256.0)
    return SpectralField.from_function(g, lambda x: np.exp(-x * x / 2.0))


def test_propagate_linear_preserves_modulus(gaussian_field):
    f = propagate_linear(gaussian_field, 37.0)
    assert f.time == 37.0
    assert np.max(np.abs(np.abs(f.coeffs) - np.abs(gaussian_field.coeffs))) < 1e-12


def test_propagate_linear_t_zero_identity(gaussian_field):
    f = propagate_linear(gaussian_field, 0.0)
    assert np.max(np.abs(f.coeffs - gaussian_field.coeffs)) == 0.0


def test_propagate_composes(gaussian_field):
    a = propagate_linear(propagate_linear(gaussian_field, 5.0), 9.0)
    b = propagate_linear(gaussian_field, 9.0)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_aggregate_sup_at_t0(gaussian_field):
    assert aggregate_sup_norm(gaussian_field, 0.0) == pytest.approx(1.0, rel=1e-12)


def test_linear_sup_sweep_matches_direct_propagation():
    # linear-decay's near-sqrt3 data on its default grid, t = 100 ... 102400: the
    # squared phase factor against one exp per time, whose own argument rounding
    # at the last time is omega t eps ~ 5e-12 rad
    g = Grid(2**18, 9000.0)
    field = solver.gaussian_data(g, 1.0, 2.0, SQRT3, time=0.0)
    times = [100.0 * 2.0**j for j in range(11)]
    for t, (sup, _, u) in zip(times, linear_sup_sweep(field, times[0], len(times), math.inf), strict=True):
        direct = propagate_linear(field, t).physical()
        assert sup == np.max(np.abs(u))
        assert np.max(np.abs(u - direct)) <= (1e-14 if t <= 6400.0 else 1e-13) * sup


def test_linear_sup_sweep_allocates_nothing_grid_sized_after_the_first_time():
    g = Grid(2**16, 2048.0)
    field = solver.gaussian_data(g, 1.0, 0.5, time=0.0)
    sweep = linear_sup_sweep(field, 10.0, 6, math.inf)
    next(sweep)
    tracemalloc.start()
    try:
        assert len(list(sweep)) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the finiteness check's mask is coeffs.nbytes / 16
    assert peak < field.coeffs.nbytes / 8


#: The half-width of gaussian_data's envelope above 2^-53 of its peak, per unit width.
_REACH = math.sqrt(106.0 * math.log(2.0))


@pytest.mark.parametrize("width, carrier", [(0.5, 0.0), (2.0, SQRT3)], ids=["gaussian", "near-sqrt3"])
def test_linear_sup_sweep_on_sub_boxes_matches_the_full_box(width, carrier):
    # linear-decay's default grid and times, t = 100 ... 6400: the early times read off sub-boxes
    # of 2^13 points and up, the last off the full box; each time's peak is the full box's argmax
    g = Grid(2**18, 9000.0)
    field = solver.gaussian_data(g, 1.0, width, carrier, time=0.0)
    full = [(sup, x, -g.half_length + g.dx * int(np.argmax(np.abs(u))))
            for sup, x, u in linear_sup_sweep(field, 100.0, 7, math.inf)]
    folded = [(sup, x, u.size) for sup, x, u in linear_sup_sweep(field, 100.0, 7, width * _REACH)]
    assert (folded[0][2], folded[-1][2]) == (g.n_modes // 32, g.n_modes)
    for (a, x_full, x_argmax), (b, x, _) in zip(full, folded, strict=True):
        assert abs(a - b) <= 1e-13 * a
        assert x == x_full == x_argmax
    assert folded[-1][0] == full[-1][0]


def test_linear_sup_sweep_given_a_reach_allocates_nothing_grid_sized_after_the_first_time():
    g = Grid(2**16, 2048.0)
    field = solver.gaussian_data(g, 1.0, 0.5, time=0.0)
    sweep = linear_sup_sweep(field, 10.0, 6, 0.5 * _REACH)
    next(sweep)
    tracemalloc.start()
    try:
        assert len(list(sweep)) == 5
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the finiteness check's mask is coeffs.nbytes / 16
    assert peak < field.coeffs.nbytes / 8


#: Multiples of L: uniform ones, and signed powers of two down to the scale of a sub-box of 2^20 points.
_PER_L = st.one_of(
    st.floats(-2.0, 2.0),
    st.builds(lambda sign, e: sign * 2.0**e, st.sampled_from([-1.0, 1.0]), st.integers(-20, 1)),
)


@settings(max_examples=60, deadline=1000)
@given(e=st.integers(1, 20), half_length=st.floats(1e-3, 1e6), reach=_PER_L.map(abs), tau=_PER_L)
@example(e=18, half_length=9000.0, reach=0.5 * _REACH / 9000.0, tau=100.0 / 9000.0)  # linear-decay's first time
@example(e=18, half_length=9000.0, reach=0.5 * _REACH / 9000.0, tau=0.0)
def test_fold_picks_the_smallest_sub_box_that_passes_the_wrap_rule_twice_over(e, half_length, reach, tau):
    # numbers only: no array is built
    n, reach, tau = 2**e, reach * half_length, tau * half_length

    def holds(p):
        return Grid(n // p, half_length / p).max_unwrapped_time(reach) >= 2.0 * abs(tau)

    # the backward cone is the forward one's mirror image; with an infinite reach, the full box
    p = _fold(Grid(n, half_length), tau, reach)
    assert p == _fold(Grid(n, half_length), -tau, reach)
    assert _fold(Grid(n, half_length), tau, math.inf) == 1
    assert p & (p - 1) == 0 and 1 <= p <= n // 2
    assert holds(p) or p == 1  # p = 1 whether or not the full box holds the cone
    if 2 * p <= n // 2:  # the next sub-box has the 2 points a Grid needs
        assert not holds(2 * p)


def test_evaluate_piece_matches_analytic_quadrature(gaussian_field):
    # independent oracle: brute-force quadrature of the band integral with
    # the closed-form Gaussian transform, no interpolation involved
    k, t = 2, 30.0
    xs = np.linspace(-3.0, 4.0, 8)
    nodes = np.linspace(2.0 ** (k - 1), 2.0 ** (k + 1), 200001)
    w = np.full(nodes.size, nodes[1] - nodes[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    amp = w * psi_k(k, nodes) * np.exp(-nodes * nodes / 2.0) * np.exp(-1j * omega(nodes) * t)
    oracle = 2.0 * np.real(np.exp(1j * np.outer(xs, nodes)) @ amp) / math.sqrt(2 * math.pi)
    vals = evaluate_lp_piece(EstimateSweep(gaussian_field), k, t, -3.0, 4.0, 8)
    # residual difference is the linear-interpolation error of the profile
    # on the grid spacing dxi ~ 0.012, not quadrature error
    assert np.max(np.abs(vals - oracle)) < 1e-6


def test_evaluate_piece_band_beyond_nyquist(gaussian_field):
    with pytest.raises(ValueError):
        evaluate_lp_piece(EstimateSweep(gaussian_field), 12, 10.0, -1.0, 1.0, 2)


def test_chirp_z_matches_dense_sum_on_largest_estimates_row():
    # criterion 7's largest row: 3365 scan points x 38681 fine nodes.  The
    # dense sum is the reference, taken at 64 scattered points of the scan
    # (and the peak) so the test stays fast.
    g = Grid(2**16, 512.0)
    w = 0.03125
    field = SpectralField.from_function(g, lambda x: np.exp(-(x * x) / (2.0 * w * w)))
    k, t = 0, 4096.0
    a, b = stationary_cone(t, _band_velocity_range(k))
    xs = np.linspace(a, b, int(math.ceil((b - a) / (2.0 * math.pi / 8))) + 1)
    nodes = _quadrature_nodes(k, t, float(np.max(np.abs(xs))), _band_velocity_range(k))
    assert (xs.size, nodes.size) == (3365, 38681)
    chirp = _piece(field, k, t, xs, nodes)
    idx = np.union1d(np.random.default_rng(0).choice(xs.size, 64, replace=False), [np.argmax(np.abs(chirp))])
    dense = _dense_piece(field, k, t, xs[idx], nodes)
    assert np.max(np.abs(chirp[idx] - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_two_point_scan_agrees_across_paths(gaussian_field):
    # the shortest scan, m = 2 (step h = b - a), against the dense sum
    k, t = 2, 30.0
    xs = np.linspace(-3.0, 4.0, 2)
    nodes = _quadrature_nodes(k, t, 4.0, _band_velocity_range(k))[::2]
    dense = _dense_piece(gaussian_field, k, t, xs, nodes)
    chirp = _piece(gaussian_field, k, t, xs, nodes)
    assert np.max(np.abs(chirp - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_sup_norm_piece_vs_fft_propagation(gaussian_field):
    # the band sup from direct quadrature must agree with exact periodic
    # propagation of the band-projected field
    k, t = 1, 40.0
    sup, _ = sup_norm_of_piece(EstimateSweep(gaussian_field), k, t, points_per_wavelength=32)
    g = gaussian_field.grid
    band = SpectralField(g, gaussian_field.coeffs * psi_k(k, g.frequencies), gaussian_field.time)
    ref = aggregate_sup_norm(band, t)
    assert sup == pytest.approx(ref, rel=2e-3)


def test_stationary_argmax_tracks_group_velocity(gaussian_field):
    k, t = 2, 200.0
    _, x_at_max = sup_norm_of_piece(EstimateSweep(gaussian_field), k, t)
    predicted = float(omega_prime(2.0**k)) * t
    # within one dyadic factor of the band-center ray
    assert 0.5 <= x_at_max / predicted <= 2.0


def test_classify_case_boundaries():
    # at t = 512, C_hi t^{1/9} = 16 * 2 = 32
    assert classify_case(6, 512.0) == 1
    assert classify_case(4, 512.0) == 2
    assert classify_case(3, 512.0) == 2
    assert classify_case(2, 512.0) == 3
    assert classify_case(0, 512.0) == 3
    assert classify_case(-1, 512.0) == 3
    assert classify_case(-2, 512.0) == 4
    # at t = 1000, C_lo t^(-1/3) = 0.025 sits between 2^-6 and 2^-5;
    # t = 512 would put 2^-5 exactly on a case boundary, deliberately avoided
    assert classify_case(-5, 1000.0) == 4
    assert classify_case(-6, 1000.0) == 5
    with pytest.raises(ValueError):
        classify_case(0, 0.0)


def _reference_case(k, t):
    """The regime of (k, t) as the if-chain that preceded the regime table split it."""
    lam = 2.0**k
    if lam >= linear_flow.CASE_C_HI * t ** (1.0 / 9.0):
        return 1
    if lam >= 8.0:
        return 2
    if lam >= 0.5:
        return 3
    if lam >= linear_flow.CASE_C_LO * t ** (-1.0 / 3.0):
        return 4
    return 5


def test_classify_case_is_the_reference_split():
    # t = 2^-12 and 2^-9 bracket case 2's emptiness, 0.1 and 1/8 case 4's
    times = [2.0**-12, 2.0**-9, 0.1, 0.125, 1.0, 16.0, 512.0, 4096.0, 1e6, 1e12]
    assert all(classify_case(k, t) == _reference_case(k, t) for k in range(-12, 13) for t in times)


def test_case_thresholds_monotone_in_k():
    for t in (16.0, 256.0, 4096.0):
        cases = [classify_case(k, t) for k in range(-12, 12)]
        assert cases == sorted(cases, reverse=True)


def test_norm_helpers(gaussian_field):
    # closed forms for exp(-x^2/2): sup fhat = 1, L2 = pi^(1/4)... via H^0
    g = gaussian_field.grid
    assert linf_fhat(gaussian_field.continuum_coeffs) == pytest.approx(1.0, rel=1e-10)
    l2 = sobolev(g, gaussian_field.continuum_coeffs, 0.0)
    assert l2 == pytest.approx(math.pi**0.25, rel=1e-10)
    assert dxi_l2(g, gaussian_field.continuum_coeffs * psi_k(0, g.frequencies)) > 0.0


def test_dxi_l2_of_a_band_allocates_no_spectrum_sized_array():
    # band k = 0 on the estimates grid, cut as dispersive_bound cuts it: the
    # d/dxi norm works over the band's support, not the whole half-spectrum
    g = Grid(2**16, 512.0)
    fhat = SpectralField.from_function(g, lambda x: np.exp(-x * x / 2.0)).continuum_coeffs
    xi = g.frequencies
    lo, hi = np.searchsorted(xi, linear_flow._band_interval(0))
    fhat[:lo] = fhat[hi:] = 0.0
    fhat[lo:hi] *= psi_k(0, xi[lo:hi])
    dxi_l2(g, fhat)
    tracemalloc.start()
    try:
        dxi_l2(g, fhat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < fhat.nbytes / 8


def test_dispersive_bound_rows(gaussian_field):
    rows = verify_dispersive_estimate(gaussian_field, [0, 2], [16.0, 32.0])
    assert len(rows) == 4
    for r in rows:
        assert math.isfinite(r.ratio)
        assert r.lhs >= 0.0
        assert r.rhs > 0.0


def test_dispersive_bound_band_is_the_whole_grid_product(gaussian_field, monkeypatch):
    # psi_k is evaluated on the band's indices only; the profile it hands to
    # dxi_l2 is bitwise fhat * psi_k over the whole grid, band after band of one
    # sweep (so each band's cut holds that band only), and the field is untouched
    g, coeffs = gaussian_field.grid, gaussian_field.coeffs.copy()
    sweep = EstimateSweep(gaussian_field)
    seen = []
    monkeypatch.setattr(linear_flow.diagnostics, "dxi_l2", lambda grid, f: seen.append(f.copy()) or dxi_l2(grid, f))
    ks = [-2, 0, 3]
    assert {classify_case(k, 16.0) for k in ks} == {2, 3, 4}
    for k in ks:
        dispersive_bound(sweep, k, 16.0)
        assert np.array_equal(seen.pop(), gaussian_field.continuum_coeffs * psi_k(k, g.frequencies))
    assert np.array_equal(gaussian_field.coeffs, coeffs)


def test_dispersive_bound_case5_trivial(gaussian_field):
    b = dispersive_bound(EstimateSweep(gaussian_field), -10, 1e6)
    assert b.case == 5
    assert b.rhs == pytest.approx(2.0**-10 * linf_fhat(gaussian_field.continuum_coeffs), rel=1e-12)


def _velocity_range(k):
    v = omega_prime(np.linspace(2.0 ** (k - 1), 2.0 ** (k + 1), 4097))
    return float(np.min(v)), float(np.max(v))


def _reference_scan(k, t):
    """A row's scan of its band's cone, from the band's omega' range sampled afresh."""
    vlo, vhi = _velocity_range(k)
    a, b = min(1.05 * t * vlo, t * vlo) - 20.0, max(1.05 * t * vhi, t * vhi) + 20.0
    return np.linspace(a, b, max(16, int(math.ceil((b - a) / (2.0 * math.pi * 2.0 ** (-k) / 8)))) + 1)


def _reference_nodes(k, t, xs, refine):
    """The coarse (refine = 1) or fine (refine = 2) rule's n * refine + 1 linspace nodes on the band."""
    vlo, vhi = _velocity_range(k)
    step = math.pi / 10.0 / max(float(np.max(np.abs(xs))) + t * max(abs(vlo), abs(vhi)), 1.0)
    n = max(64, int(math.ceil((2.0 ** (k + 1) - 2.0 ** (k - 1)) / step))) * refine
    return np.linspace(2.0 ** (k - 1), 2.0 ** (k + 1), n + 1)


def _two_rules(field, k, t, xs):
    """(coarse, fine) as two independent chirp-z sums, each on its own nodes with its own
    psi_k, fhat and phase: the quadrature's arithmetic before the even/odd split."""
    return tuple(_piece(field, k, t, xs, _reference_nodes(k, t, xs, refine)) for refine in (1, 2))


def _even_odd_rules(field, k, t, xs):
    """(coarse, fine) from the fine rule's sums E and O over its even and its odd nodes:
    the coarse rule is 2 Re(2E), the fine one 2 Re(E + O), and O is exp(i x h) times the
    odd terms summed over the even nodes, a zero term at the last."""
    nodes = _reference_nodes(k, t, xs, 2)
    terms = _amplitude(field, k, t, nodes)
    e, o = _chirp_z_sum([terms[::2], np.append(terms[1::2], 0.0)], nodes[::2], xs)
    fine = 2.0 * (e + o * np.exp(1j * (nodes[1] - nodes[0]) * xs)).real / math.sqrt(2.0 * math.pi)
    return 4.0 * e.real / math.sqrt(2.0 * math.pi), fine


def _reference_row(field, k, t, s=5.5):
    """A decay-bound row as computed before rows shared a sweep: fresh
    continuum coefficients for the rhs and again for the interpolant, the
    band's omega' range per use, and the fine rule's linspace nodes, with
    their own psi_k, fhat and phase, summed as E + O; the case and its rhs
    by the if-chains that preceded the regime table."""
    case = _reference_case(k, t)
    lam = 2.0**k
    fhat = field.continuum_coeffs
    fsup = linf_fhat(fhat)
    if case == 1:
        rhs = lam ** (-(s - 1.0)) * sobolev(field.grid, fhat, s)
    elif case == 5:
        rhs = lam * fsup
    else:
        xi = field.grid.frequencies
        lo, hi = np.searchsorted(xi, (2.0 ** (k - 1), 2.0 ** (k + 1)))
        fhat[:lo] = fhat[hi:] = 0.0
        fhat[lo:hi] *= psi_k(k, xi[lo:hi])
        dk = dxi_l2(field.grid, fhat)
        if case == 2:
            rhs = t**-0.5 * lam**1.5 * fsup + t**-0.75 * lam**2.25 * dk
        elif case == 3:
            rhs = t ** (-1.0 / 3.0) * fsup + t**-0.5 * dk
        else:
            rhs = t**-0.5 * lam**-0.5 * fsup + t**-0.75 * lam**-0.75 * dk

    coarse, fine = _even_odd_rules(field, k, t, _reference_scan(k, t))
    assert np.max(np.abs(fine - coarse)) <= 1e-6 * np.max(np.abs(fine))
    return linear_flow.DispersiveCaseBound(k=k, t=t, case=case, lhs=float(np.max(np.abs(fine))), rhs=rhs)


@pytest.fixture(scope="module")
def estimates_field():
    # verify-estimates' default profile and grid
    return solver.gaussian_data(Grid(2**16, 512.0), 1.0, 0.03125, time=0.0)


@pytest.mark.parametrize("s", [5.5, 3.0])
def test_sweep_rows_are_bitwise_the_per_row_reference(estimates_field, s):
    # the Sobolev index reaches both the lambda^-(s-1) factor and the H^s norm
    # of the case-1 rows (k = 5)
    times = [16.0, 32.0, 4096.0]
    rows = verify_dispersive_estimate(estimates_field, range(-3, 6), times, s)
    assert [(r.k, r.t) for r in rows] == [(k, t) for k in range(-3, 6) for t in times]
    assert {r.case for r in rows} == {1, 2, 3, 4}
    for r in rows:
        assert dataclasses.astuple(r) == dataclasses.astuple(_reference_row(estimates_field, r.k, r.t, s))


@pytest.mark.parametrize("data, k, t, case", [("estimates_field", 5, 16.0, 1), ("gaussian_field", -10, 1e6, 5)])
def test_lone_rows_are_bitwise_the_per_row_reference(request, data, k, t, case):
    field = request.getfixturevalue(data)
    row = dispersive_bound(EstimateSweep(field), k, t)
    assert row.case == case
    assert dataclasses.astuple(row) == dataclasses.astuple(_reference_row(field, k, t))


def test_default_rows_are_the_two_rule_arithmetic_within_1e_12(estimates_field):
    # verify-estimates' 81 default rows: the even/odd split moves each row's sup by
    # 3.5e-14 relative at most and its fine rule by 1.3e-13 of that sup, far inside
    # the rows' 1e-6 tolerance.  The coarse rule, which only the 1e-6
    # self-convergence check reads, moves by 1.5e-12 of the sup at most
    sweep = EstimateSweep(estimates_field)
    rows = verify_dispersive_estimate(estimates_field, range(-3, 6), [16.0 * 2.0**j for j in range(9)])
    assert len(rows) == 81
    for r in rows:
        xs = _reference_scan(r.k, r.t)
        coarse, fine = _two_rules(estimates_field, r.k, r.t, xs)
        sup = np.max(np.abs(fine))
        assert r.lhs == pytest.approx(sup, rel=1e-12, abs=0.0)
        assert np.max(np.abs(evaluate_lp_piece(sweep, r.k, r.t, xs[0], xs[-1], xs.size) - fine)) <= 1e-12 * sup
        assert np.max(np.abs(_even_odd_rules(estimates_field, r.k, r.t, xs)[0] - coarse)) <= 1e-11 * sup


def test_one_row_transforms_its_chirp_once_and_nothing_at_the_fine_length(estimates_field, monkeypatch):
    # band -3 at t = 16: 129 fine nodes, 65 even ones and a 17-point scan, so the
    # convolution's length is 128 and a fine rule's would be 256.  The chirp
    # (65 + 17 - 1 points) is transformed once; each of E and O once forward and once back
    k, t = -3, 16.0
    nodes = _quadrature_nodes(k, t, float(np.max(np.abs(_reference_scan(k, t)))), _band_velocity_range(k))
    assert (nodes.size, _reference_scan(k, t).size) == (129, 17)
    calls = []

    def counted(name, fn):
        def wrapper(a, n=None, *args, **kwargs):
            calls.append((name, len(a), n))
            return fn(a, n, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted("fft", np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted("ifft", np.fft.ifft))
    sup_norm_of_piece(EstimateSweep(estimates_field), k, t)
    assert sorted(calls) == [("fft", 65, 128), ("fft", 65, 128), ("fft", 81, 128), ("ifft", 128, None), ("ifft", 128, None)]


@pytest.mark.parametrize("k", [3, 5])
def test_quadrature_refuses_a_rule_that_does_not_self_converge(estimates_field, monkeypatch, k):
    # at a phase step of 4 pi between every other fine node the coarse rule is
    # far off the fine one on the estimates data's high bands
    monkeypatch.setattr(linear_flow, "PHASE_STEP", 4.0 * math.pi)
    with pytest.raises(ArithmeticError, match=f"failed to self-converge at k={k}, t=32.0"):
        dispersive_bound(EstimateSweep(estimates_field), k, 32.0)


def test_sweep_does_per_field_and_per_band_work_once(estimates_field, monkeypatch):
    # the estimates workload's sweep: 9 bands x 2 times.  Before rows shared a
    # sweep it read the continuum coefficients 36 times and took the d/dxi
    # norm 16 times, once per case 2-4 row
    counts = {"coeffs": 0, "frequencies": 0, "dxi_l2": 0, "rows": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(SpectralField, "continuum_coeffs", property(counted("coeffs", SpectralField.continuum_coeffs.fget)))
    monkeypatch.setattr(Grid, "frequencies", property(counted("frequencies", Grid.frequencies.fget)))
    monkeypatch.setattr(linear_flow.diagnostics, "dxi_l2", counted("dxi_l2", dxi_l2))
    monkeypatch.setattr(linear_flow, "dispersive_bound", counted("rows", dispersive_bound))
    bands, times = range(-3, 6), [16.0, 32.0]
    rows = verify_dispersive_estimate(estimates_field, bands, times)
    assert len(rows) == 18
    banded = sum(any(classify_case(k, t) in (2, 3, 4) for t in times) for k in bands)
    assert banded == 8  # k = 5 is case 1 at both times
    assert (counts["coeffs"], counts["dxi_l2"], counts["rows"]) == (1, banded, 18)
    # one for the sweep, one if the Sobolev weight of this grid is not cached yet
    assert 1 <= counts["frequencies"] <= 2


def _held_by(obj):
    """Every value reachable from an object's attributes through dicts, lists and tuples."""
    stack, seen = list(vars(obj).values()), []
    while stack:
        v = stack.pop()
        seen.append(v)
        if isinstance(v, dict):
            stack += v.values()
        elif isinstance(v, (list, tuple)):
            stack += v
    return seen


def test_sweep_keeps_no_reference_to_its_profile():
    field = solver.gaussian_data(Grid(2**10, 64.0), 1.0, 0.5, time=0.0)
    ref = weakref.ref(field)
    sweep = EstimateSweep(field)
    del field
    assert ref() is None
    assert sweep.grid == Grid(2**10, 64.0)


def test_verify_dispersive_estimate_frees_the_field_before_its_first_row(monkeypatch):
    # a caller that hands the sweep its profile and keeps none, as verify-estimates does
    refs, alive = [], []

    def profile():
        field = solver.gaussian_data(Grid(2**10, 64.0), 1.0, 0.5, time=0.0)
        refs.append(weakref.ref(field))
        return field

    def row(sweep, k, t):
        alive.append(refs[0]() is not None)
        return dispersive_bound(sweep, k, t)

    monkeypatch.setattr(linear_flow, "dispersive_bound", row)
    rows = verify_dispersive_estimate(profile(), [0, 1], [16.0])  # outside an assert, which would keep the argument
    assert len(rows) == 2
    assert alive == [False, False]


def test_sweep_holds_fhat_and_xi_and_no_other_spectrum_sized_array(estimates_field):
    # after a case 1, 3 and 4 row each, every band's work and the H^s norm are done
    sweep = EstimateSweep(estimates_field)
    for k, t in [(5, 16.0), (0, 16.0), (-3, 32.0)]:
        dispersive_bound(sweep, k, t)
    assert {classify_case(k, t) for k, t in [(5, 16.0), (0, 16.0), (-3, 32.0)]} == {1, 3, 4}
    held = _held_by(sweep)
    assert not any(isinstance(v, SpectralField) for v in held)
    big = [v for v in held if isinstance(v, np.ndarray) and v.size >= estimates_field.coeffs.size]
    assert sorted(map(id, big)) == sorted(map(id, (sweep.fhat, sweep.xi)))
    # neither is a view that keeps a larger array alive
    assert sweep.fhat.base is None and sweep.xi.base is None


def test_one_estimates_row_allocates_below_its_measured_peak(estimates_field):
    # the k = 5, t = 16 row (case 1: the H^s norm, then the quadrature) on the
    # estimates grid.  Measured at 1.04 MB, against 1.22 MB when the
    # Bluestein convolution held four arrays of transform length; the H^s
    # weight is cached once per process and is not the row's
    sweep = EstimateSweep(estimates_field)
    diagnostics.sobolev_weight(sweep.grid, sweep.s)
    tracemalloc.start()
    try:
        dispersive_bound(sweep, 5, 16.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.1 * estimates_field.coeffs.nbytes
