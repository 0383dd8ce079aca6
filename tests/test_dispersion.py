import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gbbmlab.dispersion import (
    SQRT3,
    omega,
    omega_prime,
    omega_second,
    reflection,
    solve_group_velocity,
)


def test_omega_values():
    assert omega(0.0) == 0.0
    assert omega(1.0) == 0.5
    assert omega(-1.0) == -0.5
    assert omega(SQRT3) == pytest.approx(SQRT3 / 4.0, rel=1e-15)


def test_omega_prime_landmarks():
    assert omega_prime(0.0) == 1.0
    assert omega_prime(1.0) == 0.0
    assert omega_prime(-1.0) == 0.0
    assert omega_prime(SQRT3) == pytest.approx(-0.125, rel=1e-15)


def test_omega_second_zeros():
    assert omega_second(0.0) == 0.0
    assert abs(omega_second(SQRT3)) < 1e-16
    assert abs(omega_second(-SQRT3)) < 1e-16


def test_derivatives_match_finite_differences():
    xs = np.linspace(-8.0, 8.0, 401)
    h = 1e-6
    fd1 = (omega(xs + h) - omega(xs - h)) / (2 * h)
    assert np.max(np.abs(fd1 - omega_prime(xs))) < 1e-9
    fd2 = (omega_prime(xs + h) - omega_prime(xs - h)) / (2 * h)
    assert np.max(np.abs(fd2 - omega_second(xs))) < 1e-8


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_omega_odd(xi):
    assert omega(-xi) == -omega(xi)


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_omega_prime_even(xi):
    assert omega_prime(-xi) == omega_prime(xi)


@given(st.floats(min_value=1.05, max_value=1e4))
def test_reflection_involution(eta):
    r = reflection(eta)
    # conditioning degrades when either frequency is near the asymptote at
    # 1 (where the other is large); the round trip amplifies roundoff by
    # roughly the cube of the larger frequency
    assert abs(reflection(r) - eta) <= 1e-14 * max(eta, r) ** 3 + 1e-12 * eta


@given(st.floats(min_value=1.0 + 1e-6, max_value=1e6))
def test_reflection_shares_group_velocity(eta):
    assert omega_prime(reflection(eta)) == pytest.approx(
        float(omega_prime(eta)), abs=1e-12
    )


def test_reflection_fixed_points_and_sign():
    assert reflection(SQRT3) == pytest.approx(SQRT3, rel=1e-15)
    assert reflection(-SQRT3) == pytest.approx(-SQRT3, rel=1e-15)
    assert reflection(-2.0) == -reflection(2.0)


def test_reflection_rejects_core_interval():
    for bad in (0.0, 1.0, -1.0, 0.999, -0.5, 1.0 + 1e-13):
        with pytest.raises(ValueError):
            reflection(bad)
    with pytest.raises(ValueError):
        reflection(np.array([2.0, 0.5]))


def test_reflection_scalar_returns_float():
    assert isinstance(reflection(2.0), float)


def test_group_velocity_census_empty():
    assert solve_group_velocity(-0.2) == ()
    assert solve_group_velocity(1.5) == ()


def test_group_velocity_census_boundaries():
    assert solve_group_velocity(1.0) == (0.0,)
    assert solve_group_velocity(0.0) == (-1.0, 1.0)
    lo = solve_group_velocity(-0.125)
    assert lo == pytest.approx((-SQRT3, SQRT3), rel=1e-15)


def test_group_velocity_two_roots():
    sols = solve_group_velocity(0.5)
    assert len(sols) == 2
    assert sols[0] == -sols[1]
    # oracle: omega'(xi) = 1/2 at xi^2 = (-2 + sqrt(5)) / 1... solve directly
    for s in sols:
        assert omega_prime(s) == pytest.approx(0.5, abs=1e-12)


def test_group_velocity_four_roots():
    sols = solve_group_velocity(-0.06)
    assert len(sols) == 4
    assert sols == tuple(sorted(sols))
    for s in sols:
        assert omega_prime(s) == pytest.approx(-0.06, abs=1e-10)
    # the outer pair is the reflection of the inner pair
    inner = sols[2]
    assert reflection(inner) == pytest.approx(sols[3], rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=0.999))
def test_group_velocity_positive_range(c):
    sols = solve_group_velocity(c)
    assert len(sols) == 2
    assert all(abs(s) < 1.0 for s in sols)


@given(st.floats(min_value=-0.1249, max_value=-1e-4))
def test_group_velocity_negative_range(c):
    sols = solve_group_velocity(c)
    assert len(sols) == 4
    assert all(1.0 < abs(s) for s in sols)


def test_group_velocity_near_zero_continuity():
    # the stable closed form has a removable singularity at c = 0: the inner
    # root pair tends to +-1 from either side
    sols = solve_group_velocity(1e-14)
    assert abs(sols[1] - 1.0) < 1e-6
    sols = solve_group_velocity(-1e-14)
    assert len(sols) == 4
    assert abs(sols[2] - 1.0) < 1e-6
    assert sols[3] > 1e6  # outer pair escapes to infinity


def test_group_velocity_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_group_velocity(float("nan"))
    with pytest.raises(ValueError):
        solve_group_velocity(0.5, tol=0.0)


def test_group_velocity_refuses_an_overflowing_root():
    # at c = -5e-324 the outer pair, about 1/|c|, overflows to inf, where omega' is NaN
    with pytest.raises(ArithmeticError):
        solve_group_velocity(-5e-324)


def _reference_group_velocity(c: float, tol: float = 1e-10) -> tuple[float, ...]:
    """The census as a chain of cases: empty outside [-1/8, 1], the exact ends
    c = 1, 0 and -1/8 by value, and otherwise +-xi* from the stable closed form,
    with the outer pair from the quadratic's second root for c < 0."""
    if not math.isfinite(c):
        raise ValueError("group velocity must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if c < -0.125 or c > 1.0:
        sols: tuple[float, ...] = ()
    elif c == 1.0:
        sols = (0.0,)
    elif c == 0.0:
        sols = (-1.0, 1.0)
    elif c == -0.125:
        sols = (-SQRT3, SQRT3)
    else:
        xs = math.sqrt(2.0 * (1.0 - c) / (math.sqrt(8.0 * c + 1.0) + 2.0 * c + 1.0))
        if c > 0.0:
            sols = (-xs, xs)
        else:
            rs = math.sqrt((-(2.0 * c + 1.0) - math.sqrt(8.0 * c + 1.0)) / (2.0 * c))
            sols = tuple(sorted((-xs, xs, -rs, rs)))
    for s in sols:
        if abs(float(omega_prime(s)) - c) >= tol:
            raise ArithmeticError(f"group-velocity inversion failed at c={c}: xi={s}")
    return sols


def _outcome(fn, c):
    """The roots' bytes, signs of zero included, or the type of the exception raised."""
    try:
        return np.array(fn(c), dtype=float).tobytes()
    except Exception as e:  # noqa: BLE001 - the type is the outcome compared
        return type(e)


# on (-1e-150, 0) omega' of the outer root, ~1/|c|, overflows with a RuntimeWarning in both
@settings(max_examples=200, deadline=1000)
@given(st.one_of(st.floats(-0.2, -1e-150), st.floats(0.0, 1.2)))
@example(-0.125)
@example(math.nextafter(-0.125, 0.0))
@example(0.0)
@example(-0.0)
@example(1e-14)
@example(1.0)
@example(math.nextafter(1.0, 0.0))
def test_group_velocity_closed_form_is_the_chain_of_cases(c):
    assert _outcome(solve_group_velocity, c) == _outcome(_reference_group_velocity, c)
