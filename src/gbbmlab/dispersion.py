"""Closed-form linBBM dispersion relation and its group-velocity geometry.

All functions accept scalars or numpy arrays and are vectorized.  The
dispersion relation is omega(xi) = xi / (1 + xi^2); its group velocity has a
global max of 1 at xi = 0, zeros at xi = +-1, and a global min of -1/8 at the
inflection frequencies xi = +-sqrt(3).
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)

# reflection() is undefined on |xi| <= 1; reject anything inside this guard
# band instead of returning huge values near the asymptote.
REFLECTION_MARGIN = 1e-12


def omega(xi):
    """Dispersion relation xi / (1 + xi^2).  Odd, bounded by 1/2."""
    xi = np.asarray(xi, dtype=float)
    return xi / (1.0 + xi * xi)


def omega_prime(xi):
    """Group velocity (1 - xi^2) / (1 + xi^2)^2.  Even, range [-1/8, 1]."""
    xi = np.asarray(xi, dtype=float)
    q = 1.0 + xi * xi
    return (1.0 - xi * xi) / (q * q)


def omega_second(xi):
    """Second derivative 2 xi (xi^2 - 3) / (1 + xi^2)^3.

    Odd, with zeros exactly at 0 and +-sqrt(3).  Evaluated from the
    closed-form rational expression so the inflection zeros are exact.
    """
    xi = np.asarray(xi, dtype=float)
    q = 1.0 + xi * xi
    return 2.0 * xi * (xi * xi - 3.0) / (q * q * q)


def reflection(xi):
    """The partner frequency sharing a group velocity with xi.

    r(xi) = sgn(xi) * sqrt((xi^2 + 3) / (xi^2 - 1)); an involution on
    {|xi| > 1} with fixed points +-sqrt(3).

    Raises ValueError for |xi| <= 1 + 1e-12 (vertical asymptote at |xi| = 1).
    """
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(np.abs(xi_arr) <= 1.0 + REFLECTION_MARGIN):
        raise ValueError("reflection is undefined for |xi| <= 1")
    out = np.sign(xi_arr) * np.sqrt((xi_arr * xi_arr + 3.0) / (xi_arr * xi_arr - 1.0))
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out)
    return out


def solve_group_velocity(c: float, tol: float = 1e-10) -> tuple[float, ...]:
    """All solutions of omega_prime(xi) = c, sorted ascending.

    omega_prime(xi) = c is the quadratic c X^2 + (2c + 1) X + (c - 1) = 0 in
    X = xi^2, with discriminant 8c + 1, so no root lies outside [-1/8, 1].
    The inner pair +-xi* comes from the root (-(2c+1) + sqrt(8c+1)) / (2c),
    which is 0/0 at c = 0; multiplied by its conjugate it is the stable
    xi*^2 = 2(1 - c) / (sqrt(8c+1) + 2c + 1).  For c < 0 the outer pair
    +-r(xi*) comes from the other root, which has no cancellation there
    (unlike r(xi*), whose argument nears the asymptote as c -> 0-).  Equal
    roots merge by value: the two pairs at +-sqrt(3) for c = -1/8, and +-0
    for c = 1.  The census: {0} for c = 1, two roots for c in [0, 1), four
    for c in (-1/8, 0), two for c = -1/8, none outside [-1/8, 1].

    Every returned value is finite and satisfies |omega_prime(xi) - c| < tol;
    ArithmeticError otherwise (the outer pair overflows for negative subnormal c).
    """
    if not math.isfinite(c):
        raise ValueError("group velocity must be finite")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not -0.125 <= c <= 1.0:
        return ()
    disc = math.sqrt(8.0 * c + 1.0)
    squares = [2.0 * (1.0 - c) / (disc + 2.0 * c + 1.0)]
    if c < 0.0:
        squares.append((-(2.0 * c + 1.0) - disc) / (2.0 * c))
    sols = tuple(sorted({s for x2 in squares for s in (math.sqrt(x2), -math.sqrt(x2))}))
    for s in sols:
        if not math.isfinite(s) or abs(float(omega_prime(s)) - c) >= tol:
            raise ArithmeticError(
                f"group-velocity inversion failed at c={c}: xi={s}"
            )
    return sols
