"""Smooth dyadic bump functions: the Littlewood-Paley cutoffs.

The base cutoff phi is 1 on [-1, 1], 0 outside [-2, 2], and uses the standard
smooth transition h(s) = g(s) / (g(s) + g(1 - s)) with g(s) = exp(-1/s) on the
shoulder, so phi is C-infinity with phi(1) = 1 and phi(2) = 0 exactly.  The
annular cutoff psi_k is the difference phi_le_k(k) - phi_le_k(k - 1) of
low-pass cutoffs, which makes the dyadic partition of unity telescope exactly
in floating point.
"""

from __future__ import annotations

import numpy as np


def _smooth_step(s):
    """C-infinity monotone step: 0 for s <= 0, 1 for s >= 1."""
    s = np.asarray(s, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g = np.where(s > 0.0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        g1 = np.where(1.0 - s > 0.0, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    return g / (g + g1)


def bump(xi):
    """Base low-pass profile: 1 on [-1, 1], supported in [-2, 2]."""
    xi = np.asarray(xi, dtype=float)
    return _smooth_step(2.0 - np.abs(xi))


def phi_le_k(k: int, xi):
    """Low-pass cutoff at dyadic scale k: phi(xi / 2^k)."""
    return bump(np.asarray(xi, dtype=float) / 2.0**k)


def psi_k(k: int, xi):
    """Annular cutoff at dyadic scale k, supported in {2^(k-1) <= |xi| <= 2^(k+1)}."""
    return phi_le_k(k, xi) - phi_le_k(k - 1, xi)
