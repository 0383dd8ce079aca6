import numpy as np

from gbbmlab.littlewood_paley import bump, phi_le_k, psi_k


def test_bump_plateau_and_support():
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.all(bump(xs) == 1.0)
    xs = np.linspace(2.0, 10.0, 101)
    assert np.all(bump(xs) == 0.0)
    assert np.all(bump(-xs) == 0.0)


def test_bump_monotone_on_shoulder():
    xs = np.linspace(1.0, 2.0, 500)
    vals = bump(xs)
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_bump_even():
    xs = np.linspace(-3.0, 3.0, 601)
    assert np.array_equal(bump(xs), bump(-xs))


def test_annular_bump_support():
    xs = np.linspace(-0.5, 0.5, 101)
    assert np.all(psi_k(0, xs) == 0.0)
    assert np.all(psi_k(0, np.linspace(2.0, 8.0, 50)) == 0.0)
    assert psi_k(0, 1.0) == 1.0
    assert psi_k(0, -1.0) == 1.0


def test_partition_of_unity_telescopes():
    xs = np.concatenate([np.geomspace(1e-4, 500.0, 4000), [0.0]])
    xs = np.concatenate([xs, -xs])
    total = phi_le_k(-16, xs).astype(float)
    for k in range(-15, 11):
        total = total + psi_k(k, xs)
    # everything with |xi| <= 2^10 must be covered exactly
    covered = np.abs(xs) <= 2.0**10
    assert np.max(np.abs(total[covered] - 1.0)) < 1e-13


def test_psi_k_is_scaled_annulus():
    xs = np.linspace(-70.0, 70.0, 2001)
    for k in (-2, 0, 3, 5):
        assert np.allclose(psi_k(k, xs), psi_k(0, xs / 2.0**k), atol=1e-15)
