"""End-to-end acceptance checks for the laboratory.

Each numbered criterion prints exactly one PASS/FAIL line.  The nonlinear
long-horizon checks share a single module-scoped evolution run, which
takes most of the suite's few minutes.
"""

import math

import numpy as np
import pytest

from gbbmlab import linear_flow as LF
from gbbmlab import solver as S
from gbbmlab.diagnostics import Recorder, bootstrap_report, fit_decay, scattering_test
from gbbmlab.dispersion import SQRT3, omega_prime, omega_second, reflection
from gbbmlab.littlewood_paley import phi_le_k, psi_k
from gbbmlab.resonance import (
    PhasePoint,
    anomalous_resonance,
    enumerate_resonances,
    find_roots,
    phase,
    phase_gradient,
)
from gbbmlab.spectral import Grid, SpectralField


def check(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. Resonance census
# ---------------------------------------------------------------------------

def test_criterion_1_resonance_census():
    ok = True
    detail = []
    for pt in (PhasePoint(0.0, 0.0, 0.0, 0.0), PhasePoint(-SQRT3, SQRT3, SQRT3, 0.0)):
        ok &= abs(phase(pt)) < 1e-9 and float(np.linalg.norm(phase_gradient(pt))) < 1e-9

    recs = {r.label: r for r in enumerate_resonances()}
    for label in ("line", "curve"):
        etas = np.concatenate(
            [np.linspace(-20.0, -1.3, 50), np.linspace(1.3, 20.0, 50)]
        ) if label == "curve" else np.linspace(-20.0, 20.0, 100)
        for eta in etas:
            p = recs[label].sampler(float(eta))
            if abs(phase(p)) >= 1e-9 or float(np.linalg.norm(phase_gradient(p))) >= 1e-9:
                ok = False
                detail.append(f"{label} residual at eta={eta}")
                break

    anom = anomalous_resonance().representative_points[0]
    ok &= 5.07 <= anom.eta1 <= 5.13
    ok &= 14.1 <= anom.xi <= 14.3
    ok &= abs(anom.xi - (3.0 * anom.eta1 - reflection(anom.eta1))) < 1e-9
    check(1, "resonance census", ok, "; ".join(detail) or f"eta0={anom.eta1:.6f} xi0={anom.xi:.6f}")


# ---------------------------------------------------------------------------
# 2. Root censuses of the scalar phase functions
# ---------------------------------------------------------------------------

def test_criterion_2_root_censuses():
    ok = True
    r_td = find_roots("triple-diff", (1.25, 50.0))
    ok &= len(r_td) == 1

    r_sd = find_roots("single-diff", (1.05, 50.0))
    r_sd_neg = find_roots("single-diff", (-50.0, -1.05))
    ok &= len(r_sd) == 1 and abs(r_sd[0] - SQRT3) < 1e-9
    ok &= len(r_sd_neg) == 1 and abs(r_sd_neg[0] + SQRT3) < 1e-9

    ok &= find_roots("single-sum", (1.1, 50.0)) == []

    r_dd = find_roots("double-diff", (1.05, 50.0))
    r_dd_neg = find_roots("double-diff", (-50.0, -1.05))
    ok &= len(r_dd) == 1 and abs(r_dd[0] - SQRT3) < 1e-9
    ok &= len(r_dd_neg) == 1 and abs(r_dd_neg[0] + SQRT3) < 1e-9
    check(2, "root censuses", ok, f"triple-diff root at {r_td[0]:.9f}" if r_td else "no root")


# ---------------------------------------------------------------------------
# 3. Property suites: symmetries, inequality bands, partition, gradients
# ---------------------------------------------------------------------------

def test_criterion_3_property_suites():
    ok = True
    detail = []
    rng = np.random.default_rng(7)

    xi = rng.uniform(-30.0, 30.0, 10_000)
    ok &= bool(np.max(np.abs(omega_prime(-xi) - omega_prime(xi))) < 1e-15)

    # involution on a well-conditioned range
    eta = rng.uniform(1.2, 20.0, 10_000)
    rr = np.array([reflection(reflection(e)) for e in eta])
    if np.max(np.abs(rr - eta)) >= 1e-12:
        ok = False
        detail.append("involution")

    # far-field group velocity band
    far = np.concatenate([rng.uniform(8.0, 1000.0, 5000), rng.uniform(-1000.0, -8.0, 5000)])
    gv = np.abs(omega_prime(far))
    if not (np.all(gv >= (1.0 / 9.0) * far**-2.0) and np.all(gv <= 2.0 * far**-2.0)):
        ok = False
        detail.append("far-field omega'")

    # far-field curvature band
    curv = np.abs(omega_second(far))
    lo, hi = 2.0**-6 * np.abs(far) ** -3.0, 2.0**3 * np.abs(far) ** -3.0
    if not (np.all(curv >= lo) and np.all(curv <= hi)):
        ok = False
        detail.append("far-field omega''")

    # Taylor band around the inflection frequency
    mid = rng.uniform(1.5, 2.0, 10_000)
    dev = np.abs(omega_prime(mid) + 0.125)
    q = (mid - SQRT3) ** 2
    if not (np.all(dev >= 2.0**-5 * q) and np.all(dev <= 2.0**-2 * q)):
        ok = False
        detail.append("inflection Taylor band")

    # dyadic partition of unity
    grid_xi = np.linspace(-60.0, 60.0, 4001)
    total = phi_le_k(0, grid_xi) + sum(psi_k(k, grid_xi) for k in range(1, 8))
    inside = np.abs(grid_xi) <= 2.0**7
    if np.max(np.abs(total[inside] - 1.0)) >= 1e-13:
        ok = False
        detail.append("partition of unity")

    # gradient of the interaction phase vs central differences
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        e1, e2, e3, x = rng.uniform(-5.0, 5.0, 4)
        g = phase_gradient(PhasePoint(e1, e2, e3, x))
        fd = np.array(
            [
                phase(PhasePoint(e1 + h, e2, e3, x)) - phase(PhasePoint(e1 - h, e2, e3, x)),
                phase(PhasePoint(e1, e2 + h, e3, x)) - phase(PhasePoint(e1, e2 - h, e3, x)),
                phase(PhasePoint(e1, e2, e3 + h, x)) - phase(PhasePoint(e1, e2, e3 - h, x)),
            ]
        ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(g - fd))))
    if worst >= 1e-6:
        ok = False
        detail.append(f"gradient fd {worst:.2e}")

    check(3, "property suites", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 4. Linear dispersive decay
# ---------------------------------------------------------------------------

def test_criterion_4_linear_decay():
    ok = True
    detail = []

    big = Grid(2**18, 9000.0)
    gauss = SpectralField.from_function(big, lambda x: np.exp(-x * x / (2.0 * 0.25)))
    pts = []
    t = 100.0
    while t <= 10000.0 * (1 + 1e-9):
        pts.append((t, LF.aggregate_sup_norm(gauss, t)))
        t *= 2.0
    fit_g = fit_decay(pts)
    if abs(fit_g.exponent + 1.0 / 3.0) > 0.05:
        ok = False
    detail.append(f"gaussian {fit_g.exponent:.3f}")

    band_grid = Grid(2**16, 256.0)
    sigma = 2.0**-4 / 2.0
    spike = SpectralField.from_function(band_grid, lambda x: np.exp(-x * x / (2.0 * sigma * sigma)))
    times_b = [400.0 * 2.0**j for j in range(6)]  # 400 ... 12800
    pts_b = [(r.t, r.lhs) for r in LF.verify_dispersive_estimate(spike, [4], times_b)]
    fit_b = fit_decay(pts_b)
    if abs(fit_b.exponent + 0.5) > 0.05:
        ok = False
    detail.append(f"band {fit_b.exponent:.3f}")

    wave = SpectralField.from_function(big, lambda x: np.exp(-x * x / 2.0) * np.cos(SQRT3 * x))
    T = 1e4
    u = np.abs(LF.propagate_linear(wave, T).physical())
    x_max = float(big.points[int(np.argmax(u))])
    rel = abs(x_max + T / 8.0) / (T / 8.0)
    if rel > 0.05:
        ok = False
    detail.append(f"ray err {rel:.4f}")

    check(4, "linear dispersive decay", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 5. Nonlinear solver correctness
# ---------------------------------------------------------------------------

def test_criterion_5_solver_correctness():
    from gbbmlab.diagnostics import h1_norm

    ok = True
    detail = []

    g = Grid(2**12, 256.0)
    u0 = S.gaussian_data(g, 1e-2)
    out = S.evolve(u0, S.SolverConfig(dt=1e-2, t_end=100.0))
    drift = abs(h1_norm(out) - h1_norm(u0)) / h1_norm(u0)
    if drift >= 1e-8:
        ok = False
    detail.append(f"H1 drift {drift:.2e}")

    def run(dt):
        return S.evolve(u0, S.SolverConfig(dt=dt, t_end=2.0)).coeffs

    ref = run(0.0025)
    ratio = float(np.max(np.abs(run(0.05) - ref)) / np.max(np.abs(run(0.025) - ref)))
    if not 14.0 <= ratio <= 18.0:
        ok = False
    detail.append(f"order ratio {ratio:.2f}")

    fwd = S.evolve(u0, S.SolverConfig(dt=1e-2, t_end=11.0))
    back = S.evolve(fwd, S.SolverConfig(dt=-1e-2, t_end=1.0))
    rev = float(np.max(np.abs(back.coeffs - u0.coeffs)) / np.max(np.abs(u0.coeffs)))
    if rev >= 1e-8:
        ok = False
    detail.append(f"reversal {rev:.2e}")

    rng = np.random.default_rng(3)
    c = np.zeros(g.n_modes // 2 + 1, dtype=complex)
    m = g.n_modes // 16
    c[1 : m + 1] = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    q = S.quartic_hat(c, S.quartic_buffers(g.n_modes), np.empty_like(c))
    data_max = (m + 1) * g.dxi
    spurious = np.abs(g.frequencies) > 4.0 * data_max
    frac = float(np.sum(np.abs(q[spurious]) ** 2) / np.sum(np.abs(q) ** 2))
    if frac >= 1e-14:
        ok = False
    detail.append(f"spurious {frac:.2e}")

    check(5, "solver correctness", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 6. Nonlinear decay and scattering (long run, shared fixture)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def long_run():
    g = Grid(2**14, 2048.0)
    u0 = S.gaussian_data(g, 1e-2, width=0.5)
    rec = Recorder(s=10.0)
    S.evolve(u0, S.SolverConfig(dt=0.1, t_end=1000.0, record_stride=10), rec)
    return rec


@pytest.fixture(scope="module")
def epsilon_pair():
    diffs = {}
    g = Grid(2**12, 512.0)
    for eps in (1e-2, 5e-3):
        u0 = S.gaussian_data(g, eps, width=0.5)
        rec = Recorder()
        S.evolve(u0, S.SolverConfig(dt=0.1, t_end=128.0, record_stride=10), rec)
        rows = scattering_test(rec.profiles)
        # recorded times are exact lattice times, so each dyadic row is keyed by its integer time
        diffs[eps] = {round(t): dl for t, dl, _ in rows}
    return diffs


def test_criterion_6_nonlinear_decay(long_run, epsilon_pair):
    rec = long_run
    ok = True
    detail = []

    sup_fit = fit_decay([(s.t, s.sup_u) for s in rec.samples], window=(100.0, 1000.0))
    if abs(sup_fit.exponent + 1.0 / 3.0) > 0.07:
        ok = False
    detail.append(f"sup_u exp {sup_fit.exponent:.3f}")

    init = rec.samples[0].linf_fhat
    peak = max(s.linf_fhat for s in rec.samples) / init
    if peak > 2.0:
        ok = False
    detail.append(f"fhat peak {peak:.3f}x")

    rep = bootstrap_report(rec.samples)
    if rep["weighted_growth_exponent"] >= 1.0 / 6.0:
        ok = False
    detail.append(f"xf growth {rep['weighted_growth_exponent']:.3f}")

    rows = scattering_test(rec.profiles)
    late = [(t, dl) for t, dl, _ in rows if t >= 8.0]
    mono = all(b < a for (_, a), (_, b) in zip(late, late[1:]))
    diff_fit = fit_decay(late)
    if not mono or diff_fit.exponent >= 0.0:
        ok = False
    detail.append(f"diff mono={mono} exp {diff_fit.exponent:.2f}")

    ratio = epsilon_pair[1e-2][64] / epsilon_pair[5e-3][64]
    if not 16.0 * 0.7 <= ratio <= 16.0 * 1.3:
        ok = False
    detail.append(f"eps-halving {ratio:.2f}x")

    check(6, "nonlinear decay and scattering", ok, "; ".join(detail))


# ---------------------------------------------------------------------------
# 7. Estimate-ratio boundedness
# ---------------------------------------------------------------------------

def test_criterion_7_estimate_ratios():
    g = Grid(2**16, 512.0)
    width = 0.03125
    profile = SpectralField.from_function(g, lambda x: np.exp(-x * x / (2.0 * width * width)))
    times = [16.0 * 2.0**j for j in range(9)]
    rows = LF.verify_dispersive_estimate(profile, range(-3, 6), times)

    ok = all(math.isfinite(r.ratio) for r in rows)
    by_t: dict[float, float] = {}
    for r in rows:
        by_t[r.t] = max(by_t.get(r.t, 0.0), r.ratio)
    ts = sorted(by_t)
    median = float(np.median([by_t[t] for t in ts]))
    last = by_t[ts[-1]]
    if last > 1.2 * median:
        ok = False
    check(7, "estimate-ratio boundedness", ok, f"last/median = {last / median:.3f}")
