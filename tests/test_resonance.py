import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gbbmlab.dispersion import SQRT3, omega, omega_prime, reflection, solve_group_velocity
from gbbmlab.resonance import (
    ASYMPTOTE_MARGIN,
    ROOT_TOL,
    SCAN_SAMPLES_PER_UNIT,
    PhasePoint,
    SCALAR_PHASE_FUNCTIONS,
    anomalous_resonance,
    aux_phase,
    enumerate_resonances,
    find_roots,
    phase,
    phase_gradient,
    scalar_function,
    _bisect,
)


def test_phase_point_derived_frequency():
    p = PhasePoint(1.0, 2.0, 3.0, 10.0)
    assert p.eta4 == 4.0


def test_phase_symmetric_in_inputs():
    a = PhasePoint(0.3, 1.1, -0.7, 2.0)
    b = PhasePoint(1.1, -0.7, 0.3, 2.0)
    assert phase(a) == pytest.approx(phase(b), abs=1e-15)


def test_phase_zero_point():
    assert phase(PhasePoint(0.0, 0.0, 0.0, 0.0)) == 0.0


def test_phase_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(50):
        e1, e2, e3, xi = rng.uniform(-5, 5, size=4)
        p = PhasePoint(e1, e2, e3, xi)
        g = phase_gradient(p)
        fd = np.array(
            [
                (phase(PhasePoint(e1 + h, e2, e3, xi)) - phase(PhasePoint(e1 - h, e2, e3, xi))),
                (phase(PhasePoint(e1, e2 + h, e3, xi)) - phase(PhasePoint(e1, e2 - h, e3, xi))),
                (phase(PhasePoint(e1, e2, e3 + h, xi)) - phase(PhasePoint(e1, e2, e3 - h, xi))),
            ]
        ) / (2 * h)
        assert np.max(np.abs(g - fd)) < 1e-6


# ---------------------------------------------------------------------------
# Scalar phase functions: root censuses, frozen against independent scans
# ---------------------------------------------------------------------------

def test_scalar_function_rejects_core():
    with pytest.raises(ValueError):
        scalar_function("triple-sum", 0.5)


def test_triple_sum_has_no_roots():
    assert find_roots("triple-sum", (1.05, 50.0)) == []


def test_single_sum_has_no_roots():
    assert find_roots("single-sum", (1.05, 50.0)) == []


def test_double_sum_has_no_roots():
    assert find_roots("double-sum", (1.05, 50.0)) == []


def test_single_diff_roots_at_inflection():
    roots = find_roots("single-diff", (1.05, 50.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(SQRT3, abs=1e-9)
    roots2 = find_roots("single-diff", (-50.0, -1.05))
    assert len(roots2) == 1
    assert roots2[0] == pytest.approx(-SQRT3, abs=1e-9)


def test_double_diff_roots_at_inflection():
    roots = find_roots("double-diff", (1.05, 50.0))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(SQRT3, abs=1e-9)


def test_triple_diff_single_positive_root():
    roots = find_roots("triple-diff", (1.25, 50.0))
    assert len(roots) == 1
    # frozen oracle: bisection of the closed-form scalar function performed
    # independently at build time
    assert roots[0] == pytest.approx(5.076160678887, abs=1e-9)


def test_triple_diff_endpoint_signs():
    # positive just outside the asymptote region, negative at infinity
    assert scalar_function("triple-diff", 1.26) > 0
    assert scalar_function("triple-diff", 49.0) < 0


def test_scalar_functions_odd():
    etas = np.linspace(1.1, 30.0, 200)
    for name, fn in SCALAR_PHASE_FUNCTIONS.items():
        assert np.max(np.abs(fn(-etas) + fn(etas))) < 1e-15, name


def test_find_roots_validates():
    with pytest.raises(ValueError):
        find_roots("triple-sum", (5.0, 2.0))
    with pytest.raises(ValueError):
        find_roots("triple-sum", (1.05, 50.0), tol=0.0)


def test_find_roots_plain_function():
    roots = find_roots(lambda x: np.cos(x), (1.05, 7.0))
    assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2], abs=1e-10)


def _whole_scan_roots(fn, bracket, samples_per_unit):
    """find_roots' scan as one linspace per side of the dead zone, bisected
    from every sign change, plus the samples where fn is exactly 0."""
    a, b = bracket
    lo = 1.0 + ASYMPTOTE_MARGIN
    segments = [(a, min(b, -lo))] * (a < -lo) + [(max(a, lo), b)] * (b > lo)
    roots = set()
    for seg_a, seg_b in segments:
        xs = np.linspace(seg_a, seg_b, max(8, math.ceil((seg_b - seg_a) * samples_per_unit)) + 1)
        vals = fn(xs)
        for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
            roots.add(_bisect(fn, float(xs[i]), float(xs[i + 1]), ROOT_TOL))
        roots.update(float(x) for x in xs[vals == 0.0])
    return sorted(roots)


#: The census's scans, (bracket, samples per unit): the anomalous point's and
#: the implicit families' root notes, plus both sides of the dead zone at once.
_CENSUS_SCANS = [((4.0, 7.0), SCAN_SAMPLES_PER_UNIT), ((1.0 + 1e-3, 50.0), 2000), ((-50.0, 50.0), 2000)]


@pytest.mark.parametrize("name", sorted(SCALAR_PHASE_FUNCTIONS))
def test_blocked_scan_finds_the_whole_scans_roots(name):
    fn = SCALAR_PHASE_FUNCTIONS[name]
    for bracket, samples_per_unit in _CENSUS_SCANS:
        assert find_roots(fn, bracket, samples_per_unit=samples_per_unit) == _whole_scan_roots(
            fn, bracket, samples_per_unit
        ), (name, bracket)


def test_blocked_scan_samples_are_the_linspace():
    # the blocks share their end samples and together are bitwise the
    # whole scan's linspace, so each sign-change pair is the same two floats
    blocks = []

    def record(x):
        blocks.append(x.copy())
        return np.ones_like(x)

    find_roots(record, (1.1, 7.3), samples_per_unit=3001)  # where n step + a != b: the last sample is b
    assert len(blocks) > 2
    assert all(prev[-1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
    scan = np.concatenate([blocks[0]] + [blk[1:] for blk in blocks[1:]])
    assert np.array_equal(scan, np.linspace(1.1, 7.3, math.ceil((7.3 - 1.1) * 3001) + 1))


# ---------------------------------------------------------------------------
# Anomalous point and full census
# ---------------------------------------------------------------------------

def test_anomalous_resonance_location():
    rec = anomalous_resonance()
    p = rec.representative_points[0]
    assert 5.07 <= p.eta1 <= 5.13
    assert 14.1 <= p.xi <= 14.3
    assert p.xi == pytest.approx(3 * p.eta1 - reflection(p.eta1), rel=1e-12)
    assert rec.residual_phase < 1e-9
    assert rec.residual_gradient < 1e-9


def test_anomalous_negative_twin():
    rec = anomalous_resonance()
    q = rec.representative_points[1]
    assert abs(phase(q)) < 1e-9
    assert np.linalg.norm(phase_gradient(q)) < 1e-9


def test_census_classifications_hold():
    for rec in enumerate_resonances():
        if rec.classification in ("space", "space_time"):
            assert rec.residual_gradient < 1e-9, rec.label
        if rec.classification in ("time", "space_time"):
            assert rec.residual_phase < 1e-9, rec.label


def test_census_contains_required_manifolds():
    labels = {r.label for r in enumerate_resonances()}
    for needed in ("line", "curve", "origin-point", "inflection-point", "anomalous-point"):
        assert needed in labels


def test_census_space_only_point():
    # the equal-velocity configuration (1,1,1; 4) is a pure space resonance
    p = PhasePoint(1.0, 1.0, 1.0, 4.0)
    assert np.linalg.norm(phase_gradient(p)) < 1e-15
    assert abs(phase(p)) > 0.1


def test_census_line_samples():
    recs = {r.label: r for r in enumerate_resonances()}
    line = recs["line"]
    for eta in (0.1, 1.0, 3.7, -12.0):
        p = line.sampler(eta)
        assert abs(phase(p)) < 1e-12
        assert np.linalg.norm(phase_gradient(p)) < 1e-12


def test_census_curve_samples():
    recs = {r.label: r for r in enumerate_resonances()}
    curve = recs["curve"]
    for eta in (1.3, 2.0, 8.0, -4.4):
        p = curve.sampler(eta)
        assert abs(phase(p)) < 1e-10
        assert np.linalg.norm(phase_gradient(p)) < 1e-10


def test_census_symmetry_flags():
    recs = enumerate_resonances()
    assert any(r.symmetry_derived for r in recs)
    assert any(r.family == 3 for r in recs)


# ---------------------------------------------------------------------------
# Census completeness: sign/reflection patterns (n_eta, n_-eta, n_r, n_-r)
# ---------------------------------------------------------------------------

def _orbit(pattern):
    """Orbit of a pattern under negation and the swap eta <-> r(eta)."""
    a, b, c, d = pattern
    return frozenset({(a, b, c, d), (b, a, d, c), (c, d, a, b), (d, c, b, a)})


def _pattern(p):
    """Counts of eta1, -eta1, r(eta1), -r(eta1) among the four frequencies,
    with the basis taken from the group-velocity census: the four
    frequencies whose group velocity is omega'(eta1)."""
    roots = solve_group_velocity(float(omega_prime(p.eta1)))
    assert len(roots) == 4, p
    partner = max((x for x in roots if x * p.eta1 > 0), key=lambda x: abs(x - p.eta1))
    basis = np.array([p.eta1, -p.eta1, partner, -partner])
    counts = [0, 0, 0, 0]
    for e in (p.eta1, p.eta2, p.eta3, p.eta4):
        j = int(np.argmin(np.abs(basis - e)))
        assert abs(basis[j] - e) < 1e-9, p
        counts[j] += 1
    return tuple(counts)


def test_census_covers_every_sign_reflection_orbit():
    patterns = [p for p in itertools.product(range(5), repeat=4) if sum(p) == 4]
    orbits = {_orbit(p) for p in patterns}
    assert (len(patterns), len(orbits)) == (35, 11)
    recs = enumerate_resonances()
    # q = 2.5 is generic: q and q / 2 exceed 1, and none of q, r(q), q / 2 is sqrt(3)
    covered = {r.label: _orbit(_pattern(r.sampler(2.5))) for r in recs if r.sampler is not None}
    anomalous = next(r for r in recs if r.label == "anomalous-point")
    covered["anomalous-point"] = _orbit(_pattern(anomalous.representative_points[0]))
    assert set(covered.values()) == orbits
    # the phase a omega(eta) + b omega(r) - omega(a eta + b r) of a pattern
    # vanishes identically exactly when its signed counts a, b are both 0
    null_orbits = {o for o in orbits if all(n[0] == n[1] and n[2] == n[3] for n in o)}
    assert null_orbits == {covered[r.label] for r in recs if r.kind in ("line", "curve")}


def test_census_phase_vanishes_on_line_and_curve_only():
    # sample parameters away from the roots +-sqrt(3) and +-5.076 of the
    # scalar phases
    qs = (1.5, 2.5, 6.0, -4.0)
    for rec in enumerate_resonances():
        if rec.sampler is not None:
            vanishes = [abs(phase(rec.sampler(q))) < 1e-9 for q in qs]
            assert vanishes == [rec.kind in ("line", "curve")] * len(qs), rec.label


def test_implicit_families_certified_by_their_scalar_phase():
    etas = np.concatenate([np.linspace(-30.0, -1.1, 40), np.linspace(1.1, 30.0, 40)])
    implicit = [r for r in enumerate_resonances() if r.label.startswith("implicit-")]
    assert len(implicit) == 8
    for rec in implicit:
        fn = SCALAR_PHASE_FUNCTIONS[rec.label.removeprefix("implicit-").removesuffix("-permuted")]
        for eta in etas:
            assert abs(phase(rec.sampler(float(eta))) - float(fn(eta))) < 1e-12, (rec.label, eta)


def test_census_shape_matches_benchmark_reference():
    # order, labels and point counts of the census as the benchmark recorded
    # them; the benchmark's census check fails on any drift
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "quick-cli.json"
    reference = json.loads(path.read_text())["references"][0]["census"]
    shape = [
        [r.label, r.family, r.subfamily, r.kind, r.classification, len(r.representative_points)]
        for r in enumerate_resonances()
    ]
    assert shape == reference


@given(st.floats(min_value=-20.0, max_value=20.0))
def test_aux_phase_sqrt3_sign_symmetry(xi):
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1)):
        neg = tuple(-s for s in signs)
        a = float(aux_phase(neg, xi, SQRT3))
        b = -float(aux_phase(signs, -xi, SQRT3))
        assert a == pytest.approx(b, abs=1e-12)


def test_aux_phase_anomalous_vanishes_at_xi0():
    rec = anomalous_resonance()
    eta0 = rec.representative_points[0].eta1
    xi0 = rec.representative_points[0].xi
    assert abs(float(aux_phase((1, 1, 1), xi0, eta0))) < 1e-9
