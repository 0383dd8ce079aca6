"""Four-wave interaction phase, its critical points, and the resonance census.

The interaction phase for the quartic nonlinearity is

    phase(e1, e2, e3; xi) = -omega(xi) + omega(e1) + omega(e2) + omega(e3)
                            + omega(e4),   e4 = xi - e1 - e2 - e3.

Critical points in (e1, e2, e3) require all four frequencies to share a group
velocity, which by the group-velocity census means each |e_j| equals |e_1| or
|r(e_1)|.  Working through the sign/reflection configurations reduces every
candidate family to a scalar function of one frequency whose roots mark time
resonances; those scalar functions are collected in SCALAR_PHASE_FUNCTIONS
and root-found by dense scan plus bisection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dispersion import SQRT3, omega, omega_prime, reflection

# |r| blows up at |eta| = 1; implicit-family scans stay outside this margin.
ASYMPTOTE_MARGIN = 1e-6

# Residual tolerance for classifying a candidate, separate from the root
# tolerance: compositions through r lose digits near the asymptote.
CLASSIFY_TOL = 1e-9
ROOT_TOL = 1e-12

SCAN_SAMPLES_PER_UNIT = 10_000


@dataclass(frozen=True)
class PhasePoint:
    """A frequency quadruple (e1, e2, e3; xi); the fourth input frequency
    e4 = xi - e1 - e2 - e3 is derived."""

    eta1: float
    eta2: float
    eta3: float
    xi: float

    @property
    def eta4(self) -> float:
        return self.xi - self.eta1 - self.eta2 - self.eta3


def phase(p: PhasePoint) -> float:
    """Interaction phase at a quadruple; symmetric in (e1, e2, e3)."""
    return float(
        -omega(p.xi)
        + omega(p.eta1)
        + omega(p.eta2)
        + omega(p.eta3)
        + omega(p.eta4)
    )


def phase_gradient(p: PhasePoint) -> np.ndarray:
    """Gradient in (e1, e2, e3): component j is omega'(e_j) - omega'(e4)."""
    w4 = omega_prime(p.eta4)
    return np.array(
        [
            omega_prime(p.eta1) - w4,
            omega_prime(p.eta2) - w4,
            omega_prime(p.eta3) - w4,
        ]
    )


# ---------------------------------------------------------------------------
# Scalar phase-vanishing functions on {|eta| > 1}
# ---------------------------------------------------------------------------

def _triple_sum(eta):
    r = reflection(eta)
    return 3.0 * omega(eta) + omega(r) - omega(3.0 * eta + r)


def _triple_diff(eta):
    r = reflection(eta)
    return 3.0 * omega(eta) - omega(r) - omega(3.0 * eta - r)


def _single_diff(eta):
    r = reflection(eta)
    return -omega(eta) + omega(r) - omega(-eta + r)


def _single_sum(eta):
    r = reflection(eta)
    return -omega(eta) - omega(r) + omega(eta + r)


def _double_sum(eta):
    r = reflection(eta)
    return 2.0 * omega(eta) + 2.0 * omega(r) - omega(2.0 * eta + 2.0 * r)


def _double_diff(eta):
    r = reflection(eta)
    return 2.0 * omega(eta) - 2.0 * omega(r) - omega(2.0 * eta - 2.0 * r)


#: Phase restricted to each one-parameter critical family.  Keys name the
#: frequency combination fed to omega; values are vectorized callables
#: defined on {|eta| > 1}.
SCALAR_PHASE_FUNCTIONS: dict[str, Callable] = {
    "triple-sum": _triple_sum,      # family 3 eta + r(eta); no roots
    "triple-diff": _triple_diff,    # family 3 eta - r(eta); roots near +-5.08
    "single-diff": _single_diff,    # family -eta + r(eta); roots at +-sqrt(3)
    "single-sum": _single_sum,      # family eta + r(eta); no roots
    "double-sum": _double_sum,      # family 2(eta + r(eta)); no roots
    "double-diff": _double_diff,    # family 2(eta - r(eta)); roots at +-sqrt(3)
}


def scalar_function(name: str, eta):
    """Evaluate a registered scalar phase function; |eta| must exceed 1."""
    fn = SCALAR_PHASE_FUNCTIONS[name]
    eta_arr = np.asarray(eta, dtype=float)
    if np.any(np.abs(eta_arr) <= 1.0):
        raise ValueError("scalar phase functions are undefined for |eta| <= 1")
    return fn(eta_arr)


def _bisect(fn, a: float, b: float, tol: float) -> float:
    fa = fn(a)
    if fa == 0.0:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if abs(fm) < tol or (b - a) < 1e-15:
            return mid
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    return 0.5 * (a + b)


def find_roots(
    fn,
    bracket: tuple[float, float],
    tol: float = ROOT_TOL,
    samples_per_unit: int = SCAN_SAMPLES_PER_UNIT,
) -> list[float]:
    """Roots of a scalar function on a bracket, sorted ascending.

    Dense scan (samples_per_unit points per unit length; adjacent roots can
    be closer than a coarse scan resolves) followed by bisection refinement.
    The dead zone |eta| <= 1 + margin is excluded automatically.  An empty
    list is a valid result.
    """
    if isinstance(fn, str):
        fn = SCALAR_PHASE_FUNCTIONS[fn]
    a, b = bracket
    if b <= a:
        raise ValueError("empty bracket")
    if tol <= 0:
        raise ValueError("tol must be positive")
    lo = 1.0 + ASYMPTOTE_MARGIN
    segments = []
    if a < -lo:
        segments.append((a, min(b, -lo)))
    if b > lo:
        segments.append((max(a, lo), b))
    roots: list[float] = []
    for seg_a, seg_b in segments:
        n = max(8, int(math.ceil((seg_b - seg_a) * samples_per_unit)))
        xs = np.linspace(seg_a, seg_b, n + 1)
        vals = np.asarray(fn(xs))
        sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]
        for i in sign_change:
            roots.append(_bisect(fn, float(xs[i]), float(xs[i + 1]), tol))
        exact = np.nonzero(vals == 0.0)[0]
        roots.extend(float(xs[i]) for i in exact)
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# Auxiliary phases near the degenerate and anomalous frequencies
# ---------------------------------------------------------------------------

def aux_phase_sqrt3(signs: tuple[int, int, int], xi):
    """Leading-order phase when all three input frequencies sit at
    sigma_j * sqrt(3):  (sqrt(3)/4) sum(sigma) - omega(xi)
    + omega(xi - sum(sigma) sqrt(3)).

    Satisfies aux_phase_sqrt3(-signs, xi) = -aux_phase_sqrt3(signs, -xi).
    """
    s = sum(signs)
    xi = np.asarray(xi, dtype=float)
    return SQRT3 / 4.0 * s - omega(xi) + omega(xi - s * SQRT3)


def aux_phase_anomalous(signs: tuple[int, int, int], xi, eta0: float):
    """Leading-order phase when all three input frequencies sit at
    sigma_j * eta0:  -omega(xi) + omega(xi - sum(sigma) eta0)
    + sum(sigma) omega(eta0)."""
    s = sum(signs)
    xi = np.asarray(xi, dtype=float)
    return -omega(xi) + omega(xi - s * eta0) + s * omega(eta0)


# ---------------------------------------------------------------------------
# Census records
# ---------------------------------------------------------------------------

@dataclass
class ResonanceRecord:
    """A located critical point or manifold of the interaction phase."""

    label: str
    family: int
    subfamily: str
    kind: str  # "point" | "line" | "curve" | "implicit_family"
    classification: str  # "space" | "time" | "space_time"
    representative_points: list[PhasePoint]
    residual_phase: float
    residual_gradient: float
    symmetry_derived: bool = False
    #: maps a manifold parameter to a PhasePoint (None for isolated points)
    sampler: Callable[[float], PhasePoint] | None = None
    notes: str = ""

    def consistent(self, tol: float = CLASSIFY_TOL) -> bool:
        if self.classification in ("space", "space_time"):
            if self.residual_gradient >= tol:
                return False
        if self.classification in ("time", "space_time"):
            if self.residual_phase >= tol:
                return False
        return True


def _record(label, family, subfamily, kind, classification, sampler, params, **extra) -> ResonanceRecord:
    """A census record whose representative points are sampler(p) for each
    parameter p (the parameters are the points themselves when sampler is
    None), with the worst phase and gradient residuals over those points."""
    pts = list(params) if sampler is None else [sampler(p) for p in params]
    return ResonanceRecord(
        label=label,
        family=family,
        subfamily=subfamily,
        kind=kind,
        classification=classification,
        representative_points=pts,
        residual_phase=max(abs(phase(p)) for p in pts),
        residual_gradient=max(float(np.linalg.norm(phase_gradient(p))) for p in pts),
        sampler=sampler,
        **extra,
    )


def anomalous_resonance(tol: float = CLASSIFY_TOL) -> ResonanceRecord:
    """The isolated space-time resonance (eta0, eta0, eta0; xi0) with
    xi0 = 3 eta0 - r(eta0), found by root-finding the triple-diff scalar
    phase on [4, 7]."""
    roots = find_roots("triple-diff", (4.0, 7.0), tol=ROOT_TOL)
    if len(roots) != 1:
        raise ArithmeticError(
            f"expected one positive root of the triple-diff phase on [4, 7], got {roots}"
        )
    eta0 = roots[0]
    xi0 = 3.0 * eta0 - reflection(eta0)
    rec = _record(
        "anomalous-point",
        1,
        "equal-signs, partner 3*eta - r(eta)",
        "point",
        "space_time",
        None,
        [PhasePoint(eta0, eta0, eta0, xi0), PhasePoint(-eta0, -eta0, -eta0, -xi0)],
    )
    if not rec.consistent(tol):
        raise ArithmeticError("anomalous resonance residuals exceed tolerance")
    return rec


def _line_sampler(sign_pos: int) -> Callable[[float], PhasePoint]:
    def sample(eta: float) -> PhasePoint:
        etas = [eta, eta, eta]
        etas[sign_pos] = -eta
        return PhasePoint(etas[0], etas[1], etas[2], 0.0)

    return sample


def _curve_sampler(permuted: bool) -> Callable[[float], PhasePoint]:
    def sample(eta: float) -> PhasePoint:
        r = reflection(eta)
        if permuted:
            return PhasePoint(eta, -eta, -r, 0.0)
        return PhasePoint(eta, r, -r, 0.0)

    return sample


def _swapped(sampler: Callable[[float], PhasePoint]) -> Callable[[float], PhasePoint]:
    """The sampler with input slots 1 and 3 exchanged."""

    def sample(p: float) -> PhasePoint:
        pt = sampler(p)
        return PhasePoint(pt.eta3, pt.eta2, pt.eta1, pt.xi)

    return sample


#: Pure-space families parametrized by the output frequency xi:
#: (label, family, subfamily, sampler(xi)).
_SPACE_FAMILIES = (
    ("space-quarter", 1, "(xi/4, xi/4, xi/4)", lambda xi: PhasePoint(xi / 4.0, xi / 4.0, xi / 4.0, xi)),
    ("space-half", 1, "(xi/2, xi/2, xi/2)", lambda xi: PhasePoint(xi / 2.0, xi / 2.0, xi / 2.0, xi)),
    ("space-half-mixed", 1, "(-xi/2, xi/2, xi/2)", lambda xi: PhasePoint(-xi / 2.0, xi / 2.0, xi / 2.0, xi)),
    ("space-half-reflected", 2, "(xi/2, xi/2, r(xi/2))",
     lambda xi: PhasePoint(xi / 2.0, xi / 2.0, reflection(xi / 2.0), xi)),
    ("space-half-antireflected", 2, "(xi/2, xi/2, -r(xi/2))",
     lambda xi: PhasePoint(xi / 2.0, xi / 2.0, -reflection(xi / 2.0), xi)),
    ("space-reflected-pair", 2, "(-r(xi/2), r(xi/2), xi/2)",
     lambda xi: PhasePoint(-reflection(xi / 2.0), reflection(xi / 2.0), xi / 2.0, xi)),
)

#: Sample xi values per family; family 2 needs |xi/2| > 1 for r(xi/2).
_SPACE_XIS = {1: (1.0, 4.0, -3.0), 2: (3.0, 5.0, -4.0)}

#: Implicit one-parameter space families (eta is the parameter; xi follows):
#: (label, family, constraint, sampler(eta), scalar phase certifying them).
_IMPLICIT_FAMILIES = (
    ("implicit-triple-sum", 1, "3 eta + r(eta) = xi",
     lambda eta: PhasePoint(eta, eta, eta, 3.0 * eta + reflection(eta)), "triple-sum"),
    ("implicit-triple-diff", 1, "3 eta - r(eta) = xi",
     lambda eta: PhasePoint(eta, eta, eta, 3.0 * eta - reflection(eta)), "triple-diff"),
    ("implicit-single-diff", 1, "-eta + r(eta) = xi",
     lambda eta: PhasePoint(eta, -eta, -eta, -eta + reflection(eta)), "single-diff"),
    ("implicit-single-sum", 1, "-eta - r(eta) = xi",
     lambda eta: PhasePoint(eta, -eta, -eta, -eta - reflection(eta)), "single-sum"),
    ("implicit-double-sum", 2, "2(eta + r(eta)) = xi",
     lambda eta: PhasePoint(eta, eta, reflection(eta), 2.0 * (eta + reflection(eta))), "double-sum"),
    ("implicit-double-diff", 2, "2(eta - r(eta)) = xi",
     lambda eta: PhasePoint(eta, eta, -reflection(eta), 2.0 * (eta - reflection(eta))), "double-diff"),
)

_IMPLICIT_ETAS = (1.5, SQRT3, 2.5, 6.0, -4.0)


def enumerate_resonances(tol: float = CLASSIFY_TOL) -> list[ResonanceRecord]:
    """Full census of critical points/manifolds, up to permutation and
    negation symmetries.

    Space-time resonant: the line (-eta, eta, eta; 0) and its sign
    permutations, the curve (eta, r(eta), -r(eta); 0) and its permutation,
    the distinguished points (0,0,0;0) and (-sqrt(3), sqrt(3), sqrt(3); 0),
    and the isolated anomalous pair.  Everything else is space-resonant
    only; each implicit family carries the scalar function certifying that
    its phase does not vanish away from the already-counted points.
    """
    # Space-time resonant line and its sign permutations.
    records = [
        _record("line" if pos == 0 else f"line-sign-{pos}", 1, "one negated frequency, xi = 0", "line",
                "space_time", _line_sampler(pos), (0.5, 2.0, SQRT3, 10.0, -7.0), symmetry_derived=pos > 0)
        for pos in (0, 1, 2)
    ]
    # Space-time resonant curve and its permuted variant.
    records += [
        _record("curve-permuted" if permuted else "curve", 1, "reflected pair, xi = 0", "curve", "space_time",
                _curve_sampler(permuted), (1.2, 2.0, SQRT3, 5.0, -3.0), symmetry_derived=permuted)
        for permuted in (False, True)
    ]
    # Distinguished points on the line, then the isolated anomalous pair.
    records += [
        _record(label, 1, "on the resonant line", "point", "space_time", None, [pt])
        for label, pt in (
            ("origin-point", PhasePoint(0.0, 0.0, 0.0, 0.0)),
            ("inflection-point", PhasePoint(-SQRT3, SQRT3, SQRT3, 0.0)),
        )
    ]
    records.append(anomalous_resonance(tol))
    records += [
        _record(label, family, subfamily, "implicit_family", "space", sampler, _SPACE_XIS[family],
                notes="phase nonzero for xi != 0")
        for label, family, subfamily, sampler in _SPACE_FAMILIES
    ]
    # Implicit families with a scalar certificate of non-time-resonance.
    for label, family, subfamily, sampler, check in _IMPLICIT_FAMILIES:
        roots = find_roots(check, (1.0 + 1e-3, 50.0), samples_per_unit=2000)
        notes = (
            "time-resonant only at " + ", ".join(f"{r:.6g}" for r in roots)
            if roots
            else "no time resonance on the scan range"
        )
        records.append(
            _record(label, family, subfamily, "implicit_family", "space", sampler, _IMPLICIT_ETAS, notes=notes)
        )

    # Families 3 and 4 swap which slot carries the reflected frequency;
    # permutation symmetry of the phase makes them copies of family 2, so
    # record one representative permuted copy per family-2 entry.
    family2 = [(r, _IMPLICIT_ETAS) for r in records if r.family == 2 and r.label.startswith("implicit-")]
    family2 += [(r, _SPACE_XIS[2]) for r in records if r.family == 2 and r.label.startswith("space-")]
    for rec, params in family2:
        records.append(
            _record(
                f"{rec.label}-permuted",
                3,
                rec.subfamily + " (slots 1 and 3 swapped)",
                rec.kind,
                rec.classification,
                _swapped(rec.sampler),
                params,
                symmetry_derived=True,
                notes="permutation image of a family-2 record; family 4 likewise swaps slots 2 and 3",
            )
        )

    for rec in records:
        if not rec.consistent(tol):
            raise ArithmeticError(
                f"census record {rec.label} fails its classification at tol={tol}"
            )
    return records
