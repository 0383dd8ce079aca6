"""Four-wave interaction phase, its critical points, and the resonance census.

The interaction phase for the quartic nonlinearity is

    phase(e1, e2, e3; xi) = -omega(xi) + omega(e1) + omega(e2) + omega(e3)
                            + omega(e4),   e4 = xi - e1 - e2 - e3.

Critical points in (e1, e2, e3) require all four frequencies to share a group
velocity, so by the group-velocity census each e_j is one of eta, -eta,
r(eta), -r(eta).  Their counts (n_eta, n_-eta, n_r, n_-r) form 35 patterns
in 11 orbits under negation and eta <-> r(eta).  With signed counts
a = n_eta - n_-eta and b = n_r - n_-r, xi = a eta + b r(eta) and the phase
restricted to the family is a omega(eta) + b omega(r) - omega(xi).  It
vanishes identically only for a = b = 0 (the space-time resonant line and
curve); with one of a, b zero it vanishes only where the other frequency is
0 (pure space families).  The rest are SCALAR_PHASE_FUNCTIONS, whose roots,
found by dense scan plus bisection, mark time resonances.  The census
samples each family through linear forms a q + b r(q) of one parameter q,
and the tests check that it covers all 11 orbits.
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

# Samples per block of a scan, so no scan-sized temporary is allocated.
_SCAN_BLOCK = 4096


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

def _restricted_phase(a: int, b: int) -> Callable:
    """The phase on a family whose four input frequencies hold eta and r(eta)
    with signed counts a and b: a omega(eta) + b omega(r) - omega(a eta + b r)."""

    def fn(eta):
        r = reflection(eta)
        return a * omega(eta) + b * omega(r) - omega(a * eta + b * r)

    return fn


#: Implicit one-parameter space families, keyed by the scalar phase that
#: certifies them: (family, constraint, forms of (eta1, eta2, eta3, xi)).  A
#: form (a, b) stands for a eta + b r(eta), so the xi form holds the signed
#: counts that give the family's restricted phase.
_IMPLICIT_FAMILIES = {
    "triple-sum": (1, "3 eta + r(eta) = xi", ((1, 0), (1, 0), (1, 0), (3, 1))),  # no roots
    "triple-diff": (1, "3 eta - r(eta) = xi", ((1, 0), (1, 0), (1, 0), (3, -1))),  # roots near +-5.08
    "single-diff": (1, "-eta + r(eta) = xi", ((1, 0), (-1, 0), (-1, 0), (-1, 1))),  # roots at +-sqrt(3)
    "single-sum": (1, "-eta - r(eta) = xi", ((1, 0), (-1, 0), (-1, 0), (-1, -1))),  # no roots
    "double-sum": (2, "2(eta + r(eta)) = xi", ((1, 0), (1, 0), (0, 1), (2, 2))),  # no roots
    "double-diff": (2, "2(eta - r(eta)) = xi", ((1, 0), (1, 0), (0, -1), (2, -2))),  # roots at +-sqrt(3)
}

#: Phase restricted to each implicit family; vectorized callables defined on
#: {|eta| > 1}.
SCALAR_PHASE_FUNCTIONS: dict[str, Callable] = {
    name: _restricted_phase(*forms[3]) for name, (_, _, forms) in _IMPLICIT_FAMILIES.items()
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
    be closer than a coarse scan resolves), evaluated in blocks of a few
    thousand samples, followed by bisection refinement.  fn must act
    elementwise, so each block's values are those of the whole scan.
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
        step = (seg_b - seg_a) / n
        # linspace(seg_a, seg_b, n + 1) in blocks that share their last sample with the next
        for i0 in range(0, n, _SCAN_BLOCK):
            i1 = min(i0 + _SCAN_BLOCK, n)
            xs = np.arange(i0, i1 + 1, dtype=float) * step + seg_a
            if i1 == n:
                xs[-1] = seg_b
            vals = np.asarray(fn(xs))
            for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
                roots.append(_bisect(fn, float(xs[i]), float(xs[i + 1]), tol))
            roots.extend(float(x) for x in xs[vals == 0.0])
    return sorted(set(roots))


# ---------------------------------------------------------------------------
# Auxiliary phases near the degenerate and anomalous frequencies
# ---------------------------------------------------------------------------

def aux_phase(signs: tuple[int, int, int], xi, eta0: float):
    """Leading-order phase when all three input frequencies sit at
    sigma_j * eta0 (eta0 = sqrt(3), or the anomalous eta0):
    -omega(xi) + omega(xi - sum(sigma) eta0) + sum(sigma) omega(eta0).

    Satisfies aux_phase(-signs, xi, eta0) = -aux_phase(signs, -xi, eta0).
    """
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


def _sampler(forms) -> Callable[[float], PhasePoint]:
    """The PhasePoint whose (eta1, eta2, eta3, xi) are the linear forms
    a q + b r(q), given as (a, b), of the parameter q.  r(q) is evaluated
    only when a form uses it, so forms in q alone take any q; adding 0.0
    turns the -0.0 of 0 * q at negative q into 0.0."""
    uses_r = any(b for _, b in forms)

    def sample(q: float) -> PhasePoint:
        r = reflection(q) if uses_r else 0.0
        return PhasePoint(*(a * q + b * r + 0.0 for a, b in forms))

    return sample


def anomalous_resonance(tol: float = CLASSIFY_TOL) -> ResonanceRecord:
    """The isolated space-time resonance (eta0, eta0, eta0; xi0) with
    xi0 = 3 eta0 - r(eta0), found by root-finding the triple-diff scalar
    phase on [4, 7], and its negative twin."""
    roots = find_roots("triple-diff", (4.0, 7.0), tol=ROOT_TOL)
    if len(roots) != 1:
        raise ArithmeticError(
            f"expected one positive root of the triple-diff phase on [4, 7], got {roots}"
        )
    sample = _sampler(_IMPLICIT_FAMILIES["triple-diff"][2])
    rec = _record("anomalous-point", 1, "equal-signs, partner 3*eta - r(eta)", "point", "space_time", None,
                  [sample(roots[0]), sample(-roots[0])])
    if not rec.consistent(tol):
        raise ArithmeticError("anomalous resonance residuals exceed tolerance")
    return rec


#: Space-time resonant families on xi = 0: (label, kind, forms of
#: (eta1, eta2, eta3, xi) in q).  The rows labelled by their kind are the base
#: line and curve; the others are their sign and slot images.
_SPACE_TIME_FAMILIES = (
    ("line", "line", ((-1, 0), (1, 0), (1, 0), (0, 0))),
    ("line-sign-1", "line", ((1, 0), (-1, 0), (1, 0), (0, 0))),
    ("line-sign-2", "line", ((1, 0), (1, 0), (-1, 0), (0, 0))),
    ("curve", "curve", ((1, 0), (0, 1), (0, -1), (0, 0))),
    ("curve-permuted", "curve", ((1, 0), (-1, 0), (0, -1), (0, 0))),
)

#: Subfamily and sample parameters of each space-time kind.
_SPACE_TIME_KINDS = {
    "line": ("one negated frequency, xi = 0", (0.5, 2.0, SQRT3, 10.0, -7.0)),
    "curve": ("reflected pair, xi = 0", (1.2, 2.0, SQRT3, 5.0, -3.0)),
}

#: Pure-space families parametrized by q = xi / 2, whose phase is nonzero
#: for xi != 0: (label, family, subfamily, forms of (eta1, eta2, eta3, xi)).
_SPACE_FAMILIES = (
    ("space-quarter", 1, "(xi/4, xi/4, xi/4)", ((0.5, 0), (0.5, 0), (0.5, 0), (2, 0))),
    ("space-half", 1, "(xi/2, xi/2, xi/2)", ((1, 0), (1, 0), (1, 0), (2, 0))),
    ("space-half-mixed", 1, "(-xi/2, xi/2, xi/2)", ((-1, 0), (1, 0), (1, 0), (2, 0))),
    ("space-half-reflected", 2, "(xi/2, xi/2, r(xi/2))", ((1, 0), (1, 0), (0, 1), (2, 0))),
    ("space-half-antireflected", 2, "(xi/2, xi/2, -r(xi/2))", ((1, 0), (1, 0), (0, -1), (2, 0))),
    ("space-reflected-pair", 2, "(-r(xi/2), r(xi/2), xi/2)", ((0, -1), (0, 1), (1, 0), (2, 0))),
)

#: Sample q = xi / 2 per family; family 2 needs |q| > 1 for r(q).
_SPACE_QS = {1: (0.5, 2.0, -1.5), 2: (1.5, 2.5, -2.0)}

_IMPLICIT_ETAS = (1.5, SQRT3, 2.5, 6.0, -4.0)


def _root_notes(name: str) -> str:
    roots = find_roots(name, (1.0 + 1e-3, 50.0), samples_per_unit=2000)
    if not roots:
        return "no time resonance on the scan range"
    return "time-resonant only at " + ", ".join(f"{r:.6g}" for r in roots)


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
    records = [
        _record(label, 1, _SPACE_TIME_KINDS[kind][0], kind, "space_time", _sampler(forms),
                _SPACE_TIME_KINDS[kind][1], symmetry_derived=label != kind)
        for label, kind, forms in _SPACE_TIME_FAMILIES
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
        _record(label, family, subfamily, "implicit_family", "space", _sampler(forms), _SPACE_QS[family],
                notes="phase nonzero for xi != 0")
        for label, family, subfamily, forms in _SPACE_FAMILIES
    ]
    records += [
        _record(f"implicit-{name}", family, subfamily, "implicit_family", "space", _sampler(forms),
                _IMPLICIT_ETAS, notes=_root_notes(name))
        for name, (family, subfamily, forms) in _IMPLICIT_FAMILIES.items()
    ]
    # Families 3 and 4 swap which slot carries the reflected frequency;
    # permutation symmetry of the phase makes them copies of family 2, so
    # record each family-2 entry, implicit ones first, with slots 1 and 3 swapped.
    family2 = [(f"implicit-{name}", subfamily, forms, _IMPLICIT_ETAS)
               for name, (family, subfamily, forms) in _IMPLICIT_FAMILIES.items() if family == 2]
    family2 += [(label, subfamily, forms, _SPACE_QS[2])
                for label, family, subfamily, forms in _SPACE_FAMILIES if family == 2]
    records += [
        _record(f"{label}-permuted", 3, subfamily + " (slots 1 and 3 swapped)", "implicit_family", "space",
                _sampler((f3, f2, f1, fxi)), params, symmetry_derived=True,
                notes="permutation image of a family-2 record; family 4 likewise swaps slots 2 and 3")
        for label, subfamily, (f1, f2, f3, fxi), params in family2
    ]

    for rec in records:
        if not rec.consistent(tol):
            raise ArithmeticError(
                f"census record {rec.label} fails its classification at tol={tol}"
            )
    return records
