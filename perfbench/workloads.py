"""The benchmark's workloads: the CLI invocations of one pass, the inputs a
seed selects, and the checks on what each invocation wrote.

Seed 0 runs the documented inputs and compares row-level outputs with the
reference under ``reference/``.  Any other seed scales the physical data
(``--epsilon``, ``--width``) by a factor in [0.9, 1.1] without changing a
step, mode or node count, and is held to the physics bands only.  The CLI's
own ``--seed`` is never passed: it selects nothing.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

#: Relative tolerance of row-level comparisons, per output: 1e-9 for the
#: solver's diagnostics, the quadrature's own convergence tolerance
#: (linear_flow.CONVERGENCE_RTOL) for estimate rows.
ROW_RTOL = {
    "diagnostics.csv": 1e-9,
    "scattering.csv": 1e-9,
    "decay.csv": 1e-9,
    "estimates.csv": 1e-6,
}

#: The outputs each subcommand must write besides manifest.json.
REQUIRED_OUTPUTS = {
    "evolve": ("diagnostics.csv", "bootstrap_summary.json", "final_state.bin", "profile_t1.bin"),
    "scatter": ("scattering.csv", "scattering_summary.json"),
    "verify-estimates": ("estimates.csv", "estimates_summary.json"),
    "resonances": ("census.json",),
    "linear-decay": ("decay.csv", "decay_summary.json"),
    "figures": (),
}


def _scaled(seed: int, **defaults: float) -> list[str]:
    """Flags scaling each default by a seeded factor; none for seed 0."""
    if seed == 0:
        return []
    rng = random.Random(seed)
    flags = []
    for key, value in defaults.items():
        flags += [f"--{key}", repr(value * rng.uniform(0.9, 1.1))]
    return flags


def _evolve(seed: int) -> list[list[str]]:
    return [["evolve", "--t-end", "5"] + _scaled(seed, epsilon=1e-2, width=0.5)]


def _scatter(seed: int) -> list[list[str]]:
    return [["scatter", "--t-end", "16"] + _scaled(seed, epsilon=1e-2, width=0.5)]


def _estimates(seed: int) -> list[list[str]]:
    return [["verify-estimates", "--t-max", "32"] + _scaled(seed, width=0.03125)]


def _quick_cli(seed: int) -> list[list[str]]:
    return (
        [["resonances"]]
        + [["figures", "--id", str(i)] for i in range(1, 18)]
        + [
            ["linear-decay", "--profile", profile] + _scaled(seed, width=0.5)
            for profile in ("gaussian", "near-sqrt3")
        ]
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: Callable[[int], list[list[str]]]
    #: Span names that must record calls in the traced pass.
    live: tuple[str, ...]


_SOLVER_LIVE = (
    "cli.main",
    "cli.OutputSink",
    "solver.evolve",
    "solver.step",
    "solver.rhs",
    "solver.quartic_hat",
    "solver.discrete_profile_of",
    "spectral.Grid.frequencies",
    "spectral.SpectralField.continuum_coeffs",
    "diagnostics.Recorder",
    "diagnostics.compute_norms",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evolve",
            "the researcher's longest wait: the default 2^14-mode evolve grid, "
            "where solver.step and quartic_hat dominate",
            _evolve,
            _SOLVER_LIVE,
        ),
        Workload(
            "scatter",
            "the same solver on a 4x smaller grid with a Recorder call every "
            "step, so per-call overhead and the Recorder weigh more",
            _scatter,
            _SOLVER_LIVE,
        ),
        Workload(
            "estimates",
            "dense band quadrature on the 2^16 grid: no solver calls, and the "
            "largest memory of any subcommand",
            _estimates,
            (
                "cli.main",
                "cli.OutputSink",
                "linear_flow.dispersive_bound",
                "linear_flow.evaluate_lp_piece",
                "littlewood_paley.psi_k",
                "spectral.SpectralField.continuum_coeffs",
            ),
        ),
        Workload(
            "quick-cli",
            "20 short invocations: the only load on resonance and on the CSV and "
            "manifest path, and none on the solver or the quadrature",
            _quick_cli,
            (
                "cli.main",
                "cli.OutputSink",
                "resonance.enumerate_resonances",
                "resonance.anomalous_resonance",
                "resonance.find_roots",
                "linear_flow.propagate_linear",
            ),
        ),
    )
}

#: Recorded with every result: the context a reader needs for the numbers.
NOTES = {
    "load": "closed loop, one client: one fresh process per pass, one pass at a "
    "time; each pass imports gbbmlab.cli and calls cli.main per invocation, so "
    "lazy costs (FFT plans, first-touch page faults) are inside wall_s",
    "layer_shares": "inclusive shares of the traced wall time at seed 0, measured "
    "on a 2-core Xeon VM before any optimisation: evolve - solver.step 0.94, "
    "quartic_hat 0.86, Recorder 0.04; scatter - solver.step 0.72, quartic_hat "
    "0.66, Recorder 0.27; estimates - evaluate_lp_piece 0.87, continuum_coeffs "
    "0.08; quick-cli - cli.main self 0.59, propagate_linear 0.32, "
    "enumerate_resonances 0.06. A layer can move wall_s by at most its share on "
    "a workload; each traced run prints its own layer_share lines",
    "dt": "every workload steps with the default dt = 0.1, which divides each "
    "horizon, so the known defect of a non-dividing --dt (recorded times off "
    "the step lattice) is not exercised here and is left to its own tests",
}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def census_shape(census: dict) -> list[list]:
    """Labels and counts of the census, which must match exactly."""
    return [
        [r["label"], r["family"], r["subfamily"], r["kind"], r["classification"], len(r["representative_points"])]
        for r in census["records"]
    ]


def reference_of(out_dir: str, subcommand: str) -> dict:
    """What the seed-0 reference stores for one invocation's outputs."""
    with open(os.path.join(out_dir, "manifest.json")) as f:
        ref: dict = {"outputs": json.load(f)["outputs"], "rows": {}}
    for name in ROW_RTOL:
        if name in ref["outputs"]:
            ref["rows"][name] = read_rows(os.path.join(out_dir, name))
    if subcommand == "resonances":
        with open(os.path.join(out_dir, "census.json")) as f:
            ref["census"] = census_shape(json.load(f))
    return ref


def _cells_match(a: str, b: str, rtol: float) -> bool:
    if a == b:
        return True
    try:
        return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=0.0)
    except ValueError:
        return False


def _compare_rows(name: str, got: list[list[str]], want: list[list[str]], rtol: float) -> list[str]:
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if len(g) != len(w) or not all(_cells_match(a, b, rtol) for a, b in zip(g, w)):
            return [f"{name} row {i}: {g} differs from reference {w} beyond rtol {rtol:g}"]
    return []


def _load(out_dir: str, name: str):
    with open(os.path.join(out_dir, name)) as f:
        return json.load(f)


def _evolve_bands(out_dir: str) -> list[str]:
    bad = []
    rows = read_rows(os.path.join(out_dir, "diagnostics.csv"))[1:]
    if not all(math.isfinite(float(v)) for row in rows for v in row):
        bad.append("non-finite diagnostics")
    fhat = [float(row[1]) for row in rows]
    if max(fhat) > 2.0 * fhat[0]:
        bad.append(f"sup|fhat| grew {max(fhat) / fhat[0]:.3f}x, band is 2x")
    exponent = _load(out_dir, "bootstrap_summary.json")["weighted_growth_exponent"]
    if not exponent < 1.0 / 6.0:
        bad.append(f"weighted growth exponent {exponent} >= 1/6")
    return bad


def _scatter_bands(out_dir: str) -> list[str]:
    summary = _load(out_dir, "scattering_summary.json")
    bad = []
    if not summary["fitted_exponent"] < 0.0:
        bad.append(f"profile differences do not decay: exponent {summary['fitted_exponent']}")
    if not summary["monotone_from_8"]:
        bad.append("profile differences not monotone from t = 8")
    return bad


def _estimates_bands(out_dir: str) -> list[str]:
    summary = _load(out_dir, "estimates_summary.json")
    bad = []
    if not summary["all_finite"]:
        bad.append("non-finite estimate ratio")
    if summary["last_dyadic_max_ratio"] > 1.2 * summary["median_dyadic_max_ratio"]:
        bad.append("last dyadic max ratio exceeds 1.2x the median")
    return bad


def _census_bands(out_dir: str) -> list[str]:
    anomalous = _load(out_dir, "census.json")["anomalous"]
    eta0, xi0 = anomalous["eta0"], anomalous["xi0"]
    bad = []
    if not (5.07 <= eta0 <= 5.13 and 14.1 <= xi0 <= 14.3):
        bad.append(f"anomalous point ({eta0}, {xi0}) outside its band")
    if abs(xi0 - (3.0 * eta0 - anomalous["reflection_of_eta0"])) >= 1e-9:
        bad.append("anomalous point off xi0 = 3 eta0 - r(eta0)")
    return bad


def _decay_bands(out_dir: str) -> list[str]:
    summary = _load(out_dir, "decay_summary.json")
    if summary["profile"] == "gaussian" and abs(summary["fitted_exponent"] + 1.0 / 3.0) > 0.05:
        return [f"gaussian decay exponent {summary['fitted_exponent']} not within 0.05 of -1/3"]
    if summary["profile"] == "near-sqrt3" and summary["ray_relative_error"] > 0.05:
        return [f"near-sqrt3 peak off the x = -t/8 ray by {summary['ray_relative_error']}"]
    return []


def _figure_bands(out_dir: str) -> list[str]:
    (name,) = [n for n in _load(out_dir, "manifest.json")["outputs"] if n.startswith("figure_")]
    rows = read_rows(os.path.join(out_dir, name))
    # the workload keeps the default of 2001 points per figure
    if len(rows) != 2002 or not all(math.isfinite(float(v)) for row in rows[1:] for v in row):
        return [f"{name}: expected a header and 2001 finite rows"]
    return []


#: Derived summaries checked against the acceptance bands of
#: tests/test_acceptance.py (criteria 1, 4, 6 and 7), never for equality.
BANDS = {
    "evolve": _evolve_bands,
    "scatter": _scatter_bands,
    "verify-estimates": _estimates_bands,
    "resonances": _census_bands,
    "linear-decay": _decay_bands,
    "figures": _figure_bands,
}


@dataclass
class Checked:
    problems: list[str]
    identical: int
    outputs: int


def check_invocation(argv: list[str], out_dir: str, reference: dict | None) -> Checked:
    """Everything that makes an invocation count as failed, and how many of
    its outputs are byte-identical to the reference (checksums)."""
    if not os.path.exists(os.path.join(out_dir, "manifest.json")):
        return Checked(["no manifest.json"], 0, 0)
    try:
        outputs = _load(out_dir, "manifest.json")["outputs"]
        missing = sorted(n for n in {*outputs, *REQUIRED_OUTPUTS[argv[0]]} if not os.path.exists(os.path.join(out_dir, n)))
        if missing:
            return Checked([f"missing outputs: {missing}"], 0, len(outputs))
        problems = BANDS[argv[0]](out_dir)
        if reference is None:
            return Checked(problems, 0, len(outputs))
        identical = sum(reference["outputs"].get(n) == h for n, h in outputs.items())
        if set(outputs) != set(reference["outputs"]):
            problems.append(f"outputs {sorted(outputs)} differ from reference {sorted(reference['outputs'])}")
        for name, want in reference["rows"].items():
            problems += _compare_rows(name, read_rows(os.path.join(out_dir, name)), want, ROW_RTOL[name])
        if "census" in reference and census_shape(_load(out_dir, "census.json")) != reference["census"]:
            problems.append("census labels or counts differ from reference")
        return Checked(problems, identical, len(outputs))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return Checked([f"unreadable output: {type(e).__name__}: {e}"], 0, 0)


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> list[dict]:
    """Per-invocation references, in invocation order, for seed 0."""
    with open(reference_path(workload)) as f:
        data = json.load(f)
    if data["invocations"] != WORKLOADS[workload].invocations(0):
        raise ValueError(f"reference for {workload} was recorded for other invocations")
    return data["references"]
