"""Experiment runner: resonance census, linear-decay scans, nonlinear
evolution, scattering diagnostics, estimate verification, and figure-data
emission.

Configuration comes from an INI file (one section per subcommand), each key
parsed as the flag it names, with command-line flags taking precedence.
Every run writes a manifest.json recording the resolved configuration,
package version, and the sha256 of each output file, so reruns are
byte-comparable.

Exit codes: 0 success, 1 configuration/validation failure (an unreadable
--config file included) or an allocation that cannot be made, 2 numerical
failure (blow-up guard, non-convergent quadrature, a decay fit over a
non-positive value).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import struct
import sys

import numpy as np

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL (3.6 MB resident) for one digest per file
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    from _sha256 import sha256  # CPython 3.10-3.11

from . import __version__, diagnostics, linear_flow, solver
from .dispersion import SQRT3, omega_prime, reflection
from .spectral import Grid, SpectralField

#: Environment variable naming the default output directory.
OUTPUT_DIR_ENV = "GBBMLAB_OUTPUT_DIR"


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "resonances": {"tol": 1e-9},
    "linear-decay": {
        "profile": "gaussian",
        "width": 0.5,
        "t_min": 100.0,
        "t_max": 10000.0,
        "n_modes": 2**18,
        "half_length": 9000.0,
    },
    "evolve": {
        "n_modes": 2**14,
        "half_length": 2048.0,
        "dt": 0.1,
        "t_end": 1000.0,
        "epsilon": 1e-2,
        "width": 0.5,
        "carrier": 0.0,
        "profile": "gaussian",
        "record_stride": 10,
        "s": 10.0,
        "snapshots": "dyadic",
    },
    "scatter": {
        "n_modes": 2**12,
        "half_length": 512.0,
        "dt": 0.1,
        "t_end": 128.0,
        "epsilon": 1e-2,
        "width": 0.5,
    },
    "verify-estimates": {
        "k_min": -3,
        "k_max": 5,
        "t_min": 16.0,
        "t_max": 4096.0,
        "s": 5.5,
        "n_modes": 2**16,
        "half_length": 512.0,
        "width": 0.03125,
    },
    "figures": {"id": 1, "n_points": 2001},
}


#: Per-key checks, applied by ``main`` to every subcommand that has the key:
#: (key, predicate, requirement), reported as "<key> must be <requirement>".
_CHECKS = [
    ("width", lambda v: 0 < v < math.inf, "positive and finite"),
    ("carrier", math.isfinite, "finite"),
    ("epsilon", lambda v: math.isfinite(v) and v != 0, "nonzero and finite"),
    ("s", math.isfinite, "finite"),
    ("tol", lambda v: 0 < v < math.inf, "positive and finite"),
    ("snapshots", lambda v: v in ("dyadic", "none"), "'dyadic' or 'none'"),
    ("n_points", lambda v: v >= 2, ">= 2"),
    ("id", lambda v: v in _FIGURES, "in 1..17"),
]


def _ini_flags(path: str, subcommand: str) -> list[str]:
    """The ``--key=value`` flags named by the keys of the INI file's [subcommand] section."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as f:
            cp.read_file(f)
    except OSError as e:
        raise ValueError(f"cannot read config file {path}: {e.strerror}") from None
    flags = []
    for key, raw in cp.items(subcommand) if cp.has_section(subcommand) else []:
        key = key.replace("-", "_")
        if key not in _DEFAULTS[subcommand]:
            raise ValueError(f"unknown config key '{key}' in [{subcommand}]")
        flags.append(f"--{key.replace('_', '-')}={raw}")
    return flags


#: A snapshot file's header: n (int64), L and t (float64), little-endian.
_SNAPSHOT_HEADER = struct.Struct("<qdd")


class OutputSink:
    """Collects output files and writes the manifest at the end.  The output
    directory is created at the first write, so a run that fails before it
    leaves no directory behind.  Each file is written under a temporary name
    and renamed at ``finalize``, the manifest last; ``discard`` removes what a
    failed run wrote, so no file appears that no manifest vouches for, and an
    earlier run's files in the same directory are left as they were."""

    def __init__(self, out_dir: str, subcommand: str, cfg: dict):
        self.out_dir = out_dir
        self.subcommand = subcommand
        self.cfg = cfg
        self.checksums: dict[str, str] = {}
        self._pending: list[str] = []  # written, not yet renamed
        self._made_dirs: list[str] | None = None  # directories this sink created, innermost first

    def path(self, name: str) -> str:
        """Where the file ``name`` is now: its temporary name, ``name.partial``, until finalize renames it."""
        return os.path.join(self.out_dir, name + ".partial" if name in self._pending else name)

    def _create(self, name: str, *parts) -> str:
        """Write the buffers ``parts``, in order and each where it lies, to the file ``name``'s temporary
        name, creating the directory first; the sha256 of what was written."""
        if self._made_dirs is None:
            new, d = [], os.path.abspath(self.out_dir)
            while not os.path.exists(d):
                new.append(d)
                d = os.path.dirname(d)
            os.makedirs(self.out_dir, exist_ok=True)
            self._made_dirs = new
        if name not in self._pending:
            self._pending.append(name)
        digest = sha256()
        with open(self.path(name), "wb") as f:
            for part in parts:
                f.write(part)
                digest.update(part)
        return digest.hexdigest()

    def _write_bytes(self, name: str, *parts):
        """Every output's one writer, so each manifest entry is the sha256 of its file."""
        self.checksums[name] = self._create(name, *parts)

    def write_text(self, name: str, text: str):
        self._write_bytes(name, text.encode())

    def write_csv(self, name: str, header: str, rows):
        """CSV text: the header line, then one line per row; a float cell is
        written to 17 significant digits (round-trip exact), any other cell
        with ``str``.  The line format comes from the first row and is applied
        to the whole table with one ``%``, so a row of another length, or a
        column that mixes float and non-float cells, raises ValueError."""
        rows = list(rows)
        lines = [header]
        if rows:
            kinds = [isinstance(v, float) for v in rows[0]]
            width = len(kinds)
            if {*map(len, rows)} != {width}:
                raise ValueError(f"{name}: rows of different lengths")
            cells = list(itertools.chain.from_iterable(rows))
            for j, is_float in enumerate(kinds):
                if any(issubclass(kind, float) != is_float for kind in {*map(type, cells[j::width])}):
                    raise ValueError(f"{name}: column {j} mixes float and non-float cells")
            line = ",".join("%.17g" if is_float else "%s" for is_float in kinds)
            lines.append("\n".join([line] * len(rows)) % tuple(cells))
        self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, obj):
        self.write_text(name, json.dumps(obj, indent=2, sort_keys=True) + "\n")

    def write_snapshot(self, name: str, field: SpectralField):
        """Binary snapshot: little-endian header (n int64; L, t float64) then
        the field's n/2 + 1 half-spectrum coefficients as little-endian complex128: on a little-endian
        host, the array's own buffer, not a copy."""
        header = _SNAPSHOT_HEADER.pack(field.grid.n_modes, field.grid.half_length, field.time)
        self._write_bytes(name, header, np.ascontiguousarray(field.coeffs, dtype="<c16"))

    def finalize(self):
        manifest = {
            "subcommand": self.subcommand,
            "config": self.cfg,
            "version": __version__,
            "outputs": self.checksums,
        }
        self._create("manifest.json", (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
        while self._pending:  # in the order written: the manifest last
            name = self._pending[0]
            os.replace(self.path(name), os.path.join(self.out_dir, name))
            self._pending.pop(0)

    def discard(self):
        """Remove the temporary files of a failed run, then each directory this sink created that
        is empty.  Removal is best effort, so the run's own error is the one reported."""
        for name in self._pending:
            with contextlib.suppress(OSError):
                os.remove(self.path(name))
        self._pending.clear()
        for d in self._made_dirs or ():
            with contextlib.suppress(OSError):
                os.rmdir(d)


def read_snapshot(path: str) -> SpectralField:
    """Inverse of OutputSink.write_snapshot; a file shorter than its header, or a body of other than
    n/2 + 1 complex128 values, raises ValueError."""
    with open(path, "rb") as f:
        header = f.read(_SNAPSHOT_HEADER.size)
        if len(header) < _SNAPSHOT_HEADER.size:
            raise ValueError(f"{path}: {len(header)} bytes, short of the {_SNAPSHOT_HEADER.size}-byte snapshot header")
        n, half_length, t = _SNAPSHOT_HEADER.unpack(header)
        return SpectralField(Grid(n, half_length), np.frombuffer(f.read(), dtype="<c16"), t)


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _resonance():
    """The census module, imported at first use, so only the subcommands that read it load it."""
    from . import resonance

    return resonance


def run_resonances(cfg: dict, sink: OutputSink):
    records = _resonance().enumerate_resonances(cfg["tol"])
    anom = next(r for r in records if r.label == "anomalous-point").representative_points[0]
    census = {
        "tolerance": cfg["tol"],
        "anomalous": {"eta0": anom.eta1, "xi0": anom.xi, "reflection_of_eta0": reflection(anom.eta1)},
        "records": [
            {f.name: getattr(r, f.name) for f in dataclasses.fields(r) if f.name != "sampler"}
            | {"representative_points": [dataclasses.asdict(p) | {"eta4": p.eta4} for p in r.representative_points]}
            for r in records
        ],
    }
    sink.write_json("census.json", census)


#: Initial-data family -> (width, carrier) of its Gaussian, from the config.
_DATA_FAMILIES = {
    "gaussian": lambda cfg: (cfg["width"], cfg.get("carrier", 0.0)),
    # transform of width `width` about +-sqrt(3)
    "near-sqrt3": lambda cfg: (1.0 / cfg["width"], SQRT3),
}

#: exp(-x^2 / (2 w^2)) is below 2^-53 of its peak beyond |x| = _GAUSSIAN_REACH w.
_GAUSSIAN_REACH = math.sqrt(106.0 * math.log(2.0))


def _data_family(cfg: dict, grid: Grid, tau: float) -> tuple[float, float, float]:
    """(width, carrier, reach) of the configured family's Gaussian on ``grid``, ``gaussian`` for a subcommand
    with no profile key; reach = _GAUSSIAN_REACH w.  A width w is refused if 2 w^2, gaussian_data's divisor of
    -x^2, is not a positive normal float (the data would be 0/0 at x = 0, or -x^2 / inf) or x^2 / (2 w^2)
    overflows at x = -L.  The data is refused if its linear waves, run for a time tau, wrap around the box
    (``Grid.max_unwrapped_time``), which at tau = 0 means it does not fit the box: the run would no longer be
    one on the line."""
    profile = cfg.get("profile", "gaussian")
    if profile not in _DATA_FAMILIES:
        raise ValueError(f"unknown profile '{profile}' for this subcommand")
    width, carrier = _DATA_FAMILIES[profile](cfg)
    if not sys.float_info.min <= 2.0 * width * width <= sys.float_info.max:
        raise ValueError(f"the {profile} data's Gaussian has width w = {width:g}, "
                         f"and 2 w^2 = {2.0 * width * width:g} is not a positive normal float")
    if grid.half_length * grid.half_length / (2.0 * width * width) > sys.float_info.max:
        raise ValueError(f"the {profile} data's Gaussian has width w = {width:g}, "
                         f"and x^2 / (2 w^2) overflows at the box edge x = {-grid.half_length:g}")
    reach = _GAUSSIAN_REACH * width
    limit = grid.max_unwrapped_time(reach)
    if tau > limit:
        if tau > 0:
            raise ValueError(f"the waves wrap around the box [-L, L) with L = {grid.half_length:g} after a time "
                             f"{limit:.6g}, short of the run's {tau:g}; the run needs a larger half_length")
        raise ValueError(f"the {profile} data reaches |x| = {reach:.6g}, past the box [-L, L) with "
                         f"L = {grid.half_length:g}; the run needs a larger half_length")
    return width, carrier, reach


def _dyadic_times(t_min: float, t_max: float) -> list[float]:
    """t_min, 2 t_min, 4 t_min, ... up to t_max within one part in 10^9; a NaN fails
    the range check, and t overflowing to inf ends the list."""
    if not 0.0 < t_min <= t_max < math.inf:
        raise ValueError(f"need 0 < t_min <= t_max < inf, got t_min = {t_min:g}, t_max = {t_max:g}")
    ts = []
    t = t_min
    while t <= t_max or math.isclose(t, t_max, rel_tol=1e-9):
        ts.append(t)
        t *= 2.0
    return ts


def run_linear_decay(cfg: dict, sink: OutputSink):
    times = _dyadic_times(cfg["t_min"], cfg["t_max"])
    if len(times) < 4:
        raise ValueError(f"{len(times)} dyadic times from t_min = {cfg['t_min']:g} to t_max = {cfg['t_max']:g}; "
                         "the fit needs 4")
    grid = Grid(cfg["n_modes"], cfg["half_length"])
    width, carrier, reach = _data_family(cfg, grid, times[-1])
    profile = solver.gaussian_data(grid, 1.0, width, carrier, time=0.0)
    summary: dict = {"profile": cfg["profile"], "times": times}
    rows = []
    # the profile is at t = 0, so the sweep's doubling times are the dyadic times themselves
    for t, (sup, x, _) in zip(times, linear_flow.linear_sup_sweep(profile, times[0], len(times), reach)):
        rows.append((t, "", "aggregate", sup, "", ""))
    if cfg["profile"] == "near-sqrt3":  # x is the last time's peak
        ray = -times[-1] / 8.0
        summary.update(argmax_x=x, ray_x=ray, ray_relative_error=abs(x - ray) / abs(ray))
    fit = diagnostics.fit_decay([(t, sup) for t, _, _, sup, _, _ in rows])
    summary.update(fitted_exponent=fit.exponent, r_squared=fit.r_squared)
    sink.write_csv("decay.csv", "t,k,case_id,lhs,rhs,ratio", rows)
    sink.write_json("decay_summary.json", summary)


def _nonlinear_run(cfg: dict, keep, per_time_unit: bool = False):
    """Recorder and final field of the evolve run of ``cfg``: its family's ``gaussian_data`` at t = 1, recorded
    at its s up to t_end on ``SolverConfig.lattice(1)``, each snapshot handed to ``keep`` as it is taken (evolve's
    writer, scatter's fold; see ``diagnostics.Recorder``), refused if its waves wrap around the box
    (``_data_family``, before the lattice is counted), if the lattice records fewer than the 4 samples a fit
    needs, or if dyadic, snapshots no dyadic time 2, 4, ... below t_end.  Per time unit (scatter), t_end must be
    >= 16, and the checked run records at t = 1, 2, ..., t_end instead: each dyadic time is a step, so it is
    kept."""
    grid = Grid(cfg["n_modes"], cfg["half_length"])
    scfg = solver.SolverConfig(dt=cfg["dt"], t_end=cfg["t_end"], record_stride=cfg["record_stride"])
    width, carrier, _ = _data_family(cfg, grid, scfg.t_end - 1.0)
    if per_time_unit and scfg.t_end < 16.0:
        raise ValueError("t_end must be >= 16: the decay fit needs the differences at t = 1, 2, 4 and 8")
    if scfg.dt <= 0:
        raise ValueError(f"dt = {scfg.dt:g} must be positive: the run goes forward from t = 1")
    lat = scfg.lattice(1.0)
    if len(lat.records) < 4:
        raise ValueError(f"{len(lat.records)} records from t = 1 to t_end = {scfg.t_end:g}; the fits need 4")
    missed = [t for t in _dyadic_times(1.0, scfg.t_end) if t < scfg.t_end and lat.step_at(t) not in lat.snapshots]
    if missed and cfg["snapshots"] == "dyadic":
        raise ValueError(f"dt * record_stride = {scfg.dt * scfg.record_stride:g} does not divide "
                         f"{missed[0] - 1:g}: no snapshot at {missed[0]:g}")
    if per_time_unit:  # the stride is the step of t = 2, so the records are t = 1, 2, ..., t_end
        scfg = solver.SolverConfig(scfg.dt, scfg.t_end, lat.step_at(2.0))
    u0 = solver.gaussian_data(grid, cfg["epsilon"], width, carrier, time=1.0)
    rec = diagnostics.Recorder(s=cfg["s"], keep=keep)
    return rec, solver.evolve(u0, scfg, rec)


def run_evolve(cfg: dict, sink: OutputSink):
    def keep(t: float, profile: SpectralField):
        # each dyadic profile is written as it is taken, so the run holds none of them
        if cfg["snapshots"] != "none":
            sink.write_snapshot(f"profile_t{t:g}.bin", profile)

    rec, final = _nonlinear_run(cfg, keep)
    cells = [(smp.t, smp.linf_fhat, smp.weighted_l2, smp.sobolev, smp.sup_u) for smp in rec.samples]
    sink.write_csv("diagnostics.csv", "t,linf_fhat,weighted_l2,sobolev_s,sup_u", cells)
    if cfg["snapshots"] != "none":
        sink.write_snapshot("final_state.bin", final)
    sink.write_json("bootstrap_summary.json", diagnostics.bootstrap_report(rec.samples))


def run_scatter(cfg: dict, sink: OutputSink):
    """The scattering test of evolve's run, with evolve's defaults (gaussian, carrier 0, s = 10) for
    the keys scatter lacks, checked at stride 1.  Its ``keep`` is the fold ``DyadicDifferences``,
    so the run holds one profile's coefficients, not one per dyadic time."""
    differences = diagnostics.DyadicDifferences()
    _nonlinear_run(_DEFAULTS["evolve"] | cfg | {"record_stride": 1}, differences, per_time_unit=True)
    rows = differences.result()
    sink.write_csv("scattering.csv", "t,diff_linf,diff_l2", rows)
    late = [(t, d) for t, d, _ in rows if t >= 8.0]
    fit = diagnostics.fit_decay(late if len(late) >= 4 else [(t, d) for t, d, _ in rows])
    late_pairs = [(a, b) for (ta, a, _), (_, b, _) in zip(rows, rows[1:]) if ta >= 8.0]
    sink.write_json(
        "scattering_summary.json",
        {
            "fitted_exponent": fit.exponent,
            "r_squared": fit.r_squared,
            "monotone_from_8": all(b < a for a, b in late_pairs),
            "fit_window": list(fit.window),
            "fit_points": fit.n_points,
            "late_pairs": len(late_pairs),
        },
    )


def _median(values: list[float]) -> float:
    """Bitwise np.median of a list of floats: the middle entry, or the mean of
    the middle two, and NaN if any entry is NaN.  np.median's first call
    imports numpy.ma, which costs more than a short verify-estimates run."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


def run_verify_estimates(cfg: dict, sink: OutputSink):
    """Decay-bound rows of the bands k_min..k_max at the dyadic times; the summary adds each band's
    fitted exponent of its lhs column (``band_fits``, [] below the 4 times a fit needs)."""
    k_min, k_max = cfg["k_min"], cfg["k_max"]
    if k_max < k_min:
        raise ValueError("k_max must be >= k_min")
    grid = Grid(cfg["n_modes"], cfg["half_length"])
    linear_flow.require_band_on_grid(grid, k_max)
    times = _dyadic_times(cfg["t_min"], cfg["t_max"])
    width, carrier, _ = _data_family(cfg, grid, 0.0)
    # no reference to the profile is kept here, so the sweep frees it before its first row
    rows = linear_flow.verify_dispersive_estimate(
        solver.gaussian_data(grid, 1.0, width, carrier, time=0.0), range(k_min, k_max + 1), times, cfg["s"]
    )
    cells = [(r.t, r.k, r.case, r.lhs, r.rhs, r.ratio) for r in rows]
    sink.write_csv("estimates.csv", "t,k,case_id,lhs,rhs,ratio", cells)
    ratios = [r.ratio for r in rows]
    dyadic_max = [max(r.ratio for r in rows if r.t == t) for t in times]
    band_fits = []
    if len(times) >= 4:  # the rows are sorted by (k, t)
        for k, band in itertools.groupby(rows, key=lambda r: r.k):
            fit = diagnostics.fit_decay([(r.t, r.lhs) for r in band])
            band_fits.append({"k": k, "fitted_exponent": fit.exponent, "r_squared": fit.r_squared})
    sink.write_json(
        "estimates_summary.json",
        {
            "max_ratio": max(ratios),
            "median_ratio": _median(ratios),
            "last_dyadic_max_ratio": dyadic_max[-1],
            "median_dyadic_max_ratio": _median(dyadic_max),
            "all_finite": all(math.isfinite(x) for x in ratios),
            "band_fits": band_fits,
        },
    )


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

#: Positive-domain ranges of the scalar functions of eta; the negative side
#: follows by oddness.
_ETA_NEAR = (1.0 + 1e-3, 10.0)
_ETA_FAR = (1.05, 50.0)


def _scalar(name: str):
    return lambda x, anomalous: _resonance().scalar_function(name, x)


def _aux_phase(signs: tuple[int, int, int], eta0: float | None = None):
    """Column of the auxiliary phase at eta0, by default the anomalous eta0."""
    return lambda x, anomalous: _resonance().aux_phase(signs, x, anomalous().eta1 if eta0 is None else eta0)


#: Figure id -> (header, x range, columns).  A column maps (x, anomalous) to
#: its values, where anomalous() returns the anomalous point, computed at most
#: once per figure; the x range is a (lo, hi) pair or a function of
#: anomalous.  Functions of ``resonance`` are looked up, and the module imported, at call time.
_FIGURES = {
    1: ("xi,group_velocity", (-10.0, 10.0), [lambda x, anomalous: omega_prime(x)]),
    2: ("xi,phase_ppp,phase_mpp", (-20.0, 20.0), [_aux_phase((1, 1, 1), SQRT3), _aux_phase((-1, 1, 1), SQRT3)]),
    3: ("xi,phase_ppp,phase_pmm", (-40.0, 40.0), [_aux_phase((1, 1, 1)), _aux_phase((1, -1, -1))]),
    4: ("eta,reflection", _ETA_NEAR, [lambda x, anomalous: reflection(x)]),
    5: ("eta,partner_sum", _ETA_NEAR, [lambda x, anomalous: 3.0 * x + reflection(x)]),
    6: ("eta,triple_sum_phase", _ETA_FAR, [_scalar("triple-sum")]),
    7: ("eta,partner_diff", _ETA_NEAR, [lambda x, anomalous: 3.0 * x - reflection(x)]),
    8: ("eta,partner_diff", (4.5, 5.7), [lambda x, anomalous: 3.0 * x - reflection(x)]),
    9: ("eta,triple_diff_phase", (1.25, 50.0), [_scalar("triple-diff")]),
    10: ("eta,partner_neg_diff", _ETA_NEAR, [lambda x, anomalous: -x + reflection(x)]),
    11: ("eta,single_diff_phase", _ETA_FAR, [_scalar("single-diff")]),
    12: ("eta,partner_neg_sum", _ETA_NEAR, [lambda x, anomalous: -x - reflection(x)]),
    13: ("eta,single_sum_phase", _ETA_FAR, [_scalar("single-sum")]),
    14: ("xi,phase_ppp", lambda anomalous: (anomalous().xi - 2.0, anomalous().xi + 2.0), [_aux_phase((1, 1, 1))]),
    15: ("eta,triple_diff_phase", (5.05, 5.22), [_scalar("triple-diff")]),
    16: ("eta,double_sum_phase", _ETA_FAR, [_scalar("double-sum")]),
    17: ("eta,double_diff_phase", _ETA_FAR, [_scalar("double-diff")]),
}


def _figure_data(fig_id: int, n_points: int):
    """(header, columns) for each numbered figure target."""
    header, x_range, columns = _FIGURES[fig_id]
    anomalous = functools.cache(lambda: _resonance().anomalous_resonance().representative_points[0])
    lo, hi = x_range(anomalous) if callable(x_range) else x_range
    x = np.linspace(lo, hi, n_points)
    return header, [x] + [column(x, anomalous) for column in columns]


def run_figures(cfg: dict, sink: OutputSink):
    header, cols = _figure_data(cfg["id"], cfg["n_points"])
    sink.write_csv(f"figure_{cfg['id']:02d}.csv", header, zip(*[np.asarray(c).tolist() for c in cols]))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

#: Subcommand -> (runner, help line).
_RUNNERS = {
    "resonances": (run_resonances, "emit the resonance census"),
    "linear-decay": (run_linear_decay, "linear dispersive decay scan"),
    "evolve": (run_evolve, "nonlinear evolution with diagnostics"),
    "scatter": (run_scatter, "scattering Cauchy test"),
    "verify-estimates": (run_verify_estimates, "decay-bound ratio sweep"),
    "figures": (run_figures, "emit figure-underlying data"),
}


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag as a configuration error (exit 1): argparse's own
    exit code 2 is the documented code for a numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """One flag per config key of each subcommand (``t_max`` is ``--t-max``),
    typed by its default, plus ``--config`` and ``--output-dir``; built once
    per process, on first use, and shared by every ``main`` call."""
    p = _Parser(prog="gbbmlab", description=__doc__.splitlines()[0])
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_line) in _RUNNERS.items():
        sp = sub.add_parser(name, help=help_line)
        for key, default in _DEFAULTS[name].items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, dest=key, type=type(default), default=default, help=f"default: {default}")
        sp.add_argument("--config", help="INI config file")
        sp.add_argument("--output-dir", dest="output_dir", help="output directory")
    return p


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
        sub = args.subcommand
        if args.config:  # the INI file's flags go ahead of the command line's, so those win
            i = argv.index(sub) + 1
            args = parser.parse_args(argv[:i] + _ini_flags(args.config, sub) + argv[i:])
        cfg = {key: getattr(args, key) for key in _DEFAULTS[sub]}
        for key, ok, requirement in _CHECKS:
            if key in cfg and not ok(cfg[key]):
                raise ValueError(f"{key} must be {requirement}, got {cfg[key]!r}")
        out_dir = args.output_dir or os.environ.get(OUTPUT_DIR_ENV) or f"gbbmlab_{sub.replace('-', '_')}"
        sink = OutputSink(out_dir, sub, cfg)
        try:
            _RUNNERS[sub][0](cfg, sink)
            sink.finalize()
        except BaseException:
            sink.discard()
            raise
        return 0
    except (ValueError, configparser.Error, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
