import argparse
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gbbmlab import diagnostics, resonance, solver
from gbbmlab.cli import _CHECKS, _DEFAULTS, OutputSink, _median, build_parser, main, read_snapshot
from gbbmlab.dispersion import SQRT3
from gbbmlab.spectral import Grid


def run_cli(args):
    return main(args)


def test_resonances_census(tmp_path):
    out = tmp_path / "res"
    assert run_cli(["resonances", "--output-dir", str(out)]) == 0
    census = json.loads((out / "census.json").read_text())
    assert 5.07 <= census["anomalous"]["eta0"] <= 5.13
    assert 14.1 <= census["anomalous"]["xi0"] <= 14.3
    labels = {r["label"] for r in census["records"]}
    assert {"line", "curve", "origin-point", "inflection-point", "anomalous-point"} <= labels
    # each record is derived from its ResonanceRecord, every field but the sampler
    fields = {f.name for f in dataclasses.fields(resonance.ResonanceRecord)} - {"sampler"}
    for r in census["records"]:
        assert set(r) == fields
        for p in r["representative_points"]:
            assert set(p) == {"eta1", "eta2", "eta3", "eta4", "xi"}
            assert p["eta4"] == p["xi"] - p["eta1"] - p["eta2"] - p["eta3"]
        if r["classification"] == "space_time":
            assert r["residual_phase"] < 1e-9
            assert r["residual_gradient"] < 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert "census.json" in manifest["outputs"]


def test_figures_15_crosses_zero_once(tmp_path):
    out = tmp_path / "fig"
    assert run_cli(["figures", "--id", "15", "--output-dir", str(out)]) == 0
    lines = (out / "figure_15.csv").read_text().strip().splitlines()
    assert lines[0] == "eta,triple_diff_phase"
    ys = [float(line.split(",")[1]) for line in lines[1:]]
    crossings = sum(1 for a, b in zip(ys, ys[1:]) if a * b < 0)
    assert crossings == 1


@pytest.mark.parametrize("fig_id", range(1, 18))
def test_all_figure_targets_emit(tmp_path, fig_id):
    out = tmp_path / f"fig{fig_id}"
    assert run_cli(["figures", "--id", str(fig_id), "--n-points", "101", "--output-dir", str(out)]) == 0
    lines = (out / f"figure_{fig_id:02d}.csv").read_text().strip().splitlines()
    assert len(lines) == 102
    for line in lines[1:]:
        assert all(math.isfinite(float(v)) for v in line.split(","))


def test_invalid_figure_id(tmp_path, capsys):
    assert run_cli(["figures", "--id", "0", "--output-dir", str(tmp_path / "x")]) == 1
    assert "id must be in 1..17, got 0" in capsys.readouterr().err


def test_invalid_dt_exits_1(tmp_path):
    rc = run_cli(
        ["evolve", "--dt", "-0.5", "--t-end", "4", "--n-modes", "512",
         "--half-length", "64", "--output-dir", str(tmp_path / "x")]
    )
    assert rc == 1


def test_evolve_emits_diagnostics_and_snapshots(tmp_path):
    out = tmp_path / "ev"
    rc = run_cli(
        ["evolve", "--t-end", "4", "--dt", "0.05", "--n-modes", "2048",
         "--half-length", "128", "--record-stride", "20", "--output-dir", str(out)]
    )
    assert rc == 0
    lines = (out / "diagnostics.csv").read_text().strip().splitlines()
    assert lines[0] == "t,linf_fhat,weighted_l2,sobolev_s,sup_u"
    assert len(lines) > 3
    snap = read_snapshot(str(out / "profile_t4.bin"))
    assert snap.grid.n_modes == 2048
    assert snap.time == pytest.approx(4.0, abs=1e-9)
    assert np.all(np.isfinite(snap.coeffs))


def test_snapshot_files_are_deterministic(tmp_path):
    # two runs write the same bytes, and each manifest entry is the sha256 of
    # its file on disk
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run_cli(
            ["evolve", "--t-end", "4", "--dt", "0.05", "--n-modes", "512",
             "--half-length", "64", "--output-dir", str(out)]
        )
        assert rc == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        for file, digest in outputs.items():
            assert hashlib.sha256((out / file).read_bytes()).hexdigest() == digest
        runs.append({p.name: p.read_bytes() for p in out.glob("*.bin")})
    assert len(runs[0]) == 4
    assert runs[0] == runs[1]


def test_snapshot_roundtrip(tmp_path):
    # a written field reads back as its n/2 + 1 coefficients, bitwise, a
    # complex Nyquist entry included
    field = solver.gaussian_data(Grid(512, 64.0), 0.5, width=0.05, time=4.0)
    field.coeffs[-1] += 0.25j
    sink = OutputSink(str(tmp_path), "evolve", {})
    sink.write_snapshot("final_state.bin", field)
    f = read_snapshot(str(tmp_path / "final_state.bin"))
    assert (f.grid, f.time) == (field.grid, field.time)
    assert np.array_equal(f.coeffs, field.coeffs)


def test_snapshot_format_is_the_half_spectrum(tmp_path):
    # the file is a 24-byte header (n, L, t) and the n/2 + 1 half-spectrum
    # coefficients as complex128; one in the full layout of n coefficients
    # is refused
    n = 8
    rng = np.random.default_rng(1)
    half = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
    half[0] = half[0].real
    half[-1] += 0.25j
    inter = np.empty(2 * half.size)
    inter[0::2], inter[1::2] = half.real, half.imag
    path = tmp_path / "half.bin"
    path.write_bytes(struct.pack("<qdd", n, 2.0, 3.0) + inter.astype("<f8").tobytes())
    f = read_snapshot(str(path))
    assert (f.grid, f.time) == (Grid(n, 2.0), 3.0)
    assert np.array_equal(f.coeffs, half)
    full = np.fft.fft(rng.standard_normal(n))
    path.write_bytes(struct.pack("<qdd", n, 2.0, 3.0) + full.astype("<c16").tobytes())
    with pytest.raises(ValueError, match="n/2 \\+ 1"):
        read_snapshot(str(path))


@pytest.mark.parametrize("size", [0, 23])
def test_snapshot_shorter_than_its_header_is_refused(tmp_path, size):
    path = tmp_path / "short.bin"
    path.write_bytes(struct.pack("<qdd", 8, 2.0, 3.0)[:size])
    with pytest.raises(ValueError, match="24-byte snapshot header"):
        read_snapshot(str(path))


def test_config_file_and_flag_override(tmp_path):
    cfgfile = tmp_path / "exp.ini"
    cfgfile.write_text("[figures]\nid = 6\nn_points = 11\n")
    out = tmp_path / "f"
    assert run_cli(["figures", "--config", str(cfgfile), "--output-dir", str(out)]) == 0
    assert (out / "figure_06.csv").exists()
    lines = (out / "figure_06.csv").read_text().strip().splitlines()
    assert len(lines) == 12
    # flag wins over config
    out2 = tmp_path / "g"
    assert run_cli(
        ["figures", "--config", str(cfgfile), "--id", "4", "--output-dir", str(out2)]
    ) == 0
    assert (out2 / "figure_04.csv").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_config_exits_1(tmp_path, capsys, kind):
    # ConfigParser.read skips a path it cannot open, which ran the defaults
    path = tmp_path / "cfg"
    if kind == "directory":
        path.mkdir()
    out = tmp_path / "x"
    assert run_cli(["figures", "--id", "1", "--n-points", "3", "--config", str(path), "--output-dir", str(out)]) == 1
    assert f"cannot read config file {path}" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfgfile = tmp_path / "bad.ini"
    cfgfile.write_text("[figures]\nbogus = 1\n")
    assert run_cli(["figures", "--config", str(cfgfile), "--output-dir", str(tmp_path / "x")]) == 1


_SMALL_EVOLVE = ["--t-end", "2", "--dt", "0.05", "--n-modes", "256", "--half-length", "32"]


@pytest.mark.parametrize(
    "argv, ini",
    [
        (["evolve"] + _SMALL_EVOLVE, "[evolve]\nsnapshots = bogus\n"),
        (["evolve", "--snapshots", "bogus"] + _SMALL_EVOLVE, None),
        (["linear-decay", "--profile", "bogus"], None),
    ],
    ids=["ini-snapshots", "flag-snapshots", "flag-profile"],
)
def test_unknown_string_value_exits_1(tmp_path, capsys, argv, ini):
    if ini is not None:
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(ini)
        argv = argv + ["--config", str(cfgfile)]
    assert run_cli(argv + ["--output-dir", str(tmp_path / "x")]) == 1
    assert "bogus" in capsys.readouterr().err
    assert not (tmp_path / "x" / "manifest.json").exists()


@pytest.mark.parametrize(
    "argv, ini",
    [
        (["figures"], "[figures]\nid = 4.7\n"),
        (["evolve"] + _SMALL_EVOLVE, "[evolve]\nrecord_stride = 2.5\n"),
        (["figures", "--id", "4.7"], None),
    ],
    ids=["ini-id", "ini-record-stride", "flag-id"],
)
def test_non_integer_value_for_int_key_exits_1(tmp_path, argv, ini):
    if ini is not None:
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(ini)
        argv = argv + ["--config", str(cfgfile)]
    assert run_cli(argv + ["--output-dir", str(tmp_path / "x")]) == 1
    assert not (tmp_path / "x" / "manifest.json").exists()


def test_flags_match_config_keys():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_DEFAULTS)
    for name, sp in subparsers.choices.items():
        flags = {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        keys = {"--" + key.replace("_", "-") for key in _DEFAULTS[name]}
        assert flags == keys | {"--config", "--output-dir"}


def test_parser_is_built_once_and_main_calls_do_not_leak(tmp_path):
    # flags and INI values of one call reach neither a later call of the same
    # subcommand nor one of another subcommand
    assert build_parser() is build_parser()
    ini = tmp_path / "a.ini"
    ini.write_text("[figures]\nid = 6\nn_points = 11\n")
    decay = ["linear-decay", "--t-min", "1", "--t-max", "8", "--n-modes", "1024", "--half-length", "64"]
    runs = [
        (["figures", "--config", str(ini), "--n-points", "5"], {"id": 6, "n_points": 5}),
        (decay + ["--width", "0.25"], {"t_min": 1.0, "t_max": 8.0, "n_modes": 1024, "half_length": 64.0, "width": 0.25}),
        (["figures", "--id", "4"], {"id": 4}),
        (decay, {"t_min": 1.0, "t_max": 8.0, "n_modes": 1024, "half_length": 64.0}),
    ]
    for i, (argv, cfg) in enumerate(runs):
        out = tmp_path / f"run{i}"
        assert run_cli(argv + ["--output-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"] == _DEFAULTS[argv[0]] | cfg
    assert sorted(p.name for p in (tmp_path / "run2").iterdir()) == ["figure_04.csv", "manifest.json"]


def _per_cell_csv(header, rows):
    """The writer's rule applied cell by cell: the reference for write_csv."""
    lines = [",".join(f"{float(v):.17g}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join([header] + lines) + "\n"


def test_write_csv_matches_the_per_cell_rule(tmp_path):
    sink = OutputSink(str(tmp_path), "figures", {})
    rows = [
        (0.1, 7, "", -math.inf),
        (-0.0, np.int64(-3), "aggregate", 1e-300),
        (math.nan, 12, "a%sb", np.float64(2.0) / 3.0),
        (math.inf, 0, "", 5e-324),
    ]
    for name, table in (("mixed.csv", rows), ("empty.csv", [])):
        sink.write_csv(name, "a,b,c,d", iter(table))
        assert (tmp_path / name).read_text() == _per_cell_csv("a,b,c,d", table)
    assert (tmp_path / "empty.csv").read_text() == "a,b,c,d\n"


@pytest.mark.parametrize(
    "rows",
    [[(1.0, 2.0), (3, 4.0)], [(1, 2.0), (1.5, 3.0)], [(1.0, "x"), ("y", "z")], [(1.0, 2.0), (3.0,)]],
    ids=["float-then-int", "int-then-float", "float-then-str", "ragged"],
)
def test_write_csv_rejects_a_column_that_changes_kind(tmp_path, rows):
    with pytest.raises(ValueError):
        OutputSink(str(tmp_path), "figures", {}).write_csv("bad.csv", "a,b", rows)


def test_every_checked_key_is_a_config_key():
    # a misspelt key in the table would turn its check off without a failure
    keys = {key for section in _DEFAULTS.values() for key in section}
    assert {key for key, _, _ in _CHECKS} <= keys


def test_determinism_byte_identical_text_outputs(tmp_path):
    texts = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli(["figures", "--id", "9", "--output-dir", str(out)]) == 0
        texts.append((out / "figure_09.csv").read_bytes())
    assert texts[0] == texts[1]


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GBBMLAB_OUTPUT_DIR", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["figures", "--id", "1"]) == 0
    assert (tmp_path / "envout" / "figure_01.csv").exists()


_SMALL_GRID = ["--n-modes", "256", "--half-length", "32"]
#: Records t = 1, 1.5, ..., 4: the four samples the bootstrap fit needs.
_SMALL_EVOLVE_4 = ["evolve", "--t-end", "4", "--dt", "0.05"] + _SMALL_GRID

#: One small run per CSV writer: (argv, file, header, has aggregate rows).
_CSV_RUNS = {
    "decay-gaussian": (
        ["linear-decay", "--t-min", "1", "--t-max", "16", "--n-modes", "4096", "--half-length", "256"],
        "decay.csv", "t,k,case_id,lhs,rhs,ratio", True,
    ),
    "decay-band": (
        ["linear-decay", "--profile", "band", "--k", "1", "--t-min", "1", "--t-max", "16",
         "--n-modes", "4096", "--half-length", "256"],
        "decay.csv", "t,k,case_id,lhs,rhs,ratio", False,
    ),
    "estimates": (
        ["verify-estimates", "--k-min", "0", "--k-max", "1", "--t-max", "32", "--width", "0.5",
         "--n-modes", "1024", "--half-length", "64"],
        "estimates.csv", "t,k,case_id,lhs,rhs,ratio", False,
    ),
    "scattering": (["scatter", "--t-end", "16"] + _SMALL_GRID, "scattering.csv", "t,diff_linf,diff_l2", False),
    "diagnostics": (
        _SMALL_EVOLVE_4, "diagnostics.csv", "t,linf_fhat,weighted_l2,sobolev_s,sup_u", False,
    ),
    "figure_04": (["figures", "--id", "4", "--n-points", "11"], "figure_04.csv", "eta,reflection", False),
}


#: One small run of each subcommand.
_MANIFEST_RUNS = {
    "resonances": ["resonances"],
    "figures": ["figures", "--id", "1"],
    "linear-decay": _CSV_RUNS["decay-gaussian"][0],
    "evolve": _SMALL_EVOLVE_4,
    "scatter": ["scatter", "--t-end", "16"] + _SMALL_GRID,
    "verify-estimates": ["verify-estimates", "--t-max", "32"],
}


@pytest.mark.parametrize("argv", _MANIFEST_RUNS.values(), ids=_MANIFEST_RUNS.keys())
def test_manifest_lists_every_output_by_its_sha256(tmp_path, argv):
    # the output directory holds exactly the manifest's outputs and the
    # manifest, and each entry is the sha256 of its file on disk
    out = tmp_path / "run"
    assert run_cli(argv + ["--output-dir", str(out)]) == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(p.name for p in out.iterdir()) == sorted([*outputs, "manifest.json"])
    for name, digest in outputs.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, name, header, aggregate", _CSV_RUNS.values(), ids=_CSV_RUNS.keys())
def test_seventeen_digit_floats(tmp_path, argv, name, header, aggregate):
    out = tmp_path / "run"
    assert run_cli(argv + ["--output-dir", str(out)]) == 0
    lines = (out / name).read_text().strip().splitlines()
    assert lines[0] == header
    assert len(lines) > 2
    for line in lines[1:]:
        cells = dict(zip(header.split(","), line.split(","), strict=True))
        if aggregate:
            # an aggregate row belongs to no band: k, rhs and ratio are empty
            assert [cells.pop(c) for c in ("k", "case_id", "rhs", "ratio")] == ["", "aggregate", "", ""]
        for col in ("k", "case_id"):
            if col in cells:
                tok = cells.pop(col)
                assert tok == str(int(tok))
        for tok in cells.values():
            assert float(tok) == float(f"{float(tok):.17g}")
            assert tok == f"{float(tok):.17g}"


def test_scatter_summary(tmp_path):
    out = tmp_path / "sc"
    rc = run_cli(
        ["scatter", "--t-end", "16", "--n-modes", "1024", "--half-length", "128",
         "--output-dir", str(out)]
    )
    assert rc == 0
    summary = json.loads((out / "scattering_summary.json").read_text())
    assert "fitted_exponent" in summary
    lines = (out / "scattering.csv").read_text().strip().splitlines()
    assert lines[0] == "t,diff_linf,diff_l2"
    # rows t = 1, 2, 4, 8: a single late row, so the fit falls back to all
    # rows and no pair from t = 8 on is compared; the summary says so
    assert summary["fit_window"] == [1.0, 8.0]
    assert summary["fit_points"] == len(lines) - 1 == 4
    assert summary["late_pairs"] == 0


def test_scatter_non_dividing_dt_exits_1(tmp_path, capsys):
    out = tmp_path / "sc"
    rc = run_cli(
        ["scatter", "--dt", "0.07", "--t-end", "16", "--n-modes", "256", "--half-length", "32",
         "--output-dir", str(out)]
    )
    assert rc == 1
    assert "divide" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_evolve_near_sqrt3_transform_peaks_at_sqrt3(tmp_path):
    # evolve's near-sqrt3 data is linear-decay's: a transform of width
    # `width` about +-sqrt(3), not a spatial Gaussian of width `width`
    out = tmp_path / "ev"
    assert run_cli(_SMALL_EVOLVE_4 + ["--profile", "near-sqrt3", "--output-dir", str(out)]) == 0
    f = read_snapshot(str(out / "profile_t1.bin"))
    peak = f.grid.frequencies[int(np.argmax(np.abs(f.coeffs)))]
    assert abs(abs(peak) - SQRT3) <= f.grid.dxi


@pytest.mark.parametrize(
    "argv, message, ini",
    [
        (["linear-decay", "--width", "0"], "width must be positive", None),
        (["linear-decay", "--profile", "near-sqrt3", "--width", "0"], "width must be positive", None),
        (["evolve", "--width", "-0.5"] + _SMALL_EVOLVE, "width must be positive", None),
        (["evolve", "--profile", "near-sqrt3", "--width", "0"] + _SMALL_EVOLVE, "width must be positive", None),
        (["scatter", "--width", "-0.5"] + _SMALL_GRID, "width must be positive", None),
        (["verify-estimates", "--width", "0"], "width must be positive", None),
        (["evolve", "--t-end", "5", "--record-stride", "3"] + _SMALL_GRID, "no snapshot at 2", None),
        (["scatter", "--t-end", "8"] + _SMALL_GRID, "t_end must be >= 16", None),
        (["scatter", "--t-end", "16", "--dt", "0.06"] + _SMALL_GRID, "no snapshot at 2", None),
        (["evolve", "--profile", "band"] + _SMALL_EVOLVE, "unknown profile 'band'", None),
        (["linear-decay", "--t-max", "inf"], "need 0 < t_min <= t_max < inf", None),
        (["verify-estimates", "--t-min", "0"], "need 0 < t_min <= t_max < inf", None),
        (["verify-estimates", "--t-max", "nan"], "need 0 < t_min <= t_max < inf", None),
        (["evolve", "--t-end", "2", "--dt", "0.05"] + _SMALL_GRID, "3 records", None),
        (["evolve", "--t-end", "4", "--dt", "-0.05"] + _SMALL_GRID, "dt = -0.05 must be positive", None),
        (["evolve", "--t-end", "inf"] + _SMALL_GRID, "t_end = inf must be finite", None),
        (["scatter", "--t-end", "inf"] + _SMALL_GRID, "t_end = inf must be finite", None),
        (["resonances", "--tol", "nan"], "tol must be positive", None),
        (_SMALL_EVOLVE_4 + ["--s", "nan"], "s must be finite", None),
        (["verify-estimates", "--s", "nan"], "s must be finite", None),
        (["linear-decay", "--profile", "band", "--k", "20"], "too small for band k = 20", None),
        (["evolve", "--t-end", "16", "--dt", "0.07", "--snapshots", "none"] + _SMALL_GRID, "does not divide", None),
        (["evolve", "--n-modes", "1", "--t-end", "5"], "n_modes must be a power of two >= 2", None),
        (_SMALL_EVOLVE_4 + ["--epsilon", "0"], "epsilon must be nonzero and finite", None),
        (_SMALL_EVOLVE_4 + ["--epsilon", "nan"], "epsilon must be nonzero and finite", None),
        (["scatter", "--t-end", "16", "--epsilon", "0"] + _SMALL_GRID, "epsilon must be nonzero and finite", None),
        (["scatter", "--t-end", "16", "--epsilon", "nan"] + _SMALL_GRID, "epsilon must be nonzero and finite", None),
        (_SMALL_EVOLVE_4 + ["--half-length", "nan"], "half_length must be positive and finite", None),
        (_SMALL_EVOLVE_4 + ["--half-length", "inf"], "half_length must be positive and finite", None),
        (["scatter", "--t-end", "16", "--half-length", "nan"], "half_length must be positive and finite", None),
        (["scatter", "--t-end", "16", "--half-length", "inf"], "half_length must be positive and finite", None),
        (["linear-decay", "--half-length", "nan"], "half_length must be positive and finite", None),
        (["linear-decay", "--half-length", "inf"], "half_length must be positive and finite", None),
        (["verify-estimates", "--half-length", "nan"], "half_length must be positive and finite", None),
        (["verify-estimates", "--half-length", "inf"], "half_length must be positive and finite", None),
        (_SMALL_EVOLVE_4 + ["--carrier", "nan"], "carrier must be finite, got nan", None),
        (_SMALL_EVOLVE_4 + ["--carrier", "inf"], "carrier must be finite", None),
        (["linear-decay", "--profile", "near-sqrt3", "--width", "inf"], "width must be positive and finite", None),
        (["scatter", "--t-end", "16", "--width", "inf"] + _SMALL_GRID, "width must be positive and finite", None),
        (_SMALL_EVOLVE_4 + ["--width", "inf"], "width must be positive and finite", None),
        # INI twins of the linear-decay-width-0 and evolve-carrier-nan rows: the flag's whole message
        (["linear-decay"], "width must be positive and finite, got 0.0", "[linear-decay]\nwidth = 0\n"),
        (_SMALL_EVOLVE_4, "carrier must be finite, got nan", "[evolve]\ncarrier = nan\n"),
        (["resonances", "--tol", "inf"], "tol must be positive and finite, got inf", None),
        (_SMALL_EVOLVE_4, "File contains no section headers", "width = 0.5\n"),
        (_SMALL_EVOLVE_4, "option 's' in section 'evolve' already exists", "[evolve]\ns = 1\ns = 2\n"),
        # 2^48 points is 2 PiB, beyond the 47-bit user address space, so the
        # allocation fails at once under any overcommit setting
        (["figures", "--id", "3", "--n-points", str(2**48)], "error: Unable to allocate", None),
    ],
    ids=[
        "linear-decay-width-0", "linear-decay-near-sqrt3-width-0", "evolve-width-negative",
        "evolve-near-sqrt3-width-0", "scatter-width-negative", "verify-estimates-width-0",
        "evolve-stride-misses-dyadic", "scatter-short", "scatter-dt-misses-dyadic", "evolve-band",
        "linear-decay-t-max-inf", "verify-estimates-t-min-0", "verify-estimates-t-max-nan", "evolve-short",
        "evolve-dt-negative", "evolve-t-end-inf", "scatter-t-end-inf", "resonances-tol-nan", "evolve-s-nan",
        "verify-estimates-s-nan", "linear-decay-band-k-above-nyquist", "evolve-dt-not-dividing",
        "evolve-one-mode", "evolve-epsilon-0", "evolve-epsilon-nan", "scatter-epsilon-0", "scatter-epsilon-nan",
        "evolve-half-length-nan", "evolve-half-length-inf", "scatter-half-length-nan", "scatter-half-length-inf",
        "linear-decay-half-length-nan", "linear-decay-half-length-inf", "verify-estimates-half-length-nan",
        "verify-estimates-half-length-inf", "evolve-carrier-nan", "evolve-carrier-inf",
        "linear-decay-near-sqrt3-width-inf", "scatter-width-inf", "evolve-width-inf",
        "ini-linear-decay-width-0", "ini-evolve-carrier-nan", "resonances-tol-inf",
        "ini-no-section-header", "ini-duplicate-key", "figures-n-points-2-48",
    ],
)
def test_bad_configuration_rejected_before_data(tmp_path, capsys, monkeypatch, argv, message, ini):
    # every runner that integrates or scans builds its data with gaussian_data;
    # an INI key is parsed as its flag, so it is rejected with the flag's message
    monkeypatch.setattr(solver, "gaussian_data", lambda *a, **k: pytest.fail("data built before rejection"))
    if ini is not None:
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(ini)
        argv = argv + ["--config", str(cfgfile)]
    out = tmp_path / "x"
    assert run_cli(argv + ["--output-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [_SMALL_EVOLVE_4 + ["--s", "200"], ["verify-estimates", "--t-max", "32", "--s", "400"]],
    ids=["evolve", "verify-estimates"],
)
def test_overflowing_sobolev_weight_rejected(tmp_path, capsys, monkeypatch, argv):
    # 2 (1 + xi_N^2)^s overflows on the run's grid: exit 1 naming s, before
    # any step and with no manifest, not an inf norm and a NaN fit
    monkeypatch.setattr(solver, "step", lambda *a, **k: pytest.fail("stepped before rejection"))
    out = tmp_path / "x"
    assert run_cli(argv + ["--output-dir", str(out)]) == 1
    assert f"error: s = {argv[-1]} overflows" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert not out.exists()


def test_overflowing_s_without_a_case_1_row_still_runs(tmp_path):
    # verify-estimates forms the H^s weight for a case-1 row only; at t <= 32
    # the bands up to k = 4 have none
    out = tmp_path / "ve"
    assert run_cli(["verify-estimates", "--t-max", "32", "--s", "400", "--k-max", "4", "--output-dir", str(out)]) == 0
    assert json.loads((out / "estimates_summary.json").read_text())["all_finite"] is True


def test_scatter_is_a_reading_of_evolve(tmp_path):
    # scatter integrates evolve's run: the scattering test of evolve's dyadic
    # profile snapshots, written by the same CSV writer, is scatter's table
    ev, sc = tmp_path / "ev", tmp_path / "sc"
    assert run_cli(["evolve", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(ev)]) == 0
    assert run_cli(["scatter", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(sc)]) == 0
    profiles = [(t, read_snapshot(str(ev / f"profile_t{t}.bin"))) for t in (1, 2, 4, 8, 16)]
    sink = OutputSink(str(tmp_path / "read"), "scatter", {})
    sink.write_csv("scattering.csv", "t,diff_linf,diff_l2", diagnostics.scattering_test(profiles))
    assert (tmp_path / "read" / "scattering.csv").read_bytes() == (sc / "scattering.csv").read_bytes()


def test_scatter_records_whole_times_only(tmp_path, monkeypatch):
    # every dyadic time is a whole time, so scatter records t = 1, 2, ..., t_end
    # and not every step
    times = []
    record = diagnostics.Recorder.__call__
    monkeypatch.setattr(diagnostics.Recorder, "__call__", lambda self, f, p: times.append(f.time) or record(self, f, p))
    assert run_cli(["scatter", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(tmp_path / "sc")]) == 0
    assert times == [float(t) for t in range(1, 17)]


def test_off_lattice_dyadic_time_allowed_without_snapshots(tmp_path):
    out = tmp_path / "ev"
    argv = ["evolve", "--t-end", "5", "--record-stride", "3", "--snapshots", "none"] + _SMALL_GRID
    assert run_cli(argv + ["--output-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 2.0],
        [0.1, 0.7, 0.3, 0.2],
        [1e308, 1.7e308, 0.0, 1.5e308],
        [0.1, 0.2],
        [5.0],
        [math.inf, 1.0, 2.0],
        [-math.inf, 1.0],
        [-math.inf, math.inf],
        [math.inf, math.inf, -math.inf, 1.0],
        [1.0, math.nan, 2.0],
        [math.nan, math.inf],
    ],
)
def test_median_is_bitwise_np_median(values):
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, and 1e308 + 1.7e308
        want = float(np.median(values))
    got = _median(values)
    assert (math.isnan(got) and math.isnan(want)) or (got == want and math.copysign(1.0, got) == math.copysign(1.0, want))


def test_verify_estimates_does_not_import_numpy_ma(tmp_path):
    # in a fresh interpreter: this test process has imported numpy.ma already
    code = (
        "import sys\n"
        "from gbbmlab import cli\n"
        f"assert cli.main(['verify-estimates', '--t-max', '32', '--output-dir', {str(tmp_path)!r}]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]
