import argparse
import dataclasses
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from gbbmlab import diagnostics, linear_flow, resonance, solver
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
    sink.finalize()
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


def test_snapshot_is_written_from_the_field_s_own_buffer(tmp_path):
    # a 2^14-mode half-spectrum is 131 KB; the header and that buffer are written and digested
    # where they lie, so writing one traces far less than one copy of it
    field = solver.gaussian_data(Grid(2**14, 2048.0), 1e-2, time=3.0)
    expected = struct.pack("<qdd", 2**14, 2048.0, 3.0) + field.coeffs.astype("<c16").tobytes()
    sink = OutputSink(str(tmp_path), "evolve", {})
    sink.write_snapshot("warm.bin", field)  # the first write makes the directory
    tracemalloc.start()
    try:
        sink.write_snapshot("profile_t3.bin", field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    sink.finalize()
    assert peak < 16_000
    assert (tmp_path / "profile_t3.bin").read_bytes() == expected
    assert sink.checksums["profile_t3.bin"] == hashlib.sha256(expected).hexdigest()


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
        assert Path(sink.path(name)).read_text() == _per_cell_csv("a,b,c,d", table)
    sink.finalize()
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


def test_linear_decay_peak_read_off_a_sub_box_is_the_full_boxs(tmp_path):
    # at t_max = 1600 the last time is read off a quarter of the default box; its argmax,
    # mapped back into the cone, is the full box's sample
    out = tmp_path / "ld"
    assert run_cli(["linear-decay", "--profile", "near-sqrt3", "--t-max", "1600", "--output-dir", str(out)]) == 0
    summary = json.loads((out / "decay_summary.json").read_text())
    grid, t = Grid(_DEFAULTS["linear-decay"]["n_modes"], _DEFAULTS["linear-decay"]["half_length"]), 1600.0
    field = solver.gaussian_data(grid, 1.0, 1.0 / _DEFAULTS["linear-decay"]["width"], SQRT3, time=0.0)
    x_max = -grid.half_length + grid.dx * int(np.argmax(np.abs(linear_flow.propagate_linear(field, t).physical())))
    assert (summary["argmax_x"], summary["ray_x"]) == (x_max, -t / 8.0)
    assert summary["ray_relative_error"] == abs(x_max + t / 8.0) / (t / 8.0)


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
        (["linear-decay", "--profile", "band"], "unknown profile 'band' for this subcommand", None),
        (["linear-decay", "--k", "4"], "unrecognized arguments: --k 4", None),
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
        (["verify-estimates", "--k-max", "20"], "too small for band k = 20", None),
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
        # the decay fit needs 4 dyadic times: 100, 200 and 400 are 3
        (["linear-decay", "--t-max", "400"], "3 dyadic times from t_min = 100 to t_max = 400; the fit needs 4", None),
        (["linear-decay", "--t-min", "1e300", "--t-max", "1e300"], "1 dyadic times from t_min = 1e+300", None),
        # 2 w^2 underflows to 0, where the data would be 0/0 at x = 0, to a subnormal, or overflows
        (["evolve", "--width", "1e-300", "--n-modes", "256", "--half-length", "64", "--t-end", "16"],
         "the gaussian data's Gaussian has width w = 1e-300, and 2 w^2 = 0 is not a positive normal float", None),
        (["linear-decay", "--profile", "near-sqrt3", "--width", "1e300", "--n-modes", "1024", "--half-length", "512",
          "--t-min", "1", "--t-max", "8"], "the near-sqrt3 data's Gaussian has width w = 1e-300, and 2 w^2 = 0 is", None),
        (["verify-estimates", "--width", "1e-160"], "w = 1e-160, and 2 w^2 = 1.99998e-320 is not", None),
        (_SMALL_EVOLVE_4 + ["--width", "1e160"], "w = 1e+160, and 2 w^2 = inf is not", None),
        # 2 w^2 = 2.42e-308 is normal, but 64^2 / (2 w^2) = 1.7e311 at the box edge is not a float
        (["evolve", "--width", "1.1e-154", "--n-modes", "256", "--half-length", "64", "--t-end", "16"],
         "w = 1.1e-154, and x^2 / (2 w^2) overflows at the box edge x = -64", None),
        # the waves wrap around the box: this scatter run exits 0 with a fitted exponent of -0.125 otherwise
        (["scatter", "--t-end", "1024", "--n-modes", "1024", "--half-length", "128"],
         "the waves wrap around the box [-L, L) with L = 128 after a time 163.819, short of the run's 1023", None),
        (["linear-decay", "--t-max", "102400"], "after a time 15735.4, short of the run's 102400", None),
        (["evolve", "--t-end", "33"] + _SMALL_GRID, "wrap around the box [-L, L) with L = 32", None),
        # the wrap check comes before the lattice is counted: 10^21 steps, or a stride that misses 2^56
        (["evolve", "--t-end", "1e20"], "the waves wrap around the box [-L, L) with L = 2048 after a time 3477.88", None),
        (["scatter", "--t-end", "1e20"], "the waves wrap around the box [-L, L) with L = 512 after a time 807.113", None),
        (["evolve", "--t-end", "1e17", "--n-modes", "256", "--half-length", "64"],
         "the waves wrap around the box [-L, L) with L = 64 after a time 64.9356, short of the run's 1e+17", None),
        # the data's reach 60 * 8.57 = 514 is past L = 512: the band rows' quadrature fails to converge otherwise
        (["verify-estimates", "--width", "60"], "the gaussian data reaches |x| = 514.3, past the box", None),
        # a box that holds the waves, but a lattice of 10^21 steps, more than an index holds
        (["evolve", "--n-modes", "256", "--half-length", "1e30", "--t-end", "1e20"],
         "into 1e+21 steps, more than an index holds", None),
        (["scatter", "--n-modes", "256", "--half-length", "1e30", "--t-end", "1e20"],
         "into 1e+21 steps, more than an index holds", None),
    ],
    ids=[
        "linear-decay-width-0", "linear-decay-near-sqrt3-width-0", "evolve-width-negative",
        "evolve-near-sqrt3-width-0", "scatter-width-negative", "verify-estimates-width-0",
        "evolve-stride-misses-dyadic", "scatter-short", "scatter-dt-misses-dyadic", "evolve-band",
        "linear-decay-band", "linear-decay-k", "linear-decay-t-max-inf", "verify-estimates-t-min-0",
        "verify-estimates-t-max-nan", "evolve-short",
        "evolve-dt-negative", "evolve-t-end-inf", "scatter-t-end-inf", "resonances-tol-nan", "evolve-s-nan",
        "verify-estimates-s-nan", "verify-estimates-k-above-nyquist", "evolve-dt-not-dividing",
        "evolve-one-mode", "evolve-epsilon-0", "evolve-epsilon-nan", "scatter-epsilon-0", "scatter-epsilon-nan",
        "evolve-half-length-nan", "evolve-half-length-inf", "scatter-half-length-nan", "scatter-half-length-inf",
        "linear-decay-half-length-nan", "linear-decay-half-length-inf", "verify-estimates-half-length-nan",
        "verify-estimates-half-length-inf", "evolve-carrier-nan", "evolve-carrier-inf",
        "linear-decay-near-sqrt3-width-inf", "scatter-width-inf", "evolve-width-inf",
        "ini-linear-decay-width-0", "ini-evolve-carrier-nan", "resonances-tol-inf",
        "ini-no-section-header", "ini-duplicate-key", "figures-n-points-2-48",
        "linear-decay-three-times", "linear-decay-one-time",
        "evolve-width-1e-300", "linear-decay-near-sqrt3-width-1e300", "verify-estimates-width-subnormal-square",
        "evolve-width-square-overflows", "evolve-width-edge-exponent-overflows",
        "scatter-waves-wrap", "linear-decay-waves-wrap", "evolve-waves-wrap",
        "evolve-t-end-1e20", "scatter-t-end-1e20", "evolve-t-end-1e17-small-grid", "verify-estimates-width-60",
        "evolve-lattice-past-an-index", "scatter-lattice-past-an-index",
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


class _DataBuilt(Exception):
    """Raised in place of building a run's data: every up-front check has passed."""


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve"],
        ["scatter"],
        ["linear-decay"],
        ["linear-decay", "--profile", "near-sqrt3"],
        ["verify-estimates", "--k-min", "4", "--k-max", "4"],
        ["verify-estimates"],
        # the tightest boxes Tier-1 runs: 2L = 64 and 256
        ["scatter", "--t-end", "16"] + _SMALL_GRID,
        _SMALL_EVOLVE_4 + ["--profile", "near-sqrt3"],
        ["scatter", "--t-end", "128", "--n-modes", "1024", "--half-length", "128"],
        # band rows are a continuum quadrature, which reads no box: its waves may wrap
        ["verify-estimates", "--k-min", "4", "--k-max", "4", "--t-max", "102400"],
    ],
    ids=["evolve", "scatter", "linear-decay", "linear-decay-near-sqrt3", "verify-estimates-band-4",
         "verify-estimates", "scatter-small-grid", "evolve-near-sqrt3-small-grid",
         "scatter-t-end-128-half-length-128", "verify-estimates-band-4-t-max-102400"],
)
def test_runs_inside_their_box_pass_the_wrap_check(tmp_path, monkeypatch, argv):
    # each default and each tight box reaches its data unrefused; nothing is integrated
    def gaussian_data(*args, **kwargs):
        raise _DataBuilt

    monkeypatch.setattr(solver, "gaussian_data", gaussian_data)
    with pytest.raises(_DataBuilt):
        run_cli(argv + ["--output-dir", str(tmp_path / "x")])
    assert not (tmp_path / "x").exists()


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


def test_quadrature_that_fails_to_self_converge_exits_2(tmp_path, capsys, monkeypatch):
    # the benchmark's verify-estimates run at a phase step of 4 pi between every
    # other fine node: band 3 at t = 16 is the first row whose two rules disagree
    monkeypatch.setattr(linear_flow, "PHASE_STEP", 4.0 * math.pi)
    out = tmp_path / "ve"
    assert run_cli(["verify-estimates", "--t-max", "32", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: band quadrature failed to self-converge at k=3, t=16.0\n"
    assert not out.exists()


def test_one_band_sweep_fits_the_bands_exponent(tmp_path):
    # band 4 of a spike on the 2^18 grid, t = 100 ... 6400: the early rows are pre-asymptotic, so the
    # lhs column decays at -0.44, not the asymptotic -1/2
    out = tmp_path / "ve"
    argv = ["verify-estimates", "--k-min", "4", "--k-max", "4", "--width", "0.03125", "--t-min", "100",
            "--t-max", "10000", "--n-modes", "262144", "--half-length", "9000", "--output-dir", str(out)]
    assert run_cli(argv) == 0
    assert json.loads((out / "estimates_summary.json").read_text())["band_fits"] == [
        {"k": 4, "fitted_exponent": -0.4413188159834028, "r_squared": 0.9935914380102736}
    ]


@pytest.mark.parametrize("t_max, n_fits", [("128", 3), ("32", 0)])
def test_band_fits_are_the_fits_of_each_bands_rows(tmp_path, t_max, n_fits):
    # one fit of the lhs column per band, in order of k, over the rows as written; the two times
    # 16 and 32 are too few for any
    out = tmp_path / "ve"
    assert run_cli(["verify-estimates", "--k-min", "0", "--k-max", "2", "--t-max", t_max, "--output-dir", str(out)]) == 0
    by_k: dict[int, list] = {}
    for line in (out / "estimates.csv").read_text().splitlines()[1:]:
        t, k, _, lhs, _, _ = line.split(",")
        by_k.setdefault(int(k), []).append((float(t), float(lhs)))
    fits = [(k, diagnostics.fit_decay(pts)) for k, pts in by_k.items() if len(pts) >= 4]
    assert len(fits) == n_fits
    assert json.loads((out / "estimates_summary.json").read_text())["band_fits"] == [
        {"k": k, "fitted_exponent": fit.exponent, "r_squared": fit.r_squared} for k, fit in fits
    ]


def test_band_fit_over_a_non_positive_lhs_exits_2(tmp_path, capsys, monkeypatch):
    # the lhs column is computed, so a value the log-log fit cannot take is a numerical failure
    bound = linear_flow.dispersive_bound
    monkeypatch.setattr(linear_flow, "dispersive_bound", lambda *a: dataclasses.replace(bound(*a), lhs=0.0))
    out = tmp_path / "ve"
    assert run_cli(["verify-estimates", "--k-min", "0", "--k-max", "0", "--t-max", "128", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: non-positive value in fit window\n"
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
    sink.finalize()
    assert (tmp_path / "read" / "scattering.csv").read_bytes() == (sc / "scattering.csv").read_bytes()


def test_scatter_records_whole_times_only(tmp_path, monkeypatch):
    # every dyadic time is a whole time, so scatter records t = 1, 2, ..., t_end
    # and not every step
    times = []
    record = diagnostics.Recorder.__call__

    def timed(self, field, profile, snapshot):
        times.append(field.time)
        record(self, field, profile, snapshot)

    monkeypatch.setattr(diagnostics.Recorder, "__call__", timed)
    assert run_cli(["scatter", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(tmp_path / "sc")]) == 0
    assert times == [float(t) for t in range(1, 17)]


def test_evolve_writes_each_snapshot_as_it_is_taken(tmp_path, monkeypatch):
    # each dyadic profile goes to its file at its record and is dropped there,
    # so at every write no earlier snapshot is still held
    written = []
    write = OutputSink.write_snapshot

    def traced(self, name, field):
        assert [n for n, ref in written if ref() is not None] == []
        written.append((name, weakref.ref(field)))
        write(self, name, field)

    monkeypatch.setattr(OutputSink, "write_snapshot", traced)
    assert run_cli(["evolve", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(tmp_path / "ev")]) == 0
    assert [n for n, _ in written] == [f"profile_t{t}.bin" for t in (1, 2, 4, 8, 16)] + ["final_state.bin"]


def test_evolve_without_snapshots_holds_and_writes_no_profile(tmp_path, monkeypatch):
    recorders, taken = [], []
    record = diagnostics.Recorder.__call__

    def traced(self, field, profile, snapshot):
        assert [ref for ref in taken if ref() is not None] == []
        recorders.append(self)
        if snapshot:
            taken.append(weakref.ref(profile))
        record(self, field, profile, snapshot)

    monkeypatch.setattr(diagnostics.Recorder, "__call__", traced)
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--t-end", "16", "--snapshots", "none"] + _SMALL_GRID + ["--output-dir", str(out)]) == 0
    assert len(taken) == 5 and [ref for ref in taken if ref() is not None] == []
    assert recorders[0].profiles == []
    assert sorted(p.name for p in out.iterdir()) == ["bootstrap_summary.json", "diagnostics.csv", "manifest.json"]


def test_evolve_memory_does_not_grow_with_its_snapshots(tmp_path):
    # 5 snapshots by t = 16 and 7 by t = 64 on 2^12 modes: as none is held past
    # its record, the two runs' traced peaks differ by less than one half-spectrum
    argv = ["evolve", "--n-modes", "4096", "--half-length", "512"]

    def peak(t_end: str) -> int:
        tracemalloc.start()
        try:
            assert run_cli(argv + ["--t-end", t_end, "--output-dir", str(tmp_path / t_end)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run on the grid builds what every later run shares: the parser, the cached H^s weight
    assert run_cli(argv + ["--t-end", "5", "--output-dir", str(tmp_path / "first")]) == 0
    assert abs(peak("64") - peak("16")) < (4096 // 2 + 1) * np.dtype(complex).itemsize


def test_scatter_memory_does_not_grow_with_its_snapshots(tmp_path):
    # 5 dyadic profiles by t = 16 and 7 by t = 64 on 2^12 modes: the fold holds one profile's
    # coefficients, so the two runs' traced peaks differ by less than one half-spectrum
    # (the run still keeps one NormSample, about 0.2 KB, per whole time, which 256 would show)
    argv = ["scatter", "--n-modes", "4096", "--half-length", "512"]

    def peak(t_end: str) -> int:
        tracemalloc.start()
        try:
            assert run_cli(argv + ["--t-end", t_end, "--output-dir", str(tmp_path / t_end)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert run_cli(argv + ["--t-end", "16", "--output-dir", str(tmp_path / "first")]) == 0
    assert abs(peak("64") - peak("16")) < (4096 // 2 + 1) * np.dtype(complex).itemsize


def test_scatter_rows_are_the_scattering_test_of_its_snapshots(tmp_path, monkeypatch):
    # the rows the fold forms live are bitwise those of the list function over the same profiles
    fed = []
    fold = diagnostics.DyadicDifferences.__call__

    def logged(self, t, profile):
        fed.append((self, t, profile))
        fold(self, t, profile)

    monkeypatch.setattr(diagnostics.DyadicDifferences, "__call__", logged)
    assert run_cli(["scatter", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(tmp_path / "sc")]) == 0
    assert [t for _, t, _ in fed] == [1.0, 2.0, 4.0, 8.0, 16.0] and len({id(f) for f, _, _ in fed}) == 1
    assert fed[0][0].rows == diagnostics.scattering_test([(t, p) for _, t, p in fed])


def test_scatter_holds_no_profile_past_the_next_snapshot(tmp_path, monkeypatch):
    taken = []
    fold = diagnostics.DyadicDifferences.__call__

    def traced(self, t, profile):
        assert [ref for ref in taken if ref() is not None] == []
        taken.append(weakref.ref(profile))
        fold(self, t, profile)

    monkeypatch.setattr(diagnostics.DyadicDifferences, "__call__", traced)
    assert run_cli(["scatter", "--t-end", "16"] + _SMALL_GRID + ["--output-dir", str(tmp_path / "sc")]) == 0
    assert len(taken) == 5


@pytest.mark.parametrize("epsilon", ["1e-200", "1e-300"])
def test_scatter_difference_l2_follows_its_sup_down(tmp_path, epsilon):
    # at epsilon = 1e-200 the differences are ~1e-215, whose squares underflow: the L2 column
    # was all zero beside a nonzero sup column; at 1e-300 the sup is subnormal (~4e-316), and
    # a complex quotient by it, a product with 1/sup, overflowed to NaN cells
    out = tmp_path / "sc"
    argv = ["scatter", "--epsilon", epsilon, "--n-modes", "256", "--half-length", "64", "--t-end", "16"]
    assert run_cli(argv + ["--output-dir", str(out)]) == 0
    rows = [[float(v) for v in line.split(",")] for line in (out / "scattering.csv").read_text().splitlines()[1:]]
    assert len(rows) == 4 and all(0.0 < l2 < math.inf and linf > 0.0 for _, linf, l2 in rows)


def test_huge_data_trips_the_guard_before_its_first_record(tmp_path, capsys):
    # |fhat| ~ 1e200 would overflow the first record's norms (RuntimeWarnings);
    # the guard meets the initial state first, so the run stops there, silently
    out = tmp_path / "ev"
    argv = ["evolve", "--epsilon", "1e200", "--n-modes", "256", "--half-length", "64", "--t-end", "16"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv + ["--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == "numerical failure: blow-up guard tripped: coefficients exceed 1e10\n"
    assert not out.exists()


#: Writes diagnostics.csv and six .bin files, then exits 1: the bootstrap fit finds a weighted norm of 0.
_FAILS_AFTER_WRITING = ["evolve", "--epsilon", "1e-300", "--n-modes", "256", "--half-length", "64", "--t-end", "16"]


def test_run_failing_after_its_first_write_leaves_nothing(tmp_path, capsys):
    # neither the written files nor the two directories the run made remain
    out = tmp_path / "new" / "run"
    assert run_cli(_FAILS_AFTER_WRITING + ["--output-dir", str(out)]) == 2
    assert "numerical failure: non-positive value in fit window" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_failing_into_a_finished_run_leaves_it_as_it_was(tmp_path):
    # the failing run writes diagnostics.csv, final_state.bin and profile_t1.bin to profile_t4.bin,
    # names the finished run used, before it fails
    out = tmp_path / "run"
    assert run_cli(_SMALL_EVOLVE_4 + ["--output-dir", str(out)]) == 0
    before = {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()}
    assert {"diagnostics.csv", "profile_t4.bin", "manifest.json"} <= set(before)
    assert run_cli(_FAILS_AFTER_WRITING + ["--output-dir", str(out)]) == 2
    assert {p.name: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.iterdir()} == before


def test_scatter_fits_its_late_rows(tmp_path):
    # t_end = 128 gives the rows t = 1 ... 64; the fit takes the four at t >= 8, and
    # three successive pairs start there.  The exponent is the slope of a fit made here.
    out = tmp_path / "sc"
    assert run_cli(["scatter", "--t-end", "128", "--n-modes", "1024", "--half-length", "128",
                    "--output-dir", str(out)]) == 0
    summary = json.loads((out / "scattering_summary.json").read_text())
    assert (summary["fit_window"], summary["fit_points"], summary["late_pairs"]) == ([8.0, 64.0], 4, 3)
    rows = [[float(v) for v in line.split(",")] for line in (out / "scattering.csv").read_text().splitlines()[1:]]
    assert [t for t, _, _ in rows] == [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    late = np.log([(t, d) for t, d, _ in rows if t >= 8.0])
    assert summary["fitted_exponent"] == pytest.approx(np.polyfit(late[:, 0], late[:, 1], 1)[0], rel=1e-9)


def test_off_lattice_dyadic_time_allowed_without_snapshots(tmp_path):
    out = tmp_path / "ev"
    argv = ["evolve", "--t-end", "5", "--record-stride", "3", "--snapshots", "none"] + _SMALL_GRID
    assert run_cli(argv + ["--output-dir", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_dyadic_check_reads_the_snapshots_the_run_keeps(tmp_path):
    # t_end = 16 + 1e-10 is within 1e-9 (t_end - 1) of 16, so the last record
    # is stamped 16 and kept: the check accepts the snapshot the run writes
    out = tmp_path / "ev"
    assert run_cli(["evolve", "--t-end", "16.0000000001"] + _SMALL_GRID + ["--output-dir", str(out)]) == 0
    assert read_snapshot(str(out / "profile_t16.bin")).time == 16.0


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


def test_no_subcommand_loads_openssl(tmp_path):
    # in a fresh interpreter: the manifest digests come from the interpreter's
    # own SHA-256, not from hashlib's OpenSSL binding
    code = (
        "import sys\n"
        "from gbbmlab import cli\n"
        f"assert cli.main(['resonances', '--output-dir', {str(tmp_path / 'res')!r}]) == 0\n"
        "assert cli.main(['evolve', '--n-modes', '256', '--half-length', '64', '--t-end', '5',"
        f" '--output-dir', {str(tmp_path / 'evolve')!r}]) == 0\n"
        "print('_hashlib' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert (tmp_path / "res" / "manifest.json").is_file() and (tmp_path / "evolve" / "manifest.json").is_file()
    assert out.stdout.split() == ["False"]


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


def test_census_module_is_imported_by_its_own_subcommands_only(tmp_path):
    # in a fresh interpreter: the solver and estimate subcommands never load
    # gbbmlab.resonance; the census and a figure at the anomalous point do
    runs = [
        ["evolve", "--n-modes", "256", "--half-length", "64", "--t-end", "5"],
        ["scatter", "--n-modes", "256", "--half-length", "64", "--t-end", "16"],
        ["verify-estimates", "--t-max", "32"],
        ["figures", "--id", "14"],
    ]
    code = (
        "import sys\n"
        "from gbbmlab import cli\n"
        "print('gbbmlab.resonance' in sys.modules)\n"
        f"for k, argv in enumerate({runs!r} if sys.argv[1] == 'runs' else [['resonances']]):\n"
        f"    assert cli.main(argv + ['--output-dir', {str(tmp_path)!r} + f'/{{sys.argv[1]}}{{k}}']) == 0\n"
        "    print('gbbmlab.resonance' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = {
        which: subprocess.run([sys.executable, "-c", code, which], env=env, capture_output=True, text=True,
                              timeout=120, check=True).stdout.split()
        for which in ("runs", "census")
    }
    assert loaded == {"runs": ["False", "False", "False", "False", "True"], "census": ["False", "True"]}
