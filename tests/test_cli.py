import argparse
import json
import math

import numpy as np
import pytest

from gbbmlab.cli import _DEFAULTS, build_parser, main, read_snapshot


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
    for r in census["records"]:
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


def test_invalid_figure_id(tmp_path):
    assert run_cli(["figures", "--id", "0", "--output-dir", str(tmp_path / "x")]) == 1


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


def test_snapshot_checksum_excludes_walltime(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run_cli(
            ["evolve", "--t-end", "4", "--dt", "0.05", "--n-modes", "512",
             "--half-length", "64", "--output-dir", str(out)]
        )
        assert rc == 0
        outs.append(json.loads((out / "manifest.json").read_text())["outputs"])
    assert outs[0] == outs[1]


def test_snapshot_roundtrip(tmp_path):
    out = tmp_path / "ev"
    run_cli(
        ["evolve", "--t-end", "4", "--dt", "0.05", "--n-modes", "512",
         "--half-length", "64", "--output-dir", str(out)]
    )
    f = read_snapshot(str(out / "final_state.bin"))
    assert f.max_imag() < 1e-10


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


def test_seventeen_digit_floats(tmp_path):
    out = tmp_path / "fig"
    run_cli(["figures", "--id", "4", "--n-points", "11", "--output-dir", str(out)])
    lines = (out / "figure_04.csv").read_text().strip().splitlines()[1:]
    for line in lines:
        for tok in line.split(","):
            assert float(tok) == float(f"{float(tok):.17g}")


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
