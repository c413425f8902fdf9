"""Runner and CLI tests: configuration validation, scenario outputs,
byte determinism, and error records."""

import hashlib
import json
import math
import os

import numpy as np
import pytest

from wmqkd.calibration import FROZEN_CALIBRATION, predict_channel
from wmqkd.channels import ChannelPlan
from wmqkd.cli import main as cli_main
from wmqkd.runner import (ConfigError, RunConfig, config_from_dict,
                          consistency_sigmas, default_config, load_config,
                          near_saturation_scale, predict_point, run_custom,
                          run_fig3b, run_fig3d, within_4_sigma)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# --- configuration -----------------------------------------------------------

def test_empty_loss_grid_rejected():
    with pytest.raises(ConfigError, match="loss_grid"):
        RunConfig(scenario="custom", loss_grid_db=())


def test_descending_loss_grid_rejected():
    with pytest.raises(ConfigError, match="loss_grid"):
        RunConfig(scenario="custom", loss_grid_db=(30.0, 20.0))


def test_bad_mode_and_scenario_rejected():
    with pytest.raises(ConfigError, match="mode"):
        RunConfig(scenario="custom", mode="fast")
    with pytest.raises(ConfigError, match="scenario"):
        RunConfig(scenario="fig9z")


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="frobnicate"):
        config_from_dict({"scenario": "custom", "frobnicate": 1})


def test_bad_nested_fields_named():
    with pytest.raises(ConfigError, match="detector"):
        config_from_dict({"scenario": "custom", "detector": {"efficiency": 2.0}})
    with pytest.raises(ConfigError, match="window"):
        config_from_dict({"scenario": "custom", "window": {"t_c": -1.0}})
    with pytest.raises(ConfigError, match="duration"):
        config_from_dict({"scenario": "custom", "duration": "long"})


@pytest.mark.parametrize("raw, field, what", [
    ({"duration": float("nan")}, "duration", "finite"),
    ({"duration": float("inf")}, "duration", "finite"),
    ({"loss_grid_db": [20.0, float("nan")]}, "loss_grid_db", "finite"),
    ({"f_ec": float("nan")}, "f_ec", "finite"),
    ({"brightness": float("inf")}, "brightness", "finite"),
    ({"window": {"t_c": float("inf")}}, "window", "t_c"),
    ({"detector": {"dead_time": float("nan")}}, "detector", "dead_time"),
    ({"detector": {"dark_rate": float("inf")}}, "detector", "dark_rate"),
    ({"detector": {"jitter_sigma": float("nan")}}, "detector", "jitter_sigma"),
    ({"seed": -1}, "seed", ">= 0"),
    ({"source": {"pair_rate": float("nan")}}, "source", "pair_rate"),
    ({"source": {"spectral_fwhm": float("inf")}}, "source", "spectral_fwhm"),
    ({"channel_visibilities": {"1": [float("nan"), 0.9]}}, "channel_visibilities",
     "finite"),
    ({"channel_visibilities": {"2": [0.9, float("inf")]}}, "channel_visibilities",
     "finite"),
])
def test_non_finite_numbers_and_negative_seed_rejected(raw, field, what):
    with pytest.raises(ConfigError, match=what) as exc:
        config_from_dict({"scenario": "custom", **raw})
    assert exc.value.field == field


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "scenario": "custom", "seed": 42, "mode": "analytic",
        "duration": 0.25, "loss_grid_db": [20.0, 25.0],
        "detector": {"dark_rate": 50.0},
        "window": {"t_c": 2e-9},
    }))
    cfg = load_config(str(path))
    assert cfg.seed == 42
    assert cfg.detector.dark_rate == 50.0
    assert cfg.window.t_c == 2e-9
    assert cfg.loss_grid_db == (20.0, 25.0)


def test_fitted_visibilities_apply_to_the_table1_plan_only():
    assert RunConfig().channel_visibilities == FROZEN_CALIBRATION.channel_visibilities()
    assert config_from_dict({"plan": "table1"}).channel_visibilities \
        == FROZEN_CALIBRATION.channel_visibilities()
    cfg = config_from_dict({"plan": {"grid": {
        "window_low_nm": 795.0, "window_high_nm": 825.0,
        "channel_spacing_hz": 400e9, "channel_bandwidth_hz": 50e9,
        "spdc_center_nm": 810.05}}})
    assert cfg.channel_visibilities == {}
    # Every grid channel gets the source's systematic visibility, so
    # neighbouring channels of similar brightness predict similar QBERs
    # (the table-1 fit gave grid channel 2 five times its neighbours').
    preds = predict_point(cfg, 30.0, 1.0)
    assert preds["ch1"].qber == pytest.approx(preds["ch2"].qber, rel=0.2)
    assert preds["ch2"].qber == pytest.approx(preds["ch3"].qber, rel=0.2)


def test_config_to_dict_is_json_serializable():
    d = default_config("fig3b").to_dict()
    json.dumps(d)
    assert d["calibration"]["version"] == "1"


# --- scenario outputs --------------------------------------------------------

def small_custom(seed=3):
    return RunConfig(scenario="custom", seed=seed, mode="both", duration=0.1,
                     loss_grid_db=(25.0, 30.0))


def test_run_custom_outputs_and_flags(tmp_path):
    rep = run_custom(small_custom(), str(tmp_path))
    csv_text = read(tmp_path / "custom_curve.csv").decode()
    lines = csv_text.splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1].split(",")[0] == "loss_db"
    assert len(rep["rows"]) == 2 * 3  # ch1, ch2, no_wm per loss
    for row in rep["rows"]:
        assert row["within_4_sigma"] in (True, False)
    labels = {r["configuration"] for r in rep["rows"]}
    assert labels == {"ch1", "ch2", "no_wm"}


def test_within_4_sigma_judges_defined_z_scores():
    cfg = RunConfig()
    zero = {"cc_mc": 0, "qber_mc": float("nan"), "key_rate_bps_mc": 0.0}
    # 0.01 expected coincidences and none seen: consistent.
    faint = predict_channel(1e2, 1e-3, 1e-3, cfg.detector, cfg.window, 0.01)
    z = consistency_sigmas(faint, zero, 1.0, cfg.f_ec)
    assert math.isnan(z["z_qber"]) and within_4_sigma(z)
    # Over 10k expected and none seen: the key rate fails the row.
    bright = predict_channel(1e7, 1e-1, 1e-1, cfg.detector, cfg.window, 0.01)
    z = consistency_sigmas(bright, zero, 1.0, cfg.f_ec)
    assert (bright.cc_true + bright.cc_accidental) > 1e4
    assert math.isnan(z["z_qber"]) and not within_4_sigma(z)
    assert within_4_sigma({"z_qber": -3.9, "z_key_rate": 4.0})
    assert not within_4_sigma({"z_qber": 4.1, "z_key_rate": 0.0})
    assert not within_4_sigma({"z_qber": float("nan"), "z_key_rate": float("nan")})


def test_within_4_sigma_fails_missing_counts_without_key():
    # No key is predicted (q_sys = 0.5), so the key rate cannot fail the
    # row; over 10k coincidences were expected and none came.
    cfg = RunConfig()
    zero = {"cc_mc": 0, "qber_mc": float("nan"), "key_rate_bps_mc": 0.0}
    pred = predict_channel(1e7, 1e-1, 1e-1, cfg.detector, cfg.window, 0.5)
    n = pred.cc_true + pred.cc_accidental
    assert pred.key_rate == 0.0 and n > 1e4
    z = consistency_sigmas(pred, zero, 1.0, cfg.f_ec)
    assert z["z_key_rate"] == 0.0 and math.isnan(z["z_qber"])
    assert not within_4_sigma(z)
    assert z["z_cc"] < -100.0
    # The expected count seen: consistent.
    seen = {"cc_mc": n, "qber_mc": pred.qber, "key_rate_bps_mc": 0.0}
    z = consistency_sigmas(pred, seen, 1.0, cfg.f_ec)
    assert z["z_cc"] == 0.0 and within_4_sigma(z)


def test_run_custom_byte_determinism(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_custom(small_custom(), str(d1))
    run_custom(small_custom(), str(d2))
    assert read(d1 / "custom_curve.csv") == read(d2 / "custom_curve.csv")
    assert read(d1 / "custom_report.json") == read(d2 / "custom_report.json")
    d3 = tmp_path / "c"
    run_custom(small_custom(seed=4), str(d3))
    assert read(d1 / "custom_curve.csv") != read(d3 / "custom_curve.csv")


def test_run_fig3b_row_structure(tmp_path):
    cfg = RunConfig(scenario="fig3b", seed=2, mode="both", duration=0.1,
                    loss_grid_db=(30.0,))
    rep = run_fig3b(cfg, str(tmp_path))
    labels = [r["configuration"] for r in rep["rows"]]
    assert labels == sorted(labels)
    assert set(labels) == {"ch1", "ch2", "no_wm", "wm_sum"}
    by_label = {r["configuration"]: r for r in rep["rows"]}
    total = by_label["ch1"]["key_rate_bps_mc"] + by_label["ch2"]["key_rate_bps_mc"]
    assert by_label["wm_sum"]["key_rate_bps_mc"] == pytest.approx(total)
    assert os.path.exists(tmp_path / "fig3b_curve.csv")


def test_run_fig3b_analytic_mode_fast(tmp_path):
    cfg = RunConfig(scenario="fig3b", mode="analytic", duration=10.0,
                    loss_grid_db=(30.0, 50.0, 70.0))
    rep = run_fig3b(cfg, str(tmp_path))
    for row in rep["rows"]:
        assert "qber_an" in row and "cc_mc" not in row
    # warnings attach where expected coincidences fall under the budget
    assert any("variance" in w for w in rep["warnings"])


def test_run_fig3d_outputs(tmp_path):
    cfg = default_config("fig3d")
    rep = run_fig3d(cfg, str(tmp_path))
    assert rep["grid"]["computed_total_bands"] == 13580
    assert rep["grid"]["claimed_channel_count"] == 15000
    rows = rep["scaling_rows"]
    by_n = {}
    for r in rows:
        by_n.setdefault(r["loss_db"], {})[r["n"]] = r["key_rate_bps"]
    for loss, table in by_n.items():
        for n in (80, 1000, 15000):
            assert table[n] == pytest.approx(n * table[1], rel=1e-12)
    bw = {(r["bandwidth_ghz"], r["loss_db"]): r["key_rate_bps"]
          for r in rep["bandwidth_rows"]}
    assert all(bw[(22.0, loss)] == 0.0 for loss in cfg.fig3d_loss_grid_db)
    assert os.path.exists(tmp_path / "fig3d_scaling.csv")
    assert os.path.exists(tmp_path / "fig3d_bandwidth.csv")


def test_run_fig3d_deterministic(tmp_path):
    cfg = default_config("fig3d")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_fig3d(cfg, str(d1))
    run_fig3d(cfg, str(d2))
    for name in ("fig3d_scaling.csv", "fig3d_bandwidth.csv", "fig3d_report.json"):
        assert read(d1 / name) == read(d2 / name)


def test_partial_results_flushed_on_failure(tmp_path, monkeypatch):
    import wmqkd.runner as runner_mod
    cfg = RunConfig(scenario="custom", seed=1, mode="analytic", duration=0.1,
                    loss_grid_db=(20.0, 30.0))
    calls = {"n": 0}
    orig = runner_mod.predict_point

    def boom(config, loss, scale):
        if loss == 30.0:
            raise RuntimeError("synthetic failure")
        return orig(config, loss, scale)

    monkeypatch.setattr(runner_mod, "predict_point", boom)
    with pytest.raises(RuntimeError):
        run_custom(cfg, str(tmp_path))
    report = json.loads(read(tmp_path / "custom_report.json"))
    assert report["error"]["message"] == "synthetic failure"
    assert len(report["rows"]) == 3  # the 20 dB point was flushed


def test_near_saturation_scale_monotone_qber():
    cfg = RunConfig(scenario="fig3b", loss_grid_db=(89.0,),
                    brightness="near_saturation")
    scale = near_saturation_scale(cfg, 89.0)
    assert scale > 1.0


# --- CLI ---------------------------------------------------------------------

def test_cli_custom_runs(tmp_path, capsys):
    rc = cli_main(["custom", "--out", str(tmp_path), "--seed", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "custom" in out
    assert (tmp_path / "custom_curve.csv").exists()


# sha256 of the default CLI outputs.  The files are deterministic, so a
# pure refactor must leave them byte for byte as they are; a change that
# alters the random draws or the physics updates these values and says
# why in CHANGES.md.
DEFAULT_OUTPUT_SHA256 = {
    "fig3d": {
        "fig3d_bandwidth.csv":
            "4beaf67553658ac4a9c950eff09d6fdb78a5e757c89534564e26bf326b97b54a",
        "fig3d_report.json":
            "6a61778318aad6e2c0471e16376ef125283e552e5cda37143ef30ebc0845afda",
        "fig3d_scaling.csv":
            "23f793e913c8b2e322d0b954af6d7bc78bf6ba0b119f0b6400bbb2f837d61a65",
    },
    "custom": {
        "custom_curve.csv":
            "5388385e3798c5cfe2c51cc3190f5565fb670a963bd0a36fdcc4c101c3ffce56",
        "custom_report.json":
            "7e575e590e981988352e754d0432ba1694ef1d6c442d258473a95af613b1e9c5",
    },
}


@pytest.mark.parametrize("scenario", sorted(DEFAULT_OUTPUT_SHA256))
def test_default_cli_outputs_are_byte_identical(scenario, tmp_path):
    assert cli_main([scenario, "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256(read(tmp_path / name)).hexdigest()
           for name in sorted(os.listdir(tmp_path))}
    assert got == DEFAULT_OUTPUT_SHA256[scenario]


def test_cli_reports_config_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenario": "custom", "loss_grid_db": []}))
    rc = cli_main(["custom", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    record = json.loads(err.strip())
    assert record["error"] == "config_error"
    assert "loss_grid" in record["message"]


def test_cli_scenario_mismatch(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"scenario": "custom"}))
    rc = cli_main(["fig3d", "--config", str(cfgfile), "--out", str(tmp_path)])
    assert rc == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert record["field"] == "scenario"


def test_cli_seed_and_mode_overrides(tmp_path):
    rc = cli_main(["fig3d", "--out", str(tmp_path), "--mode", "analytic"])
    assert rc == 0
    doc = json.loads(read(tmp_path / "fig3d_report.json"))
    assert doc["config"]["mode"] == "analytic"


def test_plan_specifications_in_config():
    cfg = config_from_dict({"scenario": "custom", "plan": "table1"})
    assert len(cfg.plan.pairs) == 2
    cfg = config_from_dict({"scenario": "custom", "plan": {"grid": {
        "window_low_nm": 790.0, "window_high_nm": 830.0,
        "channel_spacing_hz": 100e9, "channel_bandwidth_hz": 50e9}}})
    assert len(cfg.plan.pairs) > 10
    with pytest.raises(ConfigError, match="plan"):
        config_from_dict({"scenario": "custom", "plan": {"grid": {}}})
    with pytest.raises(ConfigError, match="plan"):
        config_from_dict({"scenario": "custom", "plan": "tableX"})


@pytest.mark.parametrize("scenario", ["fig3b", "custom"])
def test_plan_without_pairs_rejected(scenario, tmp_path, capsys):
    raw = {"scenario": scenario, "mode": "analytic",
           "plan": {"pairs": [], "spdc_center": 810.0}}
    with pytest.raises(ConfigError, match="plan.pairs"):
        config_from_dict(raw)
    with pytest.raises(ConfigError, match="plan.pairs"):
        RunConfig(scenario=scenario, mode="analytic",
                  plan=ChannelPlan(pairs=(), spdc_center=810.0))
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = cli_main([scenario, "--config", str(cfgfile), "--out", str(out)])
    assert rc == 2
    assert json.loads(capsys.readouterr().err.strip())["field"] == "plan.pairs"
    assert not out.exists()
