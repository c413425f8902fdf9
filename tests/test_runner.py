"""Runner and CLI tests: configuration validation, scenario outputs,
byte determinism, and error records."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from wmqkd.calibration import FROZEN_CALIBRATION, predict_channel
from wmqkd.channels import ChannelPlan, build_table1_plan, plan_to_dict
from wmqkd.cli import main as cli_main
from wmqkd.coincidence import CountsMatrix
from wmqkd.detection import Basis, DetectorConfig
from wmqkd.keyrate import secure_key
from wmqkd.runner import (_FIELD_RULES, _NESTED, BRIGHTNESS_POLICIES, MODES, SCENARIOS,
                          ConfigError, RunConfig, _csv_bytes, _json_compact,
                          _json_indent1, _pipeline_row, _report_json, config_from_dict,
                          consistency_sigmas, default_config, load_config,
                          near_saturation_scale, predict_point, run_custom,
                          run_fig3b, run_fig3d, run_scenario, within_4_sigma)
from wmqkd.simulate import PipelineResult


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# Ports of a table-1 style grid: 795-825 nm, 400 GHz pitch, 50 GHz
# passbands, mirrored about 810.05 nm, which pairs 17 channels.
WDM_GRID_PLAN = {"grid": {
    "window_low_nm": 795.0, "window_high_nm": 825.0,
    "channel_spacing_hz": 400e9, "channel_bandwidth_hz": 50e9,
    "spdc_center_nm": 810.05}}


def table1_pairs_with(path, value) -> dict:
    """The table-1 plan as a ``pairs`` object, ``value`` set at ``path``."""
    plan = plan_to_dict(build_table1_plan())
    *keys, last = path
    node = plan
    for key in keys:
        node = node[key]
    node[last] = value
    return plan


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
    ({"brightness": [1]}, "brightness", "number"),
    ({"brightness": None}, "brightness", "number"),
    ({"brightness": True}, "brightness", "number"),
    ({"f_ec": "1.2"}, "f_ec", "number"),
    ({"f_ec": True}, "f_ec", "number"),
    ({"seed": True}, "seed", "integer"),
    ({"fig3d_n_values": [0, -5]}, "fig3d_n_values", ">= 1"),
    ({"fig3d_n_values": ["a"]}, "fig3d_n_values", "integers"),
    ({"fig3d_bandwidths_ghz": [-1.0]}, "fig3d_bandwidths_ghz", "> 0"),
    ({"fig3d_loss_grid_db": [float("nan")]}, "fig3d_loss_grid_db", "finite"),
    ({"channel_visibilities": {"1": [1.5, 0.9]}}, "channel_visibilities",
     r"\[0, 1\]"),
    ({"fig3d_loss_grid_db": [70.0, 7000.0]}, "fig3d_loss_grid_db", "transmittance"),
    ({"detector": {"dead_time": True}}, "detector", "dead_time must be a number"),
    ({"detector": {"tick": True}}, "detector", "tick must be a number"),
    ({"window": {"t_c": True}}, "window", "t_c must be a number"),
    ({"source": {"systematic_visibility_hv": False}}, "source",
     "systematic_visibility_hv must be a number"),
    ({"detector": 5}, "detector", "must be a JSON object"),
    ({"plan": table1_pairs_with(("pairs", 0, "signal", "center"), float("nan"))},
     "plan.pairs", "center must be finite"),
    ({"plan": table1_pairs_with(("pairs", 1, "idler", "center"), float("inf"))},
     "plan.pairs", "center must be finite"),
    ({"plan": table1_pairs_with(("pairs", 0, "idler", "fwhm"), float("nan"))},
     "plan.pairs", "fwhm must be finite"),
    ({"plan": table1_pairs_with(("pairs", 0, "idler", "fwhm"), float("inf"))},
     "plan.pairs", "fwhm must be finite"),
    ({"plan": table1_pairs_with(("spdc_center", ), float("nan"))},
     "plan.pairs", "spdc_center must be finite"),
    # A NaN or infinite tolerance would switch the energy-match check off.
    ({"plan": table1_pairs_with(("tolerance", ), float("nan"))},
     "plan.pairs", "tolerance must be finite"),
    ({"plan": table1_pairs_with(("tolerance", ), float("inf"))},
     "plan.pairs", "tolerance must be finite"),
    ({"plan": table1_pairs_with(("tolerance", ), -0.01)},
     "plan.pairs", "tolerance must be finite and >= 0"),
    ({"plan": {"grid": {**WDM_GRID_PLAN["grid"], "channel_bandwidth_hz": float("nan")}}},
     "plan.grid", "channel_bandwidth must be finite"),
    ({"plan": table1_pairs_with(("pairs", 0, "index"), 1.0)}, "plan.pairs", "integer"),
    ({"plan": table1_pairs_with(("pairs", 0, "index"), 1.5)}, "plan.pairs", "integer"),
    ({"plan": table1_pairs_with(("pairs", 0, "index"), True)}, "plan.pairs", "integer"),
    ({"channel_visibilities": {"1": [0.9, 0.9], "3": [0.9, 0.9]}},
     "channel_visibilities", "no channel pair 3"),
    ({"channel_visibilities": {"1": [True, "0.8", 0.1], "2": "10"}},
     "channel_visibilities", "must be a number, got True"),
    ({"channel_visibilities": {"1": [0.9, "0.8"]}}, "channel_visibilities",
     "must be a number, got '0.8'"),
    ({"channel_visibilities": {"1": [0.9, 0.8, 0.1]}}, "channel_visibilities",
     "two visibilities"),
    ({"channel_visibilities": {"2": "10"}}, "channel_visibilities", "must be a list"),
    ({"channel_visibilities": {"1": [0.9, 0.9], "01": [0.5, 0.5]}},
     "channel_visibilities", "'01' must be an integer"),
])
def test_non_finite_numbers_and_negative_seed_rejected(raw, field, what):
    with pytest.raises(ConfigError, match=what) as exc:
        config_from_dict({"scenario": "custom", **raw})
    assert exc.value.field == field


@pytest.mark.parametrize("kwargs, field", [
    ({"loss_grid_db": 30.0}, "loss_grid_db"),
    ({"scenario": "fig3d", "fig3d_n_values": 5}, "fig3d_n_values"),
    ({"fig3d_bandwidths_ghz": None}, "fig3d_bandwidths_ghz"),
    ({"fig3d_loss_grid_db": 5.0}, "fig3d_loss_grid_db"),
    ({"duration": "1"}, "duration"),
    ({"f_ec": None}, "f_ec"),
    ({"brightness": None}, "brightness"),
])
def test_directly_built_config_of_wrong_type_names_the_field(kwargs, field):
    with pytest.raises(ConfigError) as exc:
        RunConfig(**kwargs)
    assert exc.value.field == field


@pytest.mark.parametrize("kwargs, field", [
    ({"channel_visibilities": {1: (2.0, 0.9)}}, "channel_visibilities"),
    ({"channel_visibilities": 5}, "channel_visibilities"),
    ({"source": 5}, "source"),
    ({"window": None}, "window"),
    ({"detector": None}, "detector"),
    ({"plan": "table1"}, "plan"),
    ({"channel_visibilities": {3: (0.9, 0.9)}}, "channel_visibilities"),
    ({"channel_visibilities": {1: (True, 0.9)}}, "channel_visibilities"),
    ({"channel_visibilities": {1: (0.9, 0.9), "1": (0.5, 0.5)}}, "channel_visibilities"),
])
def test_directly_built_nested_object_of_wrong_type_names_the_field(kwargs, field):
    with pytest.raises(ConfigError) as exc:
        RunConfig(**kwargs)
    assert exc.value.field == field


def test_ticks_past_the_packed_key_range_name_the_duration():
    # 1e19 ticks of 1e-18 s do not fit below 2**60; 1e18 ticks do.
    with pytest.raises(ConfigError, match=r"2\*\*60") as exc:
        RunConfig(detector=DetectorConfig(tick=1e-18), duration=10.0)
    assert exc.value.field == "duration"
    with pytest.raises(ConfigError, match=r"2\*\*60") as exc:
        config_from_dict({"detector": {"tick": 1e-18}, "duration": 10.0})
    assert exc.value.field == "duration"
    assert RunConfig(detector=DetectorConfig(tick=1e-18), duration=1.0).duration == 1.0


def test_channel_count_bounds_the_packed_key_range():
    # Each channel pair's ticks take a segment of the keys.  1 s of
    # 1e-18 s ticks fits for the two table-1 pairs (0.5 s basis blocks of
    # 5e17 ticks each), not for the 17 pairs of the grid.
    raw = {"scenario": "custom", "plan": WDM_GRID_PLAN, "detector": {"tick": 1e-18},
           "duration": 1.0}
    with pytest.raises(ConfigError, match=r"17 record\(s\).*2\*\*60") as exc:
        config_from_dict(raw)
    assert exc.value.field == "duration"
    raw["plan"] = "table1"
    assert config_from_dict(raw).duration == 1.0


def test_tick_wider_than_the_window_names_the_tick():
    # A tick wider than t_c makes the half window 0 ticks, so the tick, not
    # t_c, sets the window; at a 1 ms tick ch1 read a Monte Carlo QBER of
    # 0.86.  A tick as wide as t_c is still a window of one tick.
    with pytest.raises(ConfigError, match="t_c") as exc:
        RunConfig(detector=DetectorConfig(tick=1e-3))
    assert exc.value.field == "detector.tick"
    with pytest.raises(ConfigError) as exc:
        config_from_dict({"detector": {"tick": 2e-9}, "window": {"t_c": 1e-9}})
    assert exc.value.field == "detector.tick"
    assert RunConfig(detector=DetectorConfig(tick=1e-9)).detector.tick == 1e-9


def test_directly_built_config_echoes_numbers_as_json_input_does():
    raw = {"duration": 1, "f_ec": 2, "loss_grid_db": [30], "fig3d_bandwidths_ghz": [20]}
    cfg = RunConfig(**raw)
    assert type(cfg.duration) is float and type(cfg.f_ec) is float
    assert cfg.to_dict() == config_from_dict(raw).to_dict()


@pytest.mark.parametrize("name", ["fig3d_n_values", "fig3d_bandwidths_ghz",
                                  "fig3d_loss_grid_db"])
def test_empty_fig3d_lists_rejected(name):
    with pytest.raises(ConfigError, match="non-empty") as exc:
        RunConfig(scenario="fig3d", mode="analytic", **{name: ()})
    assert exc.value.field == name
    with pytest.raises(ConfigError, match="non-empty") as exc:
        config_from_dict({"scenario": "fig3d", "mode": "analytic", name: []})
    assert exc.value.field == name


# --- the rule tables of RunConfig ---------------------------------------------

def test_every_field_has_exactly_one_rule():
    # A plain field's rule is one row of _FIELD_RULES and a nested object's
    # one entry of _NESTED; only the channel visibilities, whose indices
    # depend on the plan, are checked by an explicit cross-field rule.
    plain = [row[0] for row in _FIELD_RULES]
    assert len(plain) == len(set(plain))
    assert not set(plain) & set(_NESTED)
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(plain) | set(_NESTED) <= names
    assert names - set(plain) - set(_NESTED) == {"channel_visibilities"}
    with pytest.raises(ConfigError) as exc:
        RunConfig(channel_visibilities={1: (0.9, 1.5)})
    assert exc.value.field == "channel_visibilities"


NAN, INF = float("nan"), float("inf")
NON_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=5),
                        st.lists(st.floats(0.5, 2.0), max_size=2))


def bad_number(below: float | None = None, above: float | None = None):
    """NaN, infinities, an integer too large for a float, anything that
    is not a number, and numbers ``<= below`` or ``>= above``."""
    parts = [st.sampled_from([NAN, INF, -INF, 10**400]), NON_NUMBERS]
    if below is not None:
        parts.append(st.floats(max_value=below, allow_nan=False))
    if above is not None:
        parts.append(st.floats(min_value=above, allow_nan=False))
    return st.one_of(parts)


def bad_list(good, bad):
    """An empty list, a value that is not a list, or ``good`` elements
    around one ``bad`` one."""
    with_bad = st.tuples(st.lists(good, max_size=3), bad, st.lists(good, max_size=3))
    return st.one_of(st.just([]), st.none(), st.floats(0.5, 2.0), st.text(max_size=5),
                     with_bad.map(lambda t: [*t[0], t[1], *t[2]]))


def not_one_of(names):
    return st.one_of(st.text(max_size=12).filter(lambda x: x not in names),
                     st.integers(), st.none(), st.booleans())


# Values that break each row of _FIELD_RULES.
BAD_VALUES = {
    "scenario": not_one_of(SCENARIOS),
    "mode": not_one_of(MODES),
    "seed": st.one_of(st.integers(max_value=-1), st.floats(), NON_NUMBERS),
    "duration": bad_number(below=0.0),
    "loss_grid_db": st.one_of(
        bad_list(st.floats(0.0, 100.0), bad_number(below=-1e-9)),
        st.lists(st.floats(0.0, 100.0), min_size=2, max_size=4, unique=True)
        .map(lambda xs: sorted(xs, reverse=True))),
    "brightness": st.one_of(st.text(max_size=16).filter(lambda x: x not in BRIGHTNESS_POLICIES),
                            bad_number(below=0.0)),
    "f_ec": bad_number(below=0.999),
    "fig3d_n_values": bad_list(st.integers(1, 20000),
                               st.one_of(st.integers(max_value=0), st.floats(), NON_NUMBERS)),
    "fig3d_bandwidths_ghz": bad_list(st.floats(0.1, 100.0), bad_number(below=0.0)),
    "fig3d_loss_grid_db": bad_list(st.floats(0.0, 100.0),
                                   bad_number(below=-1e-9, above=6500.0)),
}


@given(st.sampled_from(sorted(BAD_VALUES)).flatmap(
    lambda name: st.tuples(st.just(name), BAD_VALUES[name])))
def test_each_rule_rejects_values_that_break_it(case):
    name, value = case
    for build in (config_from_dict, lambda kwargs: RunConfig(**kwargs)):
        with pytest.raises(ConfigError) as exc:
            build({name: value})
        assert exc.value.field == name


def test_every_rule_has_values_that_break_it():
    assert sorted(BAD_VALUES) == sorted(row[0] for row in _FIELD_RULES)


@pytest.mark.parametrize("raw, field", [
    ({"detector": {"dead_time": 10**400}}, "detector"),
    ({"source": {"pair_rate": 10**400}}, "source"),
    ({"channel_visibilities": {"1": [10**400, 0.9]}}, "channel_visibilities"),
])
def test_integer_too_large_for_a_float_names_its_field(raw, field):
    # JSON reads a long integer literal as a Python int, and float() of it
    # raises OverflowError.
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
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
    cfg = config_from_dict({"plan": WDM_GRID_PLAN})
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


def test_analytic_columns_predict_each_basis_with_its_own_visibility(tmp_path):
    # A DA visibility of 0.80 against an HV visibility of 0.9768: the
    # Monte Carlo draws each basis with its own, so the analytic QBER must
    # too; with the HV visibility alone it read 0.038 against 0.077-0.084
    # (z_qber 28-33).
    cfg = config_from_dict({
        "scenario": "custom", "plan": "table1", "loss_grid_db": [30.0], "duration": 2.0,
        "seed": 3, "channel_visibilities": {"1": [0.9768, 0.80], "2": [0.9768, 0.80]}})
    rows = run_custom(cfg, str(tmp_path))["rows"]
    assert [r["configuration"] for r in rows] == ["ch1", "ch2", "no_wm"]
    for row in rows:
        assert row["within_4_sigma"], row
    # The two bases' QBERs are averaged: (0.0116 + 0.1) / 2 plus accidentals.
    assert 0.0558 < rows[0]["qber_an"] < 0.09


def test_delayed_window_clears_true_partners_in_wide_windows(tmp_path):
    # At t_c = 1 us a fixed 200 ns delay leaves Bob's true partners inside
    # the shifted window, so the estimate counted most of the true pairs
    # (105/s) on top of the accidentals (48.8/s): 141/s.  The delay grows
    # with the window.
    cfg = config_from_dict({
        "scenario": "custom", "plan": "table1", "loss_grid_db": [30.0], "duration": 1.0,
        "seed": 3, "brightness": 0.01, "detector": {"dark_rate": 0.0},
        "window": {"t_c": 1e-6}})
    preds = predict_point(cfg, 30.0, 0.01)
    for row in run_custom(cfg, str(tmp_path))["rows"]:
        expected = preds[row["configuration"]].cc_accidental * cfg.duration
        assert expected > 40
        assert abs(row["accidentals_per_s_mc"] * cfg.duration - expected) \
            < 4.0 * math.sqrt(expected), row


def test_pipeline_row_reads_the_monte_carlo_record():
    hv = CountsMatrix(Basis.HV, [[19, 481], [481, 19]], 1, 1.0)
    da = CountsMatrix(Basis.DA, [[10, 490], [490, 10]], 1, 1.0)
    row = _pipeline_row(PipelineResult(hv, da, 1e5, 1.2e5, 42.0), 1.1)
    assert row["cc_mc"] == 2000
    assert row["qber_mc"] == pytest.approx(0.029)
    assert row["key_rate_bps_mc"] == secure_key(hv, da, 1.1) / 2.0
    assert row["key_rate_bps_mc"] > 0
    assert (row["singles_alice_mc"], row["singles_bob_mc"],
            row["accidentals_per_s_mc"]) == (1e5, 1.2e5, 42.0)


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
    assert pred.key_rate_per_channel == 0.0 and n > 1e4
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
    assert rep["warnings"] == []
    assert os.path.exists(tmp_path / "fig3d_scaling.csv")
    assert os.path.exists(tmp_path / "fig3d_bandwidth.csv")


def test_fig3d_report_warns_of_optima_on_the_bracket_edge(tmp_path):
    cfg = config_from_dict({"scenario": "fig3d", "mode": "analytic",
                            "fig3d_loss_grid_db": [70.0, 120.0]})
    run_fig3d(cfg, str(tmp_path))
    report = json.loads(read(tmp_path / "fig3d_report.json"))
    assert report["warnings"] == [
        "loss 120.0 dB: no interior optimum on the bracket; returning best sample "
        "(pair rate 100 per channel, key 0 bps)"]
    optimized = [r for r in report["bandwidth_rows"] if r["optimized"]]
    assert [r["loss_db"] for r in optimized] == [70.0, 120.0]
    assert optimized[1]["pair_rate_per_channel"] == 100.0


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


def test_near_saturation_out_of_reach_is_a_config_error():
    # The grid plan's first pair is its faintest edge channel: even at
    # the top of the brightness search its QBER stays under the target.
    cfg = config_from_dict({"scenario": "custom", "mode": "analytic",
                            "plan": WDM_GRID_PLAN, "brightness": "near_saturation",
                            "loss_grid_db": [60.0]})
    with pytest.raises(ConfigError, match="channel 1 at 60.0 dB") as exc:
        near_saturation_scale(cfg, 60.0)
    assert exc.value.field == "brightness"
    assert "0.0818" in str(exc.value) and "0.0526" in str(exc.value)


def test_fig3d_keys_use_the_configured_f_ec(tmp_path):
    cfg = config_from_dict({"scenario": "fig3d", "f_ec": 1.5,
                            "fig3d_loss_grid_db": [70.0]})
    rep = run_fig3d(cfg, str(tmp_path))
    threshold = rep["qber_threshold"]
    rows = rep["scaling_rows"] + rep["bandwidth_rows"]
    assert any(r["qber"] >= threshold for r in rows)
    for r in rows:
        if r["qber"] >= threshold:
            assert r["key_rate_bps"] == 0.0


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
            "8bbe0daa5c199550699e06e3d4148ba61ec81274d9c4bb7cb132ac5386958823",
        "fig3d_scaling.csv":
            "23f793e913c8b2e322d0b954af6d7bc78bf6ba0b119f0b6400bbb2f837d61a65",
    },
    "custom": {
        "custom_curve.csv":
            "a9175e40a64ce6a0490d7c43fb1b1c2921a2368bc688a9731079b82b650f5a3c",
        "custom_report.json":
            "f76c7ad7415636f4632c9406290a17ae75512ffbe762b39b3585497b7b45fff8",
    },
}


# sha256 of analytic runs the defaults leave out: the near-saturation
# brightness solve, a plan of many channels with its merged baseline, the
# fig3d projection on a fine loss grid (multiples of 0.25 dB are exact
# floats), and the fig3b writer with its wm_sum rows.
ANALYTIC_OUTPUT_SHA256 = {
    "fig3b": (
        {"scenario": "fig3b", "mode": "analytic", "loss_grid_db": [30.0, 60.0, 89.0]},
        {"fig3b_curve.csv":
            "6db81eedc9c8c0c55c4f8683f1bf807a1b084a8004025a73d8eca8b8ea1c270f",
         "fig3b_report.json":
            "48407e536a5923aa40721eba7a3f5242d7415808f70d926b394f59ef152eb403"},
    ),
    "fig3d_fine": (
        {"scenario": "fig3d", "mode": "analytic",
         "fig3d_loss_grid_db": [40.0 + 0.25 * k for k in range(241)]},
        {"fig3d_bandwidth.csv":
            "b23ab17b778cedecc8c347adac750e70db326d02c9a0586dbe6ba228695c08bc",
         "fig3d_report.json":
            "f2570de24a6e79f7054367a5473f620cb538996cfbfcdc2aa1d730c0b2f09e8a",
         "fig3d_scaling.csv":
            "21f3992b1a51b444d8dfd9b50d07737262837bb6185f3386412fdef4b862f367"},
    ),
    "near_saturation": (
        {"scenario": "custom", "mode": "analytic", "brightness": "near_saturation",
         "loss_grid_db": [60.0, 89.0]},
        {"custom_curve.csv":
            "15dd1aa1a1b9dab769555da3a641e1a7fe287d24717126340c31a72f3c591470",
         "custom_report.json":
            "9ca7e9c3fd1f08fcaa9f2e90c0c2e21ad40195e6154e1e4e3460999c50f20ca2"},
    ),
    "wdm_grid": (
        {"scenario": "custom", "mode": "analytic", "plan": WDM_GRID_PLAN,
         "loss_grid_db": [20.0, 30.0, 45.0]},
        {"custom_curve.csv":
            "11e55f0b127bb14ed7b0bf6eb7360dedf85b9b12f4cf45a4685a5c38ff4f08dc",
         "custom_report.json":
            "1a8cde77b6472845203b0f3dbefb43bb8a29e65443119dfefc43cf08d7d1fffe"},
    ),
}


# sha256 of short Monte Carlo runs the defaults leave out: the table-1
# plan at its calibrated brightness, whose 30 dB blocks span two chunks
# each and whose two channels feed the merged baseline, and the 17
# channels of a grid plan with their merged baseline.
MONTE_CARLO_OUTPUT_SHA256 = {
    "fig3b": (
        {"scenario": "fig3b", "mode": "both", "plan": "table1",
         "brightness": "calibrated", "loss_grid_db": [30.0, 80.0], "duration": 0.5},
        {"fig3b_curve.csv":
            "0201aa42a7b256401bdc989013562d444d39d285b4673a49283a635c3d30f4ec",
         "fig3b_report.json":
            "7f463a555578f9dda67b471fd757d68f360dfc0d7ec7671c0f8a0d0dfd0b44be"},
    ),
    "wdm_grid": (
        {"scenario": "custom", "mode": "both", "plan": WDM_GRID_PLAN,
         "brightness": "calibrated", "loss_grid_db": [30.0], "duration": 0.2},
        {"custom_curve.csv":
            "d10df0a605e05294330cfd68088ff30f8d70fe56d5e298f5fe529b4f62f93caa",
         "custom_report.json":
            "4590b64e6f51d30225ff03ed2cce0791a80271a7c683c1cab29039b6fb471548"},
    ),
}


def output_sha256(out_dir):
    return {name: hashlib.sha256(read(out_dir / name)).hexdigest()
            for name in sorted(os.listdir(out_dir))}


@pytest.mark.parametrize("case", sorted(ANALYTIC_OUTPUT_SHA256))
def test_analytic_outputs_are_byte_identical(case, tmp_path):
    raw, want = ANALYTIC_OUTPUT_SHA256[case]
    run_scenario(config_from_dict(raw), str(tmp_path))
    assert output_sha256(tmp_path) == want


@pytest.mark.parametrize("case", sorted(MONTE_CARLO_OUTPUT_SHA256))
def test_monte_carlo_outputs_are_byte_identical(case, tmp_path):
    raw, want = MONTE_CARLO_OUTPUT_SHA256[case]
    run_scenario(config_from_dict(raw), str(tmp_path))
    assert output_sha256(tmp_path) == want


@pytest.mark.parametrize("scenario", sorted(DEFAULT_OUTPUT_SHA256))
def test_default_cli_outputs_are_byte_identical(scenario, tmp_path):
    assert cli_main([scenario, "--out", str(tmp_path)]) == 0
    assert output_sha256(tmp_path) == DEFAULT_OUTPUT_SHA256[scenario]


# --- output writers ------------------------------------------------------------

def report_json_oracle(config, payload):
    """Reference report writer: json's pure-Python ``indent`` path."""
    doc = {"config": config.to_dict()}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def oracle_cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.10g}"
    return x


def csv_bytes_oracle(columns, rows, config):
    """Reference CSV writer: one ``writerow`` per row, each cell through
    ``oracle_cell``."""
    buf = io.StringIO()
    buf.write("# config: " + _json_compact(config.to_dict()) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([oracle_cell(r.get(c)) for c in columns])
    return buf.getvalue()


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared with the oracle's, not handled
        return type(exc)


WRITER_CONFIG = default_config("fig3d")
# Text that the writers must escape or quote, and the row seam of the
# report writer as literal text.
TRICKY_TEXT = st.sampled_from(['"', "\\", "},\n {", "},\n  {", "\n", "\r\n", "\t\x00\x1f",
                               ",", "é☃𝄞", "\ud800", ""])
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.floats(), st.floats().map(np.float64), st.text(), TRICKY_TEXT)
JSON_KEYS = st.one_of(st.text(max_size=4), TRICKY_TEXT)
FLAT_ROWS = st.lists(st.dictionaries(JSON_KEYS, JSON_SCALARS, min_size=1), max_size=4)
JSON_DOCS = st.recursive(
    JSON_SCALARS | FLAT_ROWS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=30)


@given(JSON_DOCS)
@example({"b": float("nan"), "a": [float("inf"), -float("inf"), -0.0, 2**100],
          "c": {"z": (True, False, None), "y": {}, "x": [], "w": ["é", "},\n {"]}})
@example([{"a": 1}, {}, {"b": [1]}, {"c": "},\n  {"}])
@example({"rows": [{"k": np.float64(0.1), "j": float("nan")}], "warnings": []})
@example({1: {"b": 1, "a": [2]}})
def test_report_writer_equals_pure_python_json(doc):
    want = outcome(lambda d: json.dumps(d, sort_keys=True, indent=1), doc)
    assert outcome(_json_indent1, doc) == want
    if isinstance(doc, dict) and all(isinstance(k, str) for k in doc):
        assert _report_json(WRITER_CONFIG, doc) == report_json_oracle(WRITER_CONFIG, doc)


@st.composite
def csv_tables(draw):
    columns = tuple(draw(st.lists(st.text(min_size=1, max_size=4) | TRICKY_TEXT,
                                  min_size=1, max_size=5, unique=True)))
    cells = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.floats().map(np.float64), st.text(max_size=5), TRICKY_TEXT)
    rows = draw(st.lists(st.dictionaries(st.sampled_from(columns), cells), max_size=6))
    return columns, rows


@given(csv_tables())
@example((("a", "b"), [{"a": np.float64("nan"), "b": -float("nan")}, {"a": None},
                       {"a": True, "b": 10**30}, {"b": "x,\"y\"\n"}, {}]))
def test_csv_writer_equals_per_row_writer(table):
    columns, rows = table
    assert _csv_bytes(columns, rows, WRITER_CONFIG) == \
        csv_bytes_oracle(columns, rows, WRITER_CONFIG)


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


# --- import cost ---------------------------------------------------------------

# Runs in a fresh interpreter: imports the package, then runs the default
# fig3d scenario and a short calibrated fig3b Monte Carlo run, and prints
# every scipy module that got loaded.
NO_SCIPY_SCRIPT = """
import json, os, sys
import wmqkd, wmqkd.runner, wmqkd.cli
from wmqkd.cli import main
out = sys.argv[1]
cfg = os.path.join(out, "fig3b.json")
with open(cfg, "w") as fh:
    json.dump({"scenario": "fig3b", "mode": "both", "duration": 0.05,
               "brightness": "calibrated"}, fh)
assert main(["fig3d", "--out", os.path.join(out, "fig3d")]) == 0
assert main(["fig3b", "--config", cfg, "--out", os.path.join(out, "fig3b")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_scenarios_run_without_importing_scipy(tmp_path):
    """scipy costs about 0.6 s of every process's start-up; only the
    near-saturation brightness, ``derive_calibration`` and band-limited
    ``sample_pair_stream`` may load it."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []
    assert sorted(os.listdir(tmp_path / "fig3b")) == ["fig3b_curve.csv", "fig3b_report.json"]
