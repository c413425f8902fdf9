"""Tests of the benchmark's own checks: each passes on a real output of
the program and fails on a deliberately corrupted copy of it.

    python3 -m pytest benchmarks/test_checks.py
"""

import csv
import json
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from wmqkd.runner import config_from_dict, run_scenario  # noqa: E402

OTHER_SEED = 99


def produce(tmp_path_factory, name, seed):
    config = workloads.WORKLOADS[name](seed)
    out = str(tmp_path_factory.mktemp(name))
    run_scenario(config_from_dict(config), out)
    return config, out


@pytest.fixture(scope="module")
def ref30(tmp_path_factory):
    return produce(tmp_path_factory, "ref30", workloads.DEFAULT_SEEDS["ref30"])


@pytest.fixture(scope="module")
def wdm_grid(tmp_path_factory):
    return produce(tmp_path_factory, "wdm_grid", workloads.DEFAULT_SEEDS["wdm_grid"])


@pytest.fixture(scope="module")
def fig3d(tmp_path_factory):
    return produce(tmp_path_factory, "fig3d_sweep", workloads.DEFAULT_SEEDS["fig3d_sweep"])


def failures(config, out_dir):
    verdicts = checks.check_outputs(config, out_dir)
    assert None not in verdicts.values(), "a loss point has no rows"
    return [msg for msgs in verdicts.values() for msg in msgs]


def corrupt_curve(src_dir, tmp_path, name, edit):
    """Copy of a curve CSV whose rows pass through ``edit(rows)``."""
    dst = tmp_path / "corrupt"
    shutil.copytree(src_dir, dst)
    path = dst / name
    with open(path, newline="") as fh:
        first = fh.readline()
        rows = list(csv.DictReader(fh))
    edit({r["configuration"]: r for r in rows})
    with open(path, "w", newline="") as fh:
        fh.write(first)
        w = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)
    return str(dst)


def corrupt_fig3d(src_dir, tmp_path, edit):
    dst = tmp_path / "corrupt"
    shutil.copytree(src_dir, dst)
    path = dst / "fig3d_report.json"
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    return str(dst)


def scale(row, column, factor):
    row[column] = repr(float(row[column]) * factor)


# --- real outputs pass -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_on_another_seed(tmp_path_factory, name):
    config, out = produce(tmp_path_factory, name, OTHER_SEED)
    assert failures(config, out) == []


def test_real_outputs_pass(ref30, wdm_grid, fig3d):
    for config, out in (ref30, wdm_grid, fig3d):
        assert failures(config, out) == []


# --- ref30 -------------------------------------------------------------------

REF30_CORRUPTIONS = {
    "key column ×1.05": (lambda r: scale(r["ch1"], "key_rate_bps_mc", 1.05),
                         "wm_sum"),
    "analytic key column ×1.05": (lambda r: scale(r["ch2"], "key_rate_bps_an", 1.05),
                                  "wm_sum"),
    "merged singles above the channel sum": (
        lambda r: r["no_wm"].update(singles_bob_mc=repr(
            1.001 * (float(r["ch1"]["singles_bob_mc"]) + float(r["ch2"]["singles_bob_mc"])))),
        "channel sum"),
    "ch1 QBER shifted": (lambda r: scale(r["ch1"], "qber_mc", 1.5), "ch1: qber_mc"),
    "merged accidentals ×1.3": (lambda r: scale(r["no_wm"], "accidentals_per_s_mc", 1.3),
                                "no_wm: accidentals"),
    "merged key above ch1": (lambda r: r["no_wm"].update(
        key_rate_bps_mc=repr(1.01 * float(r["ch1"]["key_rate_bps_mc"]))), "not above"),
    "wm_sum coincidences off by one": (
        lambda r: r["wm_sum"].update(cc_mc=str(int(r["wm_sum"]["cc_mc"]) + 1)), "cc_mc"),
}


@pytest.mark.parametrize("case", sorted(REF30_CORRUPTIONS))
def test_ref30_corruption_fails(ref30, tmp_path, case):
    edit, expected = REF30_CORRUPTIONS[case]
    config, out = ref30
    bad = failures(config, corrupt_curve(out, tmp_path, "fig3b_curve.csv", edit))
    assert any(expected in msg for msg in bad), bad


# --- wdm_grid ----------------------------------------------------------------

def _busiest_channel(rows):
    return max((r for k, r in rows.items() if k.startswith("ch")),
               key=lambda r: float(r["cc_an"]))


WDM_CORRUPTIONS = {
    "merged QBER below a channel": (
        lambda r: r["no_wm"].update(qber_mc=repr(0.9 * float(_busiest_channel(r)["qber_mc"]))),
        "not above"),
    "channel accidentals ×1.5": (
        lambda r: scale(_busiest_channel(r), "accidentals_per_s_mc", 1.5), "accidentals"),
    "merged singles above the channel sum": (
        lambda r: r["no_wm"].update(singles_alice_mc=repr(1.001 * sum(
            float(v["singles_alice_mc"]) for k, v in r.items() if k.startswith("ch")))),
        "channel sum"),
}


@pytest.mark.parametrize("case", sorted(WDM_CORRUPTIONS))
def test_wdm_grid_corruption_fails(wdm_grid, tmp_path, case):
    edit, expected = WDM_CORRUPTIONS[case]
    config, out = wdm_grid
    bad = failures(config, corrupt_curve(out, tmp_path, "custom_curve.csv", edit))
    assert any(expected in msg for msg in bad), bad


# --- fig3d_sweep -------------------------------------------------------------

def _rows(report, key, loss, **match):
    return [r for r in report[key] if r["loss_db"] == loss
            and all(r[k] == v for k, v in match.items())]


def _move_optimum(report):
    """Optimized rate ×1.05 with the key and n-scaled keys made consistent
    with it, so that only the optimality check can catch it."""
    row = _rows(report, "bandwidth_rows", 70.0, optimized=True)[0]
    q_sys = (1.0 - report["config"]["calibration"]["v_sys_channel1"]) / 2.0
    row["pair_rate_per_channel"] *= 1.05
    _, row["qber"], row["key_rate_bps"] = checks.projection_rates(
        row["pair_rate_per_channel"], 70.0, q_sys, report["config"]["f_ec"])
    for r in _rows(report, "scaling_rows", 70.0):
        r["qber"], r["key_rate_bps"] = row["qber"], r["n"] * row["key_rate_bps"]


FIG3D_CORRUPTIONS = {
    "n-scaled key off by 1e-9": (
        lambda rep: _rows(rep, "scaling_rows", 60.0, n=15000)[0].update(
            key_rate_bps=_rows(rep, "scaling_rows", 60.0, n=15000)[0]["key_rate_bps"]
            * (1 + 1e-9)),
        "n·key(1)"),
    "optimized key ×1.05": (
        lambda rep: _rows(rep, "bandwidth_rows", 55.0, optimized=True)[0].update(
            key_rate_bps=1.05 * _rows(rep, "bandwidth_rows", 55.0,
                                      optimized=True)[0]["key_rate_bps"]),
        "recomputed"),
    "optimized rate off the optimum": (_move_optimum, "optimized rate"),
    "key at 22 GHz and 70 dB": (
        lambda rep: _rows(rep, "bandwidth_rows", 70.0, bandwidth_ghz=22.0)[0].update(
            key_rate_bps=1e-3),
        "22 GHz"),
    "no key at 21 GHz and 70 dB": (
        lambda rep: _rows(rep, "bandwidth_rows", 70.0, bandwidth_ghz=21.0)[0].update(
            key_rate_bps=0.0),
        "21 GHz"),
    "key above the QBER threshold": (
        lambda rep: _rows(rep, "bandwidth_rows", 50.0, optimized=True)[0].update(
            qber=0.1025),
        "QBER"),
}


@pytest.mark.parametrize("case", sorted(FIG3D_CORRUPTIONS))
def test_fig3d_corruption_fails(fig3d, tmp_path, case):
    edit, expected = FIG3D_CORRUPTIONS[case]
    config, out = fig3d
    bad = failures(config, corrupt_fig3d(out, tmp_path, edit))
    assert any(expected in msg for msg in bad), bad


def test_key_vanishing_qber_is_the_root():
    q = checks.key_vanishing_qber(1.1)
    assert abs(2.1 * checks.h2(q) - 1.0) < 1e-12
    assert abs(q - 0.102283) < 5e-6
