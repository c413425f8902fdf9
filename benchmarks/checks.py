"""Checks of the program's output files, made apart from the program.

Every check compares an output against a computation written out here
(the tick-quantized window, the key formula, the binary entropy, the
key-vanishing QBER) or against a property the method must have.  None
compares against a stored copy of an earlier output.

``check_outputs`` returns, for every loss point of the configuration,
the list of failed checks (empty when the point passes) or ``None``
when the program wrote no rows for that point.
"""

from __future__ import annotations

import csv
import json
import math
import os

SIGMAS = 4.0
MIN_PREDICTED_CC = 1000.0
# The CSV files print 10 significant digits, so a sum of printed values
# matches the printed sum to about 1e-9 relative.
CSV_REL = 2e-9
SCALING_REL = 1e-12
# The fig3d projection's stated settings: 200 dark counts/s per side and
# a 1 ns window with no jitter loss.
FIG3D_DARK_PER_SIDE = 200.0
FIG3D_WINDOW_S = 1e-9


# --- reading -----------------------------------------------------------------

def _number(text: str):
    if text == "":
        return None
    if text in ("True", "False"):
        return text == "True"
    try:
        return float(text)
    except ValueError:
        return text


def read_curve(path: str) -> tuple[dict, list[dict]]:
    """Resolved config and rows of a ``*_curve.csv`` file."""
    with open(path, newline="") as fh:
        first = fh.readline()
        prefix = "# config: "
        if not first.startswith(prefix):
            raise ValueError(f"{path}: first line is not a config comment")
        config = json.loads(first[len(prefix):])
        rows = [{k: _number(v) for k, v in r.items()} for r in csv.DictReader(fh)]
    return config, rows


def curve_path(config: dict, out_dir: str) -> str:
    """The curve CSV of a Monte Carlo scenario (fig3b or custom)."""
    name = "fig3b_curve.csv" if config["scenario"] == "fig3b" else "custom_curve.csv"
    return os.path.join(out_dir, name)


def read_fig3d(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "fig3d_report.json")) as fh:
        return json.load(fh)


# --- written-out physics -----------------------------------------------------

def h2(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def key_vanishing_qber(f_ec: float) -> float:
    """Root of ``1 = (1 + f)·H2(Q)`` on (0, 1/2), by bisection to 1e-15."""
    lo, hi = 1e-12, 0.5
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if (1.0 + f_ec) * h2(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def effective_window(t_c: float, tick: float) -> float:
    """Width realized by ``|Δticks| <= floor(t_c / 2 / tick)``."""
    half = math.floor(t_c / (2.0 * tick) * (1.0 + 1e-12))
    return (2 * half + 1) * tick


def projection_rates(pair_rate: float, loss_db: float, q_sys: float,
                     f_ec: float) -> tuple[float, float, float]:
    """Coincidence rate, QBER and key rate of one projection channel."""
    eta = 10.0 ** (-loss_db / 20.0)
    s = pair_rate * eta + FIG3D_DARK_PER_SIDE
    cc_true = pair_rate * eta * eta
    cc_acc = s * s * FIG3D_WINDOW_S
    total = cc_true + cc_acc
    q = (q_sys * cc_true + 0.5 * cc_acc) / total
    key = max(0.0, total * 0.5 * (1.0 - (1.0 + f_ec) * h2(q)))
    return total, q, key


# --- Monte Carlo scenarios (fig3b, custom) -----------------------------------

def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _statistical(label: str, row: dict, config: dict) -> list[str]:
    """QBER within 4 binomial σ of the analytic QBER; accidentals within
    4 Poisson σ of S_A·S_B·w_eff."""
    bad = []
    n = row["cc_mc"]
    q_an = row["qber_an"]
    if not n:
        return [f"{label}: no Monte Carlo coincidences, {row['cc_an']:.0f} predicted"]
    sigma_q = math.sqrt(q_an * (1.0 - q_an) / n)
    if abs(row["qber_mc"] - q_an) > SIGMAS * sigma_q:
        bad.append(f"{label}: qber_mc {row['qber_mc']:.5f} vs analytic {q_an:.5f} "
                   f"(σ {sigma_q:.5f})")
    w_eff = effective_window(config["window"]["t_c"], config["detector"]["tick"])
    duration = config["duration"]
    expected = row["singles_alice_mc"] * row["singles_bob_mc"] * w_eff
    sigma_acc = math.sqrt(expected * duration) / duration
    if abs(row["accidentals_per_s_mc"] - expected) > SIGMAS * sigma_acc:
        bad.append(f"{label}: accidentals {row['accidentals_per_s_mc']:.2f}/s vs "
                   f"S_A·S_B·w_eff {expected:.2f}/s (σ {sigma_acc:.2f})")
    return bad


def check_mc_point(config: dict, rows: list[dict]) -> list[str]:
    """Checks of one loss point of a fig3b or custom run."""
    by_label = {r["configuration"]: r for r in rows}
    channels = {k: v for k, v in by_label.items() if k.startswith("ch")}
    merged = by_label.get("no_wm")
    if merged is None or len(channels) < 2:
        return ["missing channel or merged rows"]
    bad = []
    selected = {k: v for k, v in channels.items() if v["cc_an"] >= MIN_PREDICTED_CC}
    for label, row in list(selected.items()) + [("no_wm", merged)]:
        bad += _statistical(label, row, config)
    for side in ("singles_alice_mc", "singles_bob_mc"):
        total = sum(r[side] for r in channels.values())
        if merged[side] > total * (1.0 + CSV_REL):
            bad.append(f"merged {side} {merged[side]:.6g} > channel sum {total:.6g}")

    if config["scenario"] == "fig3b":
        if set(selected) != {"ch1", "ch2"}:
            bad.append(f"ch1 and ch2 should be predicted >= {MIN_PREDICTED_CC:.0f} "
                       f"coincidences, got {sorted(selected)}")
        wm = by_label.get("wm_sum")
        if wm is None:
            return bad + ["missing wm_sum row"]
        for col in ("key_rate_bps_mc", "key_rate_bps_an"):
            if not channels["ch1"][col] > merged[col]:
                bad.append(f"{col}: ch1 {channels['ch1'][col]:.6g} not above "
                           f"no_wm {merged[col]:.6g}")
            parts = sum(r[col] for r in channels.values())
            if not _close(wm[col], parts, CSV_REL):
                bad.append(f"{col}: wm_sum {wm[col]:.10g} != channel sum {parts:.10g}")
        parts = sum(r["cc_mc"] for r in channels.values())
        if wm["cc_mc"] != parts:
            bad.append(f"cc_mc: wm_sum {wm['cc_mc']:.0f} != channel sum {parts:.0f}")
    else:
        for label, row in selected.items():
            if not merged["qber_mc"] > row["qber_mc"]:
                bad.append(f"merged qber_mc {merged['qber_mc']:.5f} not above "
                           f"{label} {row['qber_mc']:.5f}")
    return bad


# --- fig3d -------------------------------------------------------------------

def check_fig3d_point(config: dict, loss: float, scaling: list[dict],
                      bandwidth: list[dict]) -> list[str]:
    """Checks of one loss of the analytic projection."""
    bad = []
    f_ec = config["f_ec"]
    q_sys = (1.0 - config["calibration"]["v_sys_channel1"]) / 2.0
    q_max = key_vanishing_qber(f_ec)
    by_n = {int(r["n"]): r for r in scaling}
    if 1 not in by_n or len(by_n) != len(config["fig3d_n_values"]):
        return [f"scaling rows for n = {sorted(by_n)}"]
    k1 = by_n[1]["key_rate_bps"]
    for n, row in by_n.items():
        if abs(row["key_rate_bps"] - n * k1) > SCALING_REL * n * k1:
            bad.append(f"n={n}: key {row['key_rate_bps']!r} != n·key(1) {n * k1!r}")

    optimized = [r for r in bandwidth if r["optimized"]]
    if len(optimized) != 1:
        return bad + [f"{len(optimized)} optimized bandwidth rows"]
    for row in bandwidth:
        b = row["pair_rate_per_channel"]
        total, _, key = projection_rates(b, loss, q_sys, f_ec)
        if abs(row["key_rate_bps"] - key) > 1e-9 * total:
            bad.append(f"{row['bandwidth_ghz']} GHz: key {row['key_rate_bps']!r} "
                       f"!= recomputed {key!r}")
        if row["key_rate_bps"] > 0 and not row["qber"] < q_max:
            bad.append(f"{row['bandwidth_ghz']} GHz: key > 0 at QBER "
                       f"{row['qber']:.6f} >= {q_max:.6f}")
    opt = optimized[0]
    b = opt["pair_rate_per_channel"]
    key = projection_rates(b, loss, q_sys, f_ec)[2]
    for factor in (0.99, 1.01):
        other = projection_rates(factor * b, loss, q_sys, f_ec)[2]
        if other > key * (1.0 + 1e-12):
            bad.append(f"key at {factor}× the optimized rate {other!r} > {key!r}")
    if not _close(by_n[1]["key_rate_bps"], opt["key_rate_bps"], SCALING_REL):
        bad.append("n=1 scaling key differs from the optimized bandwidth key")
    if any(r["key_rate_bps"] > 0 and not r["qber"] < q_max for r in scaling):
        bad.append(f"scaling row with key > 0 at QBER >= {q_max:.6f}")

    if loss == 70.0:
        fixed = {r["bandwidth_ghz"]: r["key_rate_bps"] for r in bandwidth
                 if not r["optimized"]}
        if not fixed.get(21.0, 0.0) > 0.0:
            bad.append("70 dB: no key at 21 GHz")
        if fixed.get(22.0) != 0.0:
            bad.append(f"70 dB: key {fixed.get(22.0)!r} at 22 GHz, expected 0")
    return bad


# --- per run -----------------------------------------------------------------

def check_outputs(config: dict, out_dir: str) -> dict[float, list[str] | None]:
    """Failed checks per loss point of ``config`` (``None``: no rows)."""
    if config["scenario"] == "fig3d":
        report = read_fig3d(out_dir)
        resolved = report["config"]
        losses = [float(x) for x in config["fig3d_loss_grid_db"]]
        scaling = _group(report["scaling_rows"])
        bandwidth = _group(report["bandwidth_rows"])
        return {loss: (check_fig3d_point(resolved, loss, scaling[loss], bandwidth[loss])
                       if loss in scaling and loss in bandwidth else None)
                for loss in losses}
    resolved, rows = read_curve(curve_path(config, out_dir))
    grouped = _group(rows)
    return {loss: (check_mc_point(resolved, grouped[loss]) if loss in grouped else None)
            for loss in (float(x) for x in config["loss_grid_db"])}


def _group(rows: list[dict]) -> dict[float, list[dict]]:
    out: dict[float, list[dict]] = {}
    for r in rows:
        out.setdefault(float(r["loss_db"]), []).append(r)
    return out
