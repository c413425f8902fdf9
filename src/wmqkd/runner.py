"""Scenario orchestration: configuration parsing, seeded end-to-end
runs, analytic sweeps, and deterministic CSV/JSON output files.

Three scenarios are provided.  ``fig3b`` sweeps the measured two-channel
plan over link loss and compares the per-channel pipelines against the
merged (non-multiplexed) baseline.  ``fig3d`` produces analytic
n-channel scaling projections over the atmospheric transmission window
together with broad-channel degradation cases.  ``custom`` runs a
user-defined configuration in Monte Carlo, analytic, or both modes.

Every output file embeds the resolved configuration and seed;
re-running a scenario with identical inputs reproduces the files byte
for byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import calibration as calib
from .calibration import (ChannelPrediction, FROZEN_CALIBRATION, fig3d_model,
                          predict_channel, predict_rows)
from .channels import (ChannelPlan, build_grid_plan, build_table1_plan, grid_tiling,
                       plan_from_dict, plan_to_dict)
from .coincidence import CoincidenceWindow
from .detection import DetectorConfig
from .keyrate import (analytic_rate_arrays, binary_entropy, model_fields,
                      optimize_pair_rates, qber_threshold, scaling_rows)
from .simulate import PipelineResult, resolve_channels, simulate_point
from .source import SourceConfig

MODES = ("montecarlo", "analytic", "both")
SCENARIOS = ("fig3b", "fig3d", "custom")
BRIGHTNESS_POLICIES = ("calibrated", "near_saturation")
MIN_EXPECTED_EVENTS = 1e3
# The near-saturation brightness puts the best channel's predicted QBER
# at this fraction of the key threshold.
NEAR_SATURATION_QBER_FRACTION = 0.8


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, field_name: str, message: str):
        self.field = field_name
        super().__init__(f"config field '{field_name}': {message}")


@dataclass
class RunConfig:
    """Resolved scenario configuration."""

    scenario: str = "custom"
    seed: int = 12345
    mode: str = "both"
    duration: float = 1.0
    loss_grid_db: tuple[float, ...] = (30.0,)
    source: SourceConfig = None
    plan: ChannelPlan = None
    detector: DetectorConfig = field(default_factory=lambda: calib.DEFAULT_DETECTOR)
    window: CoincidenceWindow = field(default_factory=CoincidenceWindow)
    channel_visibilities: dict = None
    brightness: str | float = "calibrated"
    f_ec: float = 1.1
    fig3d_n_values: tuple[int, ...] = (1, 80, 1000, 15000)
    fig3d_bandwidths_ghz: tuple[float, ...] = (19.0, 21.0, 22.0)
    fig3d_loss_grid_db: tuple[float, ...] = tuple(np.arange(40.0, 100.1, 2.5))

    def __post_init__(self):
        cal = FROZEN_CALIBRATION
        if self.scenario not in SCENARIOS:
            raise ConfigError("scenario", f"must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.seed, int):
            raise ConfigError("seed", f"must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ConfigError("seed", f"must be >= 0, got {self.seed}")
        losses = tuple(float(x) for x in self.loss_grid_db)
        # The detector and window reject non-finite fields themselves.
        for name, values in (("duration", [self.duration]), ("loss_grid_db", losses),
                             ("f_ec", [self.f_ec])):
            bad = [x for x in values if not math.isfinite(x)]
            if bad:
                raise ConfigError(name, f"must be a finite number, got {bad[0]}")
        if self.duration <= 0:
            raise ConfigError("duration", f"must be > 0, got {self.duration}")
        if len(losses) == 0:
            raise ConfigError("loss_grid_db", "must be a non-empty ascending list")
        if any(b < a for a, b in zip(losses, losses[1:])) or any(x < 0 for x in losses):
            raise ConfigError("loss_grid_db", "must be ascending and non-negative")
        self.loss_grid_db = losses
        if self.source is None:
            self.source = cal.source()
        table1 = build_table1_plan()
        if self.plan is None:
            self.plan = table1
        if not self.plan.pairs:
            raise ConfigError("plan.pairs", "must hold at least one channel pair")
        if self.channel_visibilities is None:
            # The fitted visibilities belong to the measured channels; any
            # other plan uses the source's systematic visibility throughout.
            self.channel_visibilities = \
                cal.channel_visibilities() if self.plan == table1 else {}
        if isinstance(self.brightness, str):
            if self.brightness not in BRIGHTNESS_POLICIES:
                raise ConfigError(
                    "brightness",
                    f"must be a scale factor or one of {BRIGHTNESS_POLICIES}",
                )
        elif not (self.brightness > 0 and math.isfinite(self.brightness)):
            raise ConfigError("brightness", "scale factor must be finite and > 0")
        if self.f_ec < 1.0:
            raise ConfigError("f_ec", f"must be >= 1, got {self.f_ec}")

    def to_dict(self) -> dict:
        """Every field as plain JSON data, and the frozen calibration."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "plan":
                value = plan_to_dict(value)
            elif f.name == "channel_visibilities":
                value = {str(k): list(v) for k, v in sorted(value.items())}
            elif is_dataclass(value):
                value = asdict(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return {**out, "calibration": asdict(FROZEN_CALIBRATION)}


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, validating field by field.

    Each field given is parsed by its entry in ``_PARSERS``, in the order
    of the ``RunConfig`` fields; one without an entry is passed on as it
    is, for ``RunConfig`` to check.  A parser's error becomes a
    ``ConfigError`` on its field.
    """
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "configuration must be a JSON object")
    names = [f.name for f in fields(RunConfig)]
    for key in raw:
        if key not in names:
            raise ConfigError(key, "unknown configuration field")
    kwargs = {}
    for key in (name for name in names if name in raw):
        try:
            kwargs[key] = _PARSERS.get(key, lambda x: x)(raw[key])
        except ConfigError:
            raise
        except (TypeError, ValueError, IndexError, AttributeError) as exc:
            raise ConfigError(key, str(exc)) from exc
    return RunConfig(**kwargs)


def _number(x) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise TypeError(f"must be a number, got {x!r}")
    return float(x)


def _numbers(x) -> tuple[float, ...]:
    if not isinstance(x, (list, tuple)):
        raise TypeError("must be a list of dB values")
    return tuple(_number(v) for v in x)


def _non_empty_list(x) -> tuple:
    if not isinstance(x, (list, tuple)) or not x:
        raise TypeError("must be a non-empty list")
    return tuple(x)


def _visibilities(x) -> dict[int, tuple[float, float]]:
    out = {int(k): (float(v[0]), float(v[1])) for k, v in x.items()}
    bad = [v for pair in out.values() for v in pair if not math.isfinite(v)]
    if bad:
        raise ValueError(f"visibilities must be finite numbers, got {bad[0]}")
    return out


def _parse_plan(spec) -> ChannelPlan:
    if spec == "table1":
        return build_table1_plan()
    if isinstance(spec, dict) and "grid" in spec:
        g = spec["grid"]
        try:
            plan, _ = build_grid_plan(
                g["window_low_nm"], g["window_high_nm"],
                g["channel_spacing_hz"], g["channel_bandwidth_hz"],
                g.get("spdc_center_nm"), g.get("diffraction_efficiency", 1.0),
            )
            return plan
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("plan.grid", str(exc)) from exc
    if isinstance(spec, dict) and "pairs" in spec:
        try:
            return plan_from_dict(spec)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("plan.pairs", str(exc)) from exc
    raise ConfigError("plan", "must be 'table1', {'grid': ...} or {'pairs': ...}")


# The parser of each configuration field that needs one; see config_from_dict.
_PARSERS = {
    "duration": _number,
    "loss_grid_db": _numbers,
    "source": lambda x: FROZEN_CALIBRATION.source(**x),
    "plan": _parse_plan,
    "detector": lambda x: replace(calib.DEFAULT_DETECTOR, **x),
    "window": lambda x: CoincidenceWindow(**x),
    "channel_visibilities": _visibilities,
    "fig3d_n_values": _non_empty_list,
    "fig3d_bandwidths_ghz": _non_empty_list,
    "fig3d_loss_grid_db": _non_empty_list,
}


def load_config(path: str) -> RunConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("<file>", f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# Brightness policies


def near_saturation_scale(config: RunConfig, loss_db: float) -> float:
    """Brightness scale emulating operation near the maximum tolerable
    source rate at high loss.

    Solves, on the high-brightness branch, for the scale at which the
    best channel's predicted QBER reaches ``NEAR_SATURATION_QBER_FRACTION``
    of the key threshold; beyond that the accidental load erases the key.
    """
    ch = resolve_channels(config.source, config.plan, loss_db,
                          config.channel_visibilities)[0]
    b1, ea1, eb1 = ch.geometry
    thr = NEAR_SATURATION_QBER_FRACTION * qber_threshold(config.f_ec)

    def q_of(scale):
        return predict_channel(b1 * scale, ea1, eb1, config.detector,
                               config.window, ch.q_sys, config.f_ec).qber

    res = minimize_scalar(lambda s: q_of(math.exp(s)),
                          bounds=(math.log(1e-4), math.log(1e4)), method="bounded")
    s_min = math.exp(res.x)
    if q_of(s_min) >= thr:
        raise ValueError(
            f"no brightness reaches QBER {thr:.4f} at {loss_db} dB; "
            f"minimum is {q_of(s_min):.4f}"
        )
    return float(brentq(lambda s: q_of(s) - thr, s_min, 1e6, xtol=1e-8))


def _brightness_scale(config: RunConfig, loss_db: float) -> float:
    if config.brightness == "calibrated":
        return 1.0
    if config.brightness == "near_saturation":
        return near_saturation_scale(config, loss_db)
    return float(config.brightness)


# ---------------------------------------------------------------------------
# Analytic predictions for the configured plan


def predict_point(config: RunConfig, loss_db: float, scale: float) -> dict[str, ChannelPrediction]:
    """Refined analytic prediction for every pipeline at one loss."""
    chans = resolve_channels(config.source, config.plan, loss_db,
                             config.channel_visibilities, scale)
    preds, merged = predict_rows([c.geometry for c in chans],
                                 [c.q_sys for c in chans],
                                 config.detector, config.window, config.f_ec)
    out = {f"ch{c.index}": p for c, p in zip(chans, preds)}
    if len(chans) >= 2:
        out["no_wm"] = merged
    return out


# ---------------------------------------------------------------------------
# Row assembly and statistics


def _weighted_qber(parts) -> float:
    """Coincidence-weighted mean of (qber, count) parts.

    Parts without counts carry a NaN QBER and no weight, so they are
    left out; the mean is NaN only when no part has counts.
    """
    parts = [(q, n) for q, n in parts if n]
    total = sum(n for _, n in parts)
    return sum(q * n for q, n in parts) / total if total else float("nan")


def _pipeline_row(result: PipelineResult, f_ec: float) -> dict:
    r = result.to_channel_result(f_ec)
    return {
        "cc_mc": r.cc_hv + r.cc_da,
        "qber_mc": _weighted_qber([(r.qber_hv, r.cc_hv), (r.qber_da, r.cc_da)]),
        "key_rate_bps_mc": r.secure_key_rate,
        "singles_alice_mc": r.singles_alice,
        "singles_bob_mc": r.singles_bob,
        "accidentals_per_s_mc": r.accidental_estimate,
    }


def _prediction_row(pred: ChannelPrediction, duration: float) -> dict:
    total = pred.cc_true + pred.cc_accidental
    return {
        "cc_an": total * duration,
        "qber_an": pred.qber,
        "key_rate_bps_an": pred.key_rate,
    }


def consistency_sigmas(pred: ChannelPrediction, mc_row: dict, duration: float,
                       f_ec: float) -> dict:
    """z-scores of MC minus analytic for the coincidence count, QBER and
    key rate.

    The scales are the statistical errors implied by the predicted
    counts: Poisson for the count, binomial for the QBER, Poisson counts
    plus error propagation through the key formula for the rate.
    """
    n = (pred.cc_true + pred.cc_accidental) * duration
    if n <= 0 or not mc_row:
        return {}
    z_cc = (mc_row["cc_mc"] - n) / math.sqrt(n)
    q = pred.qber
    sigma_q = math.sqrt(max(q * (1.0 - q), 1e-30) / n)
    z_q = (mc_row["qber_mc"] - q) / sigma_q

    # Per-basis key: N/2 coincidences at QBER q each.
    n_b = n / 2.0
    kernel = 1.0 - (1.0 + f_ec) * binary_entropy(q)
    dk_dq = -(1.0 + f_ec) * (math.log2((1.0 - q) / q) if 0 < q < 1 else 0.0)
    var_b = (0.5 * kernel) ** 2 * n_b \
        + (n_b * 0.5 * dk_dq) ** 2 * (q * (1.0 - q) / n_b)
    sigma_key_rate = math.sqrt(2.0 * var_b) / duration
    z_r = (mc_row["key_rate_bps_mc"] - pred.key_rate) / sigma_key_rate \
        if sigma_key_rate > 0 else float("nan")
    return {"z_cc": z_cc, "z_qber": z_q, "z_key_rate": z_r,
            "sigma_qber": sigma_q, "sigma_key_rate": sigma_key_rate}


def within_4_sigma(z: dict) -> bool:
    """Whether every defined z-score of ``consistency_sigmas`` is within
    4 sigma.

    ``z_qber`` is NaN when the Monte Carlo saw no coincidences; the row
    is then judged on its count and key rate, and the count fails it
    when many coincidences were expected and none came, even where no
    key was predicted.  False when no z-score is defined.
    """
    defined = [abs(v) for k, v in z.items()
               if k.startswith("z_") and not math.isnan(v)]
    return bool(defined) and all(v <= 4.0 for v in defined)


# ---------------------------------------------------------------------------
# Output writers


def _csv_bytes(columns: tuple[str, ...], rows: list[dict], config: RunConfig) -> str:
    buf = io.StringIO()
    buf.write("# config: " + _json_compact(config.to_dict()) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    for r in rows:
        w.writerow([_cell(r.get(c)) for c in columns])
    return buf.getvalue()


def _cell(x):
    if x is None:
        return ""
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.10g}"
    return x


def _json_compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _report_json(config: RunConfig, payload: dict) -> str:
    doc = {"config": config.to_dict()}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ---------------------------------------------------------------------------
# Scenarios

FIG3B_COLUMNS = (
    "loss_db", "configuration", "cc_mc", "qber_mc", "key_rate_bps_mc",
    "singles_alice_mc", "singles_bob_mc", "accidentals_per_s_mc",
    "cc_an", "qber_an", "key_rate_bps_an", "brightness_scale",
)


def run_fig3b(config: RunConfig, out_dir: str) -> dict:
    """Two-channel multiplexed-versus-merged sweep over link loss.

    Emits one CSV row per (loss, configuration) for configurations
    ch1, ch2, wm_sum (per-channel keys summed) and no_wm (merged
    baseline), plus a JSON report.  Partial results are flushed if a
    point fails.
    """
    return _run_sweep(config, out_dir, "fig3b", FIG3B_COLUMNS, wm_sum=True,
                      extras={"qber_threshold": qber_threshold(config.f_ec)})


def _run_sweep(config: RunConfig, out_dir: str, name: str, columns: tuple[str, ...],
               wm_sum: bool, extras: dict) -> dict:
    """Run every loss point and write ``<name>_curve.csv`` and
    ``<name>_report.json``; rows hold only ``columns``.  When a point
    fails, the rows of the points before it are written with an error
    record and the exception propagates."""
    curve_path = os.path.join(out_dir, f"{name}_curve.csv")
    report_path = os.path.join(out_dir, f"{name}_report.json")
    rows: list[dict] = []
    warnings: list[str] = []
    try:
        for loss in config.loss_grid_db:
            rows.extend({k: v for k, v in row.items() if k in columns}
                        for row in _point_rows(config, loss, wm_sum, warnings))
    except Exception as exc:
        _write(curve_path, _csv_bytes(columns, rows, config))
        _write(report_path, _report_json(config, {
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "rows": rows, "warnings": warnings,
        }))
        raise
    rows.sort(key=lambda r: (r["loss_db"], r["configuration"]))
    _write(curve_path, _csv_bytes(columns, rows, config))
    report = {"rows": rows, "warnings": warnings, **extras}
    _write(report_path, _report_json(config, report))
    return report


def _point_rows(config: RunConfig, loss: float, wm_sum: bool,
                warnings: list[str]) -> list[dict]:
    """One row per pipeline at one loss (each channel, then ``no_wm``),
    plus the ``wm_sum`` row of per-channel sums when asked."""
    scale = _brightness_scale(config, loss)
    preds = predict_point(config, loss, scale)
    analytic = config.mode in ("analytic", "both")
    mc = None
    if config.mode in ("montecarlo", "both"):
        mc = simulate_point(
            config.source, config.plan, loss, config.detector, config.window,
            config.duration, config.seed,
            channel_visibilities=config.channel_visibilities,
            brightness_scale=scale,
        )
    rows = []
    for label, pred in preds.items():
        row = {"loss_db": loss, "configuration": label, "brightness_scale": scale}
        if analytic:
            row.update(_prediction_row(pred, config.duration))
        if mc is not None:
            res = mc.merged if label == "no_wm" else mc.channels[int(label[2:])]
            row.update(_pipeline_row(res, config.f_ec))
        if config.mode == "both":
            z = consistency_sigmas(pred, row, config.duration, config.f_ec)
            if z:
                row.update({
                    "z_qber": z["z_qber"], "z_key_rate": z["z_key_rate"],
                    "within_4_sigma": within_4_sigma(z),
                })
        expected = (pred.cc_true + pred.cc_accidental) * config.duration
        if expected < MIN_EXPECTED_EVENTS:
            warnings.append(
                f"loss {loss} dB, {label}: expected coincidences "
                f"{expected:.1f} < {MIN_EXPECTED_EVENTS:.0f}; "
                "Monte Carlo variance is large at this point"
            )
        rows.append(row)
    if not wm_sum:
        return rows
    # Multiplexed sum: per-channel keys added.
    labels = [label for label in preds if label != "no_wm"]
    sum_row = {"loss_db": loss, "configuration": "wm_sum", "brightness_scale": scale}
    if analytic:
        totals = [preds[l].cc_true + preds[l].cc_accidental for l in labels]
        sum_row.update({
            "cc_an": sum(t * config.duration for t in totals),
            "qber_an": sum(preds[l].qber * t for l, t in zip(labels, totals))
            / sum(totals),
            "key_rate_bps_an": sum(preds[l].key_rate for l in labels),
        })
    if mc is not None:
        parts = [_pipeline_row(mc.channels[int(l[2:])], config.f_ec) for l in labels]
        sum_row.update({
            "cc_mc": sum(p["cc_mc"] for p in parts),
            "qber_mc": _weighted_qber([(p["qber_mc"], p["cc_mc"]) for p in parts]),
            "key_rate_bps_mc": sum(p["key_rate_bps_mc"] for p in parts),
        })
    rows.append(sum_row)
    return rows


FIG3D_SCALING_COLUMNS = ("n", "loss_db", "qber", "key_rate_bps")
FIG3D_BANDWIDTH_COLUMNS = ("bandwidth_ghz", "loss_db", "qber", "key_rate_bps",
                           "pair_rate_per_channel", "optimized")


def run_fig3d(config: RunConfig, out_dir: str) -> dict:
    """Analytic n-channel scaling projections and bandwidth degradation.

    The scaling curves optimize the per-channel pair rate at every loss,
    for all losses in one batched solve; the broad-channel cases hold the
    source spectral density fixed at the frozen reference so wider
    channels collect proportionally more pairs (and more accidentals).
    """
    cal = FROZEN_CALIBRATION
    losses = config.fig3d_loss_grid_db
    bandwidths = config.fig3d_bandwidths_ghz
    bases = [fig3d_model(cal, loss_db=loss) for loss in losses]
    opts = optimize_pair_rates(bases)
    best = analytic_rate_arrays(**model_fields(
        [replace(m, pair_rate_in_band=o.pair_rate) for m, o in zip(bases, opts)]))
    broad_models = [fig3d_model(cal, loss_db=loss, bandwidth_ghz=bw)
                    for loss in losses for bw in bandwidths]
    broad = analytic_rate_arrays(**model_fields(broad_models))
    broad_rows = iter(zip(broad_models, broad.qber.tolist(),
                          broad.key_rate_per_channel.tolist()))
    scaling = scaling_rows(config.fig3d_n_values, losses, best)
    bandwidth_rows = []
    for loss, opt, q, key in zip(losses, opts, best.qber.tolist(),
                                 best.key_rate_per_channel.tolist()):
        bandwidth_rows.append({
            "bandwidth_ghz": calib.FIG3D_REFERENCE_BANDWIDTH_GHZ,
            "loss_db": float(loss), "qber": q, "key_rate_bps": key,
            "pair_rate_per_channel": opt.pair_rate, "optimized": True,
        })
        for bw in bandwidths:
            m, q_bw, key_bw = next(broad_rows)
            bandwidth_rows.append({
                "bandwidth_ghz": float(bw), "loss_db": float(loss),
                "qber": q_bw, "key_rate_bps": key_bw,
                "pair_rate_per_channel": m.pair_rate_in_band, "optimized": False,
            })

    tiling = grid_tiling(761.0, 970.0, 6.25e9)
    report = {
        "grid": {
            "window_nm": [761.0, 970.0],
            "channel_spacing_ghz": 6.25,
            "computed_total_bands": tiling.n_bands,
            "computed_paired_channels": len(tiling.signal_bands),
            "claimed_channel_count": 15000,
            "note": (
                "the computed tiling supports ~13.6k bands (~6.8k pairs); "
                "the claimed >15000 channel figure exceeds this arithmetic "
                "and is reported alongside, not reproduced"
            ),
        },
        "scaling_rows": scaling,
        "bandwidth_rows": bandwidth_rows,
        "qber_threshold": qber_threshold(config.f_ec),
    }
    _write(os.path.join(out_dir, "fig3d_scaling.csv"),
           _csv_bytes(FIG3D_SCALING_COLUMNS, scaling, config))
    _write(os.path.join(out_dir, "fig3d_bandwidth.csv"),
           _csv_bytes(FIG3D_BANDWIDTH_COLUMNS, bandwidth_rows, config))
    _write(os.path.join(out_dir, "fig3d_report.json"),
           _report_json(config, report))
    return report


CUSTOM_COLUMNS = (
    "loss_db", "configuration", "cc_mc", "qber_mc", "key_rate_bps_mc",
    "singles_alice_mc", "singles_bob_mc", "accidentals_per_s_mc",
    "cc_an", "qber_an", "key_rate_bps_an",
    "z_qber", "z_key_rate", "within_4_sigma", "brightness_scale",
)


def run_custom(config: RunConfig, out_dir: str) -> dict:
    """User-defined sweep; in mode ``both`` each Monte Carlo column is
    paired with its analytic prediction and flagged when count, QBER and
    key rate agree within 4 sigma."""
    return _run_sweep(config, out_dir, "custom", CUSTOM_COLUMNS, wm_sum=False,
                      extras={})


def run_scenario(config: RunConfig, out_dir: str) -> dict:
    if config.scenario == "fig3b":
        return run_fig3b(config, out_dir)
    if config.scenario == "fig3d":
        return run_fig3d(config, out_dir)
    return run_custom(config, out_dir)


def default_config(scenario: str) -> RunConfig:
    """Built-in configuration used when the CLI gets no config file."""
    if scenario == "fig3b":
        return RunConfig(scenario="fig3b", seed=12345, mode="both", duration=2.0,
                         loss_grid_db=(30.0, 40.0, 50.0, 60.0, 70.0, 80.0))
    if scenario == "fig3d":
        return RunConfig(scenario="fig3d", mode="analytic")
    return RunConfig(scenario="custom", seed=12345, mode="both", duration=0.5,
                     loss_grid_db=(20.0, 30.0))
