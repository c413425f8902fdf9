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

from . import calibration as calib
from .calibration import FROZEN_CALIBRATION, fig3d_model, predict_rows
from .channels import (ChannelPlan, build_grid_plan, build_table1_plan, grid_tiling,
                       plan_from_dict, plan_to_dict)
from .coincidence import CoincidenceWindow
from .detection import Basis, DetectorConfig, side_transmittance
from .keyrate import (AnalyticRates, analytic_rates, binary_entropy,
                      optimize_pair_rates, qber, qber_threshold, scaling_rows,
                      secure_key)
from .simulate import (ChannelScenario, PipelineResult, block_frame, resolve_channels,
                       simulate_point)
from .source import SourceConfig

MODES = ("montecarlo", "analytic", "both")
SCENARIOS = ("fig3b", "fig3d", "custom")
BRIGHTNESS_POLICIES = ("calibrated", "near_saturation")
MIN_EXPECTED_EVENTS = 1e3
# The near-saturation brightness puts the predicted QBER of the plan's
# first channel pair at this fraction of the key threshold.
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
        for name, parse, ok, wording in _FIELD_RULES:
            value = getattr(self, name)
            try:
                parsed = parse(value)
                valid = ok(parsed)
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                raise ConfigError(name, f"must be {wording}, got {value!r}")
            setattr(self, name, parsed)
        if self.source is None:
            self.source = FROZEN_CALIBRATION.source()
        table1 = build_table1_plan()
        if self.plan is None:
            self.plan = table1
        for name, (kind, _) in _NESTED.items():
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ConfigError(name, f"must be a {kind.__name__}, got {value!r}")
        if self.detector.tick > self.window.t_c:
            # The half window would be 0 ticks: every tick would be its own
            # window, whatever t_c, and its ties are matched port 0 first.
            raise ConfigError("detector.tick", f"must be at most the window t_c "
                              f"({self.window.t_c:g} s), got {self.detector.tick:g} s")
        try:
            block_frame(self.duration / 2.0, self.detector, self.window, len(self.plan.pairs))
        except ValueError as exc:
            raise ConfigError("duration", str(exc)) from exc
        if not self.plan.pairs:
            raise ConfigError("plan.pairs", "must hold at least one channel pair")
        if self.channel_visibilities is None:
            # The fitted visibilities belong to the measured channels; any
            # other plan uses the source's systematic visibility throughout.
            self.channel_visibilities = \
                FROZEN_CALIBRATION.channel_visibilities() if self.plan == table1 else {}
        try:
            self.channel_visibilities = _visibilities(self.channel_visibilities)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError("channel_visibilities", str(exc)) from exc
        unknown = set(self.channel_visibilities) - {s.index for s, _ in self.plan.pairs}
        if unknown:
            raise ConfigError("channel_visibilities",
                              f"the plan has no channel pair {min(unknown)}")

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

    Each nested object given is parsed by its entry in ``_NESTED``, in
    the order of the ``RunConfig`` fields; every other field is passed on
    as it is, for ``RunConfig`` to check.  A parser's error becomes a
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
            kwargs[key] = _NESTED[key][1](raw[key]) if key in _NESTED else raw[key]
        except ConfigError:
            raise
        except (TypeError, ValueError, IndexError, AttributeError, OverflowError) as exc:
            raise ConfigError(key, str(exc)) from exc
    return RunConfig(**kwargs)


def _as_is(x):
    return x


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x) -> float:
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise TypeError(f"must be a number, got {x!r}")
    return float(x)


def _list(x) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise TypeError("must be a list")
    return tuple(x)


def _numbers(x) -> tuple[float, ...]:
    return tuple(_number(v) for v in _list(x))


def _number_fields(x) -> dict[str, float]:
    """Each value of a JSON object through :func:`_number`; an error names
    its key."""
    if not isinstance(x, dict):
        raise TypeError(f"must be a JSON object, got {x!r}")
    out = {}
    for key, value in x.items():
        try:
            out[key] = _number(value)
        except TypeError as exc:
            raise TypeError(f"{key} {exc}") from None
    return out


def _visibilities(x) -> dict[int, tuple[float, float]]:
    """Each channel's two visibilities (HV, DA), keyed by its index: an
    integer, or its decimal text as :meth:`RunConfig.to_dict` writes it."""
    if not isinstance(x, dict):
        raise TypeError(f"must be a JSON object, got {x!r}")
    out = {}
    for key, value in x.items():
        if not (_is_int(key) or isinstance(key, str) and key == str(int(key))):
            raise TypeError(f"channel {key!r} must be an integer or its decimal text")
        index = int(key)
        if index in out:
            raise ValueError(f"channel {index} is given twice")
        out[index] = _numbers(value)
        if len(out[index]) != 2:
            raise ValueError(f"channel {index} must have two visibilities, got {value!r}")
    bad = [v for pair in out.values() for v in pair if not 0.0 <= v <= 1.0]
    if bad:
        raise ValueError(f"visibilities must be finite numbers in [0, 1], got {bad[0]}")
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


def _each(ok):
    """A test of a non-empty list: every element passes ``ok``."""
    return lambda xs: len(xs) > 0 and all(map(ok, xs))


# The rule of each plain field, applied by RunConfig to JSON input and to
# directly built configs alike: the field, its parser, a test of the
# parsed value and the test's wording.  A value that the parser rejects
# (TypeError, ValueError) or that fails the test is a ConfigError on the
# field.  NaN fails every test.
_FIELD_RULES = (
    ("scenario", _as_is, lambda x: x in SCENARIOS, f"one of {SCENARIOS}"),
    ("mode", _as_is, lambda x: x in MODES, f"one of {MODES}"),
    ("seed", _as_is, lambda x: _is_int(x) and x >= 0, "an integer >= 0"),
    ("duration", _number, lambda x: 0 < x < math.inf, "a finite number > 0"),
    ("loss_grid_db", _numbers,
     lambda xs: _each(lambda x: 0 <= x < math.inf)(xs) and list(xs) == sorted(xs),
     "a non-empty ascending list of finite numbers >= 0"),
    ("brightness", lambda x: x if isinstance(x, str) else _number(x),
     lambda x: x in BRIGHTNESS_POLICIES if isinstance(x, str) else 0 < x < math.inf,
     f"a finite number > 0 (a scale factor) or one of {BRIGHTNESS_POLICIES}"),
    ("f_ec", _number, lambda x: 1 <= x < math.inf, "a finite number >= 1"),
    ("fig3d_n_values", _list, _each(lambda n: _is_int(n) and n >= 1),
     "a non-empty list of integers >= 1"),
    ("fig3d_bandwidths_ghz", _numbers, _each(lambda x: 0 < x < math.inf),
     "a non-empty list of finite numbers > 0"),
    ("fig3d_loss_grid_db", _numbers,
     _each(lambda x: 0 <= x < math.inf and side_transmittance(x) > 0),
     "a non-empty list of finite numbers >= 0, each below the loss where a side's "
     "transmittance 10**(-x/20) underflows to 0 (about 6472 dB)"),
)

# Each nested configuration object: its type, which RunConfig checks, and
# the parser of its JSON input (see config_from_dict).  The objects reject
# their own non-finite fields.  RunConfig applies ``_visibilities`` to the
# channel visibilities of JSON input and of directly built configs alike.
_NESTED = {
    "source": (SourceConfig, lambda x: FROZEN_CALIBRATION.source(**_number_fields(x))),
    "plan": (ChannelPlan, _parse_plan),
    "detector": (DetectorConfig,
                 lambda x: replace(calib.DEFAULT_DETECTOR, **_number_fields(x))),
    "window": (CoincidenceWindow, lambda x: CoincidenceWindow(**_number_fields(x))),
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
    predicted QBER of the plan's first channel pair (channel 1 of the
    table-1 plan) reaches ``NEAR_SATURATION_QBER_FRACTION`` of the key
    threshold; beyond that the accidental load erases the key.  Raises
    ``ConfigError`` on ``brightness`` when no scale in the search range
    gets that channel's QBER to the target.
    """
    from scipy.optimize import brentq, minimize_scalar

    ch = resolve_channels(config.source, config.plan, loss_db,
                          config.channel_visibilities)[0]
    b1, ea1, eb1 = ch.geometry
    thr = NEAR_SATURATION_QBER_FRACTION * qber_threshold(config.f_ec)

    def q_of(scale):
        return predict_rows([(b1 * scale, ea1, eb1)], _q_sys([ch]), config.detector,
                            config.window, config.f_ec)[0][0].qber

    res = minimize_scalar(lambda s: q_of(math.exp(s)),
                          bounds=(math.log(1e-4), math.log(1e4)), method="bounded")
    s_min = math.exp(res.x)
    q_min, q_top = q_of(s_min), q_of(1e6)
    if not q_min < thr <= q_top:
        raise ConfigError(
            "brightness",
            f"near_saturation: channel {ch.index} at {loss_db} dB cannot reach "
            f"QBER {thr:.4f}: its QBER is {q_min:.4f} at the minimum and "
            f"{q_top:.4f} at brightness scale 1e6")
    return float(brentq(lambda s: q_of(s) - thr, s_min, 1e6, xtol=1e-8))


def _brightness_scale(config: RunConfig, loss_db: float) -> float:
    if config.brightness == "calibrated":
        return 1.0
    if config.brightness == "near_saturation":
        return near_saturation_scale(config, loss_db)
    return float(config.brightness)


# ---------------------------------------------------------------------------
# Analytic predictions for the configured plan


def predict_point(config: RunConfig, chans: list[ChannelScenario]) -> list[AnalyticRates]:
    """Refined analytic prediction for every pipeline of one loss point
    whose channels are ``chans``: each channel's, in order, then the
    merged baseline's when there are two or more (the order of
    :func:`simulate_point`)."""
    preds, merged = predict_rows([c.geometry for c in chans], _q_sys(chans),
                                 config.detector, config.window, config.f_ec)
    return preds + [merged] if len(chans) >= 2 else preds


def _q_sys(chans) -> list[list[float]]:
    """The systematic error fraction of each channel of ``chans`` in each
    basis: one row per basis, of which a record takes half each."""
    return [[(1.0 - c.v_sys(basis)) / 2.0 for c in chans] for basis in Basis]


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
    """The Monte Carlo columns of one pipeline's row."""
    hv, da = result.counts_hv, result.counts_da
    return {
        "cc_mc": hv.total + da.total,
        "qber_mc": _weighted_qber([(qber(hv), hv.total), (qber(da), da.total)]),
        "key_rate_bps_mc": secure_key(hv, da, f_ec) / (hv.duration + da.duration),
        "singles_alice_mc": result.singles_alice,
        "singles_bob_mc": result.singles_bob,
        "accidentals_per_s_mc": result.accidental_rate,
    }


def _prediction_row(pred: AnalyticRates, duration: float) -> dict:
    total = pred.cc_true + pred.cc_accidental
    return {
        "cc_an": total * duration,
        "qber_an": pred.qber,
        "key_rate_bps_an": pred.key_rate_per_channel,
    }


def consistency_sigmas(pred: AnalyticRates, mc_row: dict, duration: float,
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
    z_r = (mc_row["key_rate_bps_mc"] - pred.key_rate_per_channel) / sigma_key_rate \
        if sigma_key_rate > 0 else float("nan")
    return {"z_cc": z_cc, "z_qber": z_q, "z_key_rate": z_r}


def within_4_sigma(z: dict) -> bool:
    """Whether every defined z-score of ``consistency_sigmas`` is within
    4 sigma.

    ``z_qber`` is NaN when the Monte Carlo saw no coincidences; the row
    is then judged on its count and key rate, and the count fails it
    when many coincidences were expected and none came, even where no
    key was predicted.  False when no z-score is defined.
    """
    defined = [abs(v) for v in z.values() if not math.isnan(v)]
    return bool(defined) and all(v <= 4.0 for v in defined)


# ---------------------------------------------------------------------------
# Output writers


def _csv_bytes(columns: tuple[str, ...], rows: list[dict], config: RunConfig) -> str:
    """The config line, the header and one line per row.

    A float cell (numpy's included) is written ``.10g``, which writes
    every NaN as ``nan``; a missing cell or ``None`` is empty, as the
    csv module writes ``None``; any other cell is written by the csv
    module.  Rows are formatted column by column and written in one
    call.
    """
    buf = io.StringIO()
    buf.write("# config: " + _json_compact(config.to_dict()) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(columns)
    w.writerows(zip(*([f"{x:.10g}" if isinstance(x, float) else x
                       for x in [r.get(c) for r in rows]] for c in columns)))
    return buf.getvalue()


def _json_compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _all_scalars(values) -> bool:
    return all(isinstance(v, (str, int, float, type(None))) for v in values)


def _json_indent1(obj, ind: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=1)`` for ``obj`` whose
    closing bracket goes after ``ind`` (a newline and its indent).

    The C encoder writes each container of scalars, and each list of
    non-empty flat dicts, in one call; only the levels above them
    recurse in Python.  The encoder escapes newlines inside strings, so
    every newline it writes is a separator of the given ones: in a list
    of flat dicts written with ``"," + ind + "  "`` between all items,
    the seam ``"}," + ind + "  {"`` can only be a row boundary.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = ind + " "
    is_dict = isinstance(obj, dict)
    if _all_scalars(obj.values() if is_dict else obj):
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + ind + text[-1]
    if is_dict:
        if not all(isinstance(k, str) for k in obj):
            # Other keys are converted to text after sorting; leave them to json.
            return json.dumps(obj, sort_keys=True, indent=1).replace("\n", ind)
        body = ("," + inner).join(json.dumps(k) + ": " + _json_indent1(obj[k], inner)
                                  for k in sorted(obj))
        return "{" + inner + body + ind + "}"
    if all(isinstance(r, dict) and r and _all_scalars(r.values()) for r in obj):
        row = inner + " "
        text = json.dumps(obj, sort_keys=True, separators=("," + row, ": "))
        body = text[2:-2].replace("}," + row + "{", inner + "}," + inner + "{" + row)
        return "[" + inner + "{" + row + body + inner + "}" + ind + "]"
    return "[" + inner + ("," + inner).join(_json_indent1(v, inner) for v in obj) + ind + "]"


def _write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _report_json(config: RunConfig, payload: dict) -> str:
    doc = {"config": config.to_dict()}
    doc.update(payload)
    return _json_indent1(doc) + "\n"


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
    plus the ``wm_sum`` row of per-channel sums when asked.

    The point's channels are resolved once, at its brightness scale, and
    that one list feeds both the prediction and the Monte Carlo, which
    give their pipelines in the same order; the labels follow it."""
    scale = _brightness_scale(config, loss)
    chans = resolve_channels(config.source, config.plan, loss,
                             config.channel_visibilities, scale)
    labels = [f"ch{c.index}" for c in chans] + (["no_wm"] if len(chans) >= 2 else [])
    preds = predict_point(config, chans)
    analytic = config.mode in ("analytic", "both")
    mc = config.mode in ("montecarlo", "both")
    results = [None] * len(labels)
    if mc:
        results = simulate_point(chans, config.detector, config.window, config.duration,
                                 config.seed)
    rows = []
    for label, pred, res in zip(labels, preds, results, strict=True):
        row = {"loss_db": loss, "configuration": label, "brightness_scale": scale}
        if analytic:
            row.update(_prediction_row(pred, config.duration))
        if mc:
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
    # Multiplexed sum: per-channel keys added, over the first len(chans) rows.
    n = len(chans)
    sum_row = {"loss_db": loss, "configuration": "wm_sum", "brightness_scale": scale}
    if analytic:
        totals = [p.cc_true + p.cc_accidental for p in preds[:n]]
        sum_row.update({
            "cc_an": sum(t * config.duration for t in totals),
            "qber_an": _weighted_qber([(p.qber, t) for p, t in zip(preds, totals)]),
            "key_rate_bps_an": sum(p.key_rate_per_channel for p in preds[:n]),
        })
    if mc:
        # The channels' rows already hold their Monte Carlo columns.
        parts = rows[:n]
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
    The report's ``warnings`` name each loss whose optimum is not
    interior to the search bracket, as at the frozen settings from about
    110 dB, where no pair rate gives a key; its row is still the one
    marked ``optimized``.
    """
    cal = FROZEN_CALIBRATION
    losses = config.fig3d_loss_grid_db
    bandwidths = config.fig3d_bandwidths_ghz
    loss_array = np.array(losses, dtype=np.float64)
    base = fig3d_model(cal, loss_array, f_ec=config.f_ec)
    opts = optimize_pair_rates(base)
    best = analytic_rates(replace(base, pair_rate_in_band=np.array(
        [o.pair_rate for o in opts])))
    # One row per loss, one column per bandwidth.
    broad_model = fig3d_model(cal, loss_array[:, None],
                              np.array(bandwidths, dtype=np.float64), f_ec=config.f_ec)
    broad = analytic_rates(broad_model)
    broad_pair_rates = broad_model.pair_rate_in_band.tolist()
    scaling = scaling_rows(config.fig3d_n_values, losses, best)
    bandwidth_rows = []
    for loss, opt, q, key, q_bw, key_bw in zip(
            losses, opts, best.qber.tolist(), best.key_rate_per_channel.tolist(),
            broad.qber.tolist(), broad.key_rate_per_channel.tolist()):
        bandwidth_rows.append({
            "bandwidth_ghz": calib.FIG3D_REFERENCE_BANDWIDTH_GHZ,
            "loss_db": float(loss), "qber": q, "key_rate_bps": key,
            "pair_rate_per_channel": opt.pair_rate, "optimized": True,
        })
        bandwidth_rows.extend({
            "bandwidth_ghz": float(bw), "loss_db": float(loss), "qber": q_b,
            "key_rate_bps": key_b, "pair_rate_per_channel": b, "optimized": False,
        } for bw, q_b, key_b, b in zip(bandwidths, q_bw, key_bw, broad_pair_rates))

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
        "warnings": [f"loss {loss} dB: {opt.warning} (pair rate {opt.pair_rate:g} "
                     f"per channel, key {opt.key_rate_total:g} bps)"
                     for loss, opt in zip(losses, opts) if not opt.interior],
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
