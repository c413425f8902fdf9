"""Refined analytic model of the Monte Carlo pipelines, and the frozen
scenario calibration.

:func:`predict_rows` predicts every wavelength channel of a plan and the
merged (non-multiplexed) baseline in one array call.  Each channel is
``keyrate.link_rates`` with the configured detector and the
tick-quantized window; this module adds only the merged baseline's
cross-channel blocking.  :func:`predict_channel` and
:func:`predict_merged` are its one-row and merged-only forms.
:func:`fig3d_model` gives the fig3d projection channel as one
``keyrate.AnalyticLinkModel``, of numbers or of arrays over losses and
bandwidths.

The experiment's absolute settings are pinned once here and reused by
every scenario run, so no comparison can tune parameters per claim:

* the full-spectrum pair rate is inverted from the measured in-band
  brightness (7.8e5 cps/mW x 50 mW in a 0.1 nm band at band center);
* channel 1's systematic visibility is fitted so its simulated QBER at
  the 30 dB reference point is 3.8%;
* channel 2's systematic visibility is fitted so the single-channel to
  merged-baseline key-rate ratio at 30 dB is 1.9;
* the n-channel projection's per-channel pair rate at 6.25 GHz is
  anchored so the no-key bandwidth boundary falls at 21.5 GHz (between
  the last working and first failing reported bandwidths).

``derive_calibration`` recomputes everything from those anchors with
the refined model at the plan geometry of ``simulate.resolve_channels``;
the frozen numbers are checked against it in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import build_table1_plan, table1_source_config
from .coincidence import CoincidenceWindow
from .detection import DetectorConfig, side_transmittance
from .keyrate import (DEFAULT_F_EC, AnalyticLinkModel, AnalyticRates, analytic_rates,
                      coincidence_mix, link_rates, qber_threshold)
from .simulate import resolve_channels
from .source import SourceConfig, _erf, band_fraction

CALIBRATION_VERSION = "1"

# Anchors (quoted hardware behavior).
FILTERED_BRIGHTNESS_CPS_PER_MW = 7.8e5
PUMP_POWER_MW = 50.0
BRIGHTNESS_FILTER_FWHM_NM = 0.1
REFERENCE_LOSS_DB = 30.0
TARGET_QBER_CH1 = 0.038
TARGET_RATIO_CH1_OVER_MERGED = 1.9
FIG3D_TOTAL_LOSS_DB = 70.0
FIG3D_DARK_PER_SIDE = 200.0
FIG3D_BANDWIDTH_THRESHOLD_GHZ = 21.5
FIG3D_REFERENCE_BANDWIDTH_GHZ = 6.25

DEFAULT_DETECTOR = DetectorConfig(
    efficiency=0.60,
    dark_rate=100.0,
    jitter_sigma=250e-12,
    dead_time=50e-9,
)


def window_efficiency(jitter_sigma: float, width: float) -> float:
    """Probability that a true pair's detection-time difference falls
    inside a window of total ``width`` given per-detector normal jitter."""
    if jitter_sigma <= 0:
        return 1.0
    return _erf(width / (4.0 * jitter_sigma))


def _total(x: np.ndarray) -> float:
    # Left-to-right sum from zero, as Python's ``sum``: np.sum adds
    # pairwise from eight terms on and differs in the last bit.
    return float(np.cumsum(np.concatenate(([0.0], x)))[-1])


def predict_rows(
    rows,
    q_sys,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    f_ec: float = DEFAULT_F_EC,
) -> tuple[list[AnalyticRates], AnalyticRates]:
    """Predict every wavelength channel and the merged baseline at once.

    ``rows`` holds ``(pair_rate, eta_alice, eta_bob)`` per channel and
    ``q_sys`` each channel's systematic error fraction: one value per
    channel, or one row per basis of one value per channel.  Each basis
    takes an equal share of the record, so the QBER and key rates of a
    record are the mean over the rows of ``q_sys``; the counts and
    singles do not depend on it.  A channel is
    :func:`~wmqkd.keyrate.link_rates` with the detector's efficiency,
    dark counts (``dark_rate`` per port) and dead time, the jitter
    window efficiency and the tick-quantized effective window width.
    The merged (non-multiplexed) baseline joins corresponding detector
    ports per side: a tag of one channel additionally dies when a kept
    tag of another channel precedes it within the dead time.  Returns
    the per-channel rates and the merged ones, each for one channel
    (``n_channels`` 1); with one row the two agree.
    """
    b, ea, eb = np.asarray(rows, dtype=np.float64).reshape(-1, 3).T
    q_sys = np.atleast_2d(np.asarray(q_sys, dtype=np.float64))
    w_eff = window.effective_width(detector.tick)
    eta_w = window_efficiency(detector.jitter_sigma, w_eff)
    dead = detector.dead_time
    dark = 2.0 * detector.dark_rate
    channels, pre_window = link_rates(
        b, ea, eb, dark, dark, detector.efficiency, dead, w_eff, eta_w, q_sys, f_ec)

    # Cross-channel blocking in the merged stream (per side, per port;
    # a port puts out half its side's singles).
    merged_singles, rho_merge = [], []
    for singles in (channels.singles_alice, channels.singles_bob):
        out = singles / 2.0
        denom = 1.0 + (_total(out) - out) * dead
        merged_singles.append(2.0 * _total(out / denom))
        rho_merge.append(1.0 / denom)
    t = pre_window * rho_merge[0] * rho_merge[1] * eta_w
    # One-element arrays: coincidence_mix divides by the total everywhere
    # and keeps only positive totals, so on floats an all-zero row would
    # raise ZeroDivisionError.
    s_a, s_b, cc_true = np.atleast_1d(*merged_singles, _total(t))
    q_weighted = np.array([[_total(q * t)] for q in q_sys])
    cc_acc, q, key = coincidence_mix(s_a, s_b, cc_true, q_weighted, w_eff, f_ec)
    [merged] = _records(AnalyticRates(cc_true, cc_acc, s_a, s_b, q, key, key))
    return _records(channels), merged


def _records(rates: AnalyticRates) -> list[AnalyticRates]:
    """One record of floats per element of array-valued ``rates``; a
    field of one row per basis gives the mean over its rows."""
    columns = ((x.mean(0) if x.ndim == 2 else x).tolist() for x in vars(rates).values())
    return [AnalyticRates(*row) for row in zip(*columns)]


def predict_channel(
    pair_rate_in_band: float,
    arrival_eff_alice: float,
    arrival_eff_bob: float,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    q_sys: float,
    f_ec: float = DEFAULT_F_EC,
) -> AnalyticRates:
    """Predict one wavelength channel's measured rates; the one-row call
    of :func:`predict_rows`."""
    rows = [(pair_rate_in_band, arrival_eff_alice, arrival_eff_bob)]
    return predict_rows(rows, [q_sys], detector, window, f_ec)[0][0]


def predict_merged(
    rows,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    q_sys_by_channel,
    f_ec: float = DEFAULT_F_EC,
) -> AnalyticRates:
    """Predict the merged (non-multiplexed) baseline of the channel
    ``rows``; see :func:`predict_rows`."""
    return predict_rows(rows, q_sys_by_channel, detector, window, f_ec)[1]


@dataclass(frozen=True)
class Calibration:
    """Frozen fitted parameters; see module docstring for the anchors."""

    version: str
    full_spectrum_pair_rate: float
    v_sys_channel1: float
    v_sys_channel2: float
    fig3d_pair_rate_per_channel: float

    @property
    def q_sys_channel1(self) -> float:
        return (1.0 - self.v_sys_channel1) / 2.0

    def source(self, **overrides) -> SourceConfig:
        """Table-1-consistent source with the calibrated pair rate and
        channel-1 systematic visibility as the source default."""
        defaults = dict(
            pair_rate=self.full_spectrum_pair_rate,
            systematic_visibility_hv=self.v_sys_channel1,
            systematic_visibility_da=self.v_sys_channel1,
        )
        defaults.update(overrides)
        return table1_source_config(**defaults)

    def channel_visibilities(self) -> dict[int, tuple[float, float]]:
        return {
            1: (self.v_sys_channel1, self.v_sys_channel1),
            2: (self.v_sys_channel2, self.v_sys_channel2),
        }


def derive_calibration() -> Calibration:
    """Re-derive every frozen parameter from its anchor, with the default
    detector and a 1 ns window."""
    from scipy.optimize import brentq  # imported here to keep scipy off the import path

    detector, window = DEFAULT_DETECTOR, CoincidenceWindow(1e-9)

    src0 = table1_source_config(pair_rate=1.0)
    in_band = FILTERED_BRIGHTNESS_CPS_PER_MW * PUMP_POWER_MW
    full_rate = in_band / band_fraction(src0, 0.0, BRIGHTNESS_FILTER_FWHM_NM)

    chans = resolve_channels(table1_source_config(pair_rate=full_rate),
                             build_table1_plan(), REFERENCE_LOSS_DB)
    rows = [c.geometry for c in chans]

    def channel1(q1):
        return predict_rows(rows[:1], [q1], detector, window)[0][0]

    q1 = brentq(lambda q: channel1(q).qber - TARGET_QBER_CH1, 0.0, 0.2, xtol=1e-10)

    ch1 = channel1(q1)

    def ratio_gap(q2):
        # Zero where ch1.key / merged.key equals the target ratio; stays
        # finite when the merged key is clamped to zero.
        merged = predict_rows(rows, [q1, q2], detector, window)[1]
        return (ch1.key_rate_per_channel
                - TARGET_RATIO_CH1_OVER_MERGED * merged.key_rate_per_channel)

    q2 = brentq(ratio_gap, q1, 0.4, xtol=1e-10)

    fig3d_b = _fig3d_reference_pair_rate(q1)

    return Calibration(
        version=CALIBRATION_VERSION,
        full_spectrum_pair_rate=full_rate,
        v_sys_channel1=1.0 - 2.0 * q1,
        v_sys_channel2=1.0 - 2.0 * q2,
        fig3d_pair_rate_per_channel=fig3d_b,
    )


def _fig3d_reference_pair_rate(q_sys: float) -> float:
    """Per-channel pair rate of the fixed-source projection, anchored so
    the key vanishes exactly at the threshold bandwidth."""
    from scipy.optimize import brentq

    eta = side_transmittance(FIG3D_TOTAL_LOSS_DB)
    thr = qber_threshold(1.1, tol=1e-9)
    scale = FIG3D_BANDWIDTH_THRESHOLD_GHZ / FIG3D_REFERENCE_BANDWIDTH_GHZ

    def qber_at_threshold_bw(b_ref):
        m = AnalyticLinkModel(
            pair_rate_in_band=b_ref * scale,
            transmittance_alice=eta, transmittance_bob=eta,
            dark_rate_alice=FIG3D_DARK_PER_SIDE, dark_rate_bob=FIG3D_DARK_PER_SIDE,
            t_c=1e-9, q_sys=q_sys,
        )
        return analytic_rates(m).qber

    return float(brentq(lambda b: qber_at_threshold_bw(b) - thr, 1e4, 1e12,
                        xtol=1e-2))


def fig3d_model(calibration: Calibration, loss_db=FIG3D_TOTAL_LOSS_DB,
                bandwidth_ghz=FIG3D_REFERENCE_BANDWIDTH_GHZ,
                n_channels: int = 1, f_ec: float = DEFAULT_F_EC) -> AnalyticLinkModel:
    """Analytic model of the projection channel at the frozen settings,
    with ``n_channels`` channels and error-correction efficiency ``f_ec``.

    ``loss_db`` and ``bandwidth_ghz`` are numbers (one model) or arrays
    (one model per element of their broadcast).  The per-channel pair
    rate scales linearly with bandwidth at fixed source spectral
    density.  Each transmittance is Python's ``10.0 ** x`` of
    :func:`side_transmittance`; ``np.power`` differs from it in the last
    bit.
    """
    loss = np.asarray(loss_db, dtype=np.float64)
    eta = [side_transmittance(x) for x in loss.ravel().tolist()]
    eta = np.array(eta).reshape(loss.shape) if loss.ndim else eta[0]
    return AnalyticLinkModel(
        pair_rate_in_band=calibration.fig3d_pair_rate_per_channel
        * (bandwidth_ghz / FIG3D_REFERENCE_BANDWIDTH_GHZ),
        transmittance_alice=eta, transmittance_bob=eta,
        dark_rate_alice=FIG3D_DARK_PER_SIDE, dark_rate_bob=FIG3D_DARK_PER_SIDE,
        t_c=1e-9, q_sys=calibration.q_sys_channel1, n_channels=n_channels, f_ec=f_ec,
    )


# Frozen output of derive_calibration() with the default detector and a
# 1 ns window; regression-checked in the tests.
FROZEN_CALIBRATION = Calibration(
    version=CALIBRATION_VERSION,
    full_spectrum_pair_rate=1.9638250997323847e9,
    v_sys_channel1=0.9767812636603043,
    v_sys_channel2=0.8808742708887531,
    fig3d_pair_rate_per_channel=6.5906417686778694e7,
)
