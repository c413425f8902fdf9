"""Wavelength channels: the measured two-pair plan, synthetic frequency
grids, deterministic demultiplexing, and coherence-time estimates.

A channel plan is a set of energy-matched (signal, idler) passband pairs
about the down-conversion center.  Demultiplexing assigns each pair
event to the channel whose signal passband contains its signal
wavelength (top-hat passbands); events outside all passbands are
dropped.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .source import C_NM_HZ, PairStream, SourceConfig

# Calibration constant in tau = K / delta_nu, chosen so a 6.25 GHz
# channel gives a 50 ps coherence time.
COHERENCE_SHAPE_CONSTANT = 0.3125

# Default wavelength-sum tolerance for energy-matched channel pairs (nm).
ENERGY_MATCH_TOLERANCE_NM = 0.05

SIGNAL = "signal"
IDLER = "idler"


@dataclass(frozen=True)
class WavelengthChannel:
    """One demultiplexed spectral band.

    ``side`` is 'signal' or 'idler'; ``center`` and ``fwhm`` are in nm;
    ``diffraction_efficiency`` is the flat transmission applied to
    photons routed into this channel.
    """

    side: str
    index: int
    center: float
    fwhm: float
    diffraction_efficiency: float

    def __post_init__(self):
        if self.side not in (SIGNAL, IDLER):
            raise ValueError(f"side must be 'signal' or 'idler', got {self.side!r}")
        if self.index < 1:
            raise ValueError(f"index must be >= 1, got {self.index}")
        if self.fwhm <= 0:
            raise ValueError(f"fwhm must be > 0, got {self.fwhm}")
        if not 0.0 < self.diffraction_efficiency <= 1.0:
            raise ValueError(
                f"diffraction_efficiency must be in (0, 1], got {self.diffraction_efficiency}"
            )

    @property
    def passband(self) -> tuple[float, float]:
        """Top-hat passband (lo, hi) in nm."""
        return (self.center - self.fwhm / 2.0, self.center + self.fwhm / 2.0)

    @property
    def center_frequency(self) -> float:
        return C_NM_HZ / self.center

    @property
    def bandwidth_hz(self) -> float:
        """Passband width converted to frequency (Hz)."""
        return C_NM_HZ * self.fwhm / self.center**2


@dataclass(frozen=True)
class ChannelPlan:
    """Paired signal/idler channels about a common spectral center.

    Pairs must be energy-matched in the anticorrelated-wavelength sense:
    the signal and idler offsets from their side center wavelengths sum
    to zero within ``tolerance`` nm.  Same-side passbands must not
    overlap, so demultiplexing is single-valued.
    """

    pairs: tuple[tuple[WavelengthChannel, WavelengthChannel], ...]
    spdc_center: float
    tolerance: float = ENERGY_MATCH_TOLERANCE_NM

    def __post_init__(self):
        indices = [s.index for s, _ in self.pairs]
        if len(set(indices)) != len(indices):
            raise ValueError("pair indices must be unique")
        for s, i in self.pairs:
            if s.side != SIGNAL or i.side != IDLER:
                raise ValueError("each pair must be (signal, idler)")
        mism = energy_mismatches(self)
        if mism.size and np.max(np.abs(mism)) > self.tolerance + 1e-12:
            worst = int(np.argmax(np.abs(mism)))
            raise ValueError(
                f"pair {self.pairs[worst][0].index} is not energy-matched: "
                f"wavelength-sum offset {mism[worst]:.4f} nm exceeds "
                f"tolerance {self.tolerance} nm"
            )
        for side in (SIGNAL, IDLER):
            chans = sorted(self.channels(side), key=lambda c: c.center)
            for a, b in zip(chans, chans[1:]):
                # 1e-9 nm slack: exactly touching passbands are allowed.
                if a.passband[1] > b.passband[0] + 1e-9:
                    raise ValueError(
                        f"{side} channels {a.index} and {b.index} have "
                        "overlapping passbands"
                    )

    def channels(self, side: str) -> list[WavelengthChannel]:
        k = 0 if side == SIGNAL else 1
        return [p[k] for p in self.pairs]

    @property
    def signal_cwl(self) -> float:
        """Signal-side center wavelength implied by the plan center."""
        return float(np.mean([s.center for s, _ in self.pairs]))

    @property
    def idler_cwl(self) -> float:
        return float(np.mean([i.center for _, i in self.pairs]))

    def __len__(self) -> int:
        return len(self.pairs)


def energy_mismatches(plan: ChannelPlan) -> np.ndarray:
    """Wavelength-sum offset per pair, relative to 2 * spdc_center (nm).

    Zero means exact anticorrelated matching; the plan invariant bounds
    the absolute value by the plan tolerance.
    """
    return np.array(
        [s.center + i.center - 2.0 * plan.spdc_center for s, i in plan.pairs]
    )


# Measured channel wavelengths (nm).  As labeled by the hardware, signal
# channel 1 (798.80) was listed with idler channel 1 (820.77), but the
# frequency-sum check pairs 798.80 with 821.31 and 799.32 with 820.77;
# build_table1_plan returns the energy-matched pairing and keeps the
# original per-side index labels so the crossing stays visible.
TABLE1_SIGNAL_NM = (798.80, 799.32)
TABLE1_IDLER_NM = (820.77, 821.31)
TABLE1_SIGNAL_FWHM_NM = 0.12
TABLE1_IDLER_FWHM_NM = 0.24
TABLE1_SIGNAL_EFFICIENCY = 0.70
TABLE1_IDLER_EFFICIENCY = 0.90


def build_table1_plan() -> ChannelPlan:
    """The measured two-pair plan of the experimental setup.

    The plan center is the mean of the four measured channel centers
    (810.05 nm), under which the crossed pairing (798.80, 821.31) and
    (799.32, 820.77) is energy-matched to 0.01 nm.  The as-labeled
    pairing fails the energy check by ~0.43 nm; see
    ``table1_labeling_report``.
    """
    s1 = WavelengthChannel(SIGNAL, 1, TABLE1_SIGNAL_NM[0], TABLE1_SIGNAL_FWHM_NM,
                           TABLE1_SIGNAL_EFFICIENCY)
    s2 = WavelengthChannel(SIGNAL, 2, TABLE1_SIGNAL_NM[1], TABLE1_SIGNAL_FWHM_NM,
                           TABLE1_SIGNAL_EFFICIENCY)
    i1 = WavelengthChannel(IDLER, 1, TABLE1_IDLER_NM[0], TABLE1_IDLER_FWHM_NM,
                           TABLE1_IDLER_EFFICIENCY)
    i2 = WavelengthChannel(IDLER, 2, TABLE1_IDLER_NM[1], TABLE1_IDLER_FWHM_NM,
                           TABLE1_IDLER_EFFICIENCY)
    center = float(np.mean(TABLE1_SIGNAL_NM + TABLE1_IDLER_NM))
    return ChannelPlan(pairs=((s1, i2), (s2, i1)), spdc_center=center)


def table1_source_config(**overrides) -> SourceConfig:
    """Source config consistent with the measured plan geometry.

    The side center wavelengths are the means of the measured channel
    centers per side, so channel detunings are symmetric about zero and
    demultiplexed partners land inside their idler passbands.
    """
    plan = build_table1_plan()
    defaults = dict(
        center_wavelength_signal=plan.signal_cwl,
        center_wavelength_idler=plan.idler_cwl,
        spdc_center=plan.spdc_center,
    )
    defaults.update(overrides)
    return SourceConfig(**defaults)


def table1_labeling_report() -> dict:
    """Report the frequency-sum check for both candidate pairings.

    Offsets are |nu_s + nu_i - 2 nu_0| in GHz about the nominal 810 nm
    center.  The as-labeled pairing (s1,i1),(s2,i2) fails the check per
    pair and in total; the crossed pairing is used, but the discrepancy
    is reported here rather than silently corrected.
    """
    nu0 = C_NM_HZ / 810.0

    def offset(s_nm, i_nm):
        return abs(C_NM_HZ / s_nm + C_NM_HZ / i_nm - 2 * nu0) / 1e9

    labeled = [offset(TABLE1_SIGNAL_NM[k], TABLE1_IDLER_NM[k]) for k in (0, 1)]
    crossed = [
        offset(TABLE1_SIGNAL_NM[0], TABLE1_IDLER_NM[1]),
        offset(TABLE1_SIGNAL_NM[1], TABLE1_IDLER_NM[0]),
    ]
    return {
        "nominal_center_nm": 810.0,
        "implied_center_nm": float(np.mean(TABLE1_SIGNAL_NM + TABLE1_IDLER_NM)),
        "as_labeled_offsets_ghz": labeled,
        "energy_matched_offsets_ghz": crossed,
        "note": (
            "as-labeled pairing (s1,i1),(s2,i2) fails the frequency-sum "
            "check; the energy-matched pairing (s1,i2),(s2,i1) is used"
        ),
    }


class GridTiling(NamedTuple):
    """Band arithmetic of a uniform frequency grid over a wavelength window.

    Band ``k`` spans ``[nu_lo + k * spacing, nu_lo + (k + 1) * spacing]``
    in frequency and reflects about the snapped mirror point onto band
    ``mirror - 1 - k``.
    """

    nu_lo: float
    n_bands: int
    mirror: int

    @property
    def signal_bands(self) -> range:
        """Bands ``k`` paired with a lower band ``mirror - 1 - k`` (that
        is, ``0 <= mirror - 1 - k < k``), ascending; one per pair."""
        return range((self.mirror - 1) // 2 + 1, min(self.mirror, self.n_bands))


def grid_tiling(window_low: float, window_high: float, channel_spacing: float,
                spdc_center: float | None = None) -> GridTiling:
    """Tile ``[c/window_high, c/window_low]`` with bands of width
    ``channel_spacing`` (Hz) and snap the mirror point; see
    :func:`build_grid_plan`."""
    if not window_low < window_high:
        raise ValueError("window_low must be < window_high")
    if channel_spacing <= 0:
        raise ValueError("channel_spacing must be > 0")
    nu_lo = C_NM_HZ / window_high
    nu_hi = C_NM_HZ / window_low
    n_bands = int(np.floor((nu_hi - nu_lo) / channel_spacing))
    if spdc_center is None:
        nu0 = 0.5 * (nu_lo + nu_hi)
    else:
        if not window_low < spdc_center < window_high:
            raise ValueError("spdc_center must lie inside the window")
        nu0 = C_NM_HZ / spdc_center
    # Snap the mirror point onto the half-spacing grid: band k then
    # reflects exactly onto band m - 1 - k.
    m = int(np.rint(2.0 * (nu0 - nu_lo) / channel_spacing))
    return GridTiling(nu_lo, n_bands, m)


def build_grid_plan(
    window_low: float,
    window_high: float,
    channel_spacing: float,
    channel_bandwidth: float,
    spdc_center: float | None = None,
    diffraction_efficiency: float = 1.0,
) -> tuple[ChannelPlan, dict]:
    """Tile a wavelength window with a uniform frequency grid and pair
    the bands symmetrically about the spectral center frequency.

    Parameters
    ----------
    window_low, window_high : float
        Wavelength window bounds (nm); the tiled frequency interval is
        ``[c/window_high, c/window_low]``.
    channel_spacing, channel_bandwidth : float
        Grid pitch and per-band passband width (Hz); spacing must be at
        least the bandwidth (no passband overlap).
    spdc_center : float, optional
        Center wavelength the pairs mirror about.  Defaults to the
        frequency midpoint of the window (a source centered in the
        window pairs the most bands).  The mirror point is snapped to
        the nearest half-spacing grid point so pairings are exact.

    Returns
    -------
    (plan, counts)
        ``plan`` holds only the paired bands; ``counts`` reports
        ``total_bands``, ``paired_channels`` and ``unpaired_bands``
        from the tiling arithmetic (:func:`grid_tiling`).
    """
    if channel_bandwidth <= 0:
        raise ValueError("channel_bandwidth must be > 0")
    if channel_spacing < channel_bandwidth:
        raise ValueError(
            f"channel_spacing ({channel_spacing:g} Hz) must be >= "
            f"channel_bandwidth ({channel_bandwidth:g} Hz)"
        )
    tiling = grid_tiling(window_low, window_high, channel_spacing, spdc_center)
    nu_lo, n_bands, m = tiling
    # Shared band edges: band k spans [edge_k, edge_{k+1}] in frequency,
    # so wavelength passbands touch without overlapping.
    edges = nu_lo + channel_spacing * np.arange(n_bands + 1)
    nu0_snap = nu_lo + 0.5 * channel_spacing * m

    # Passbands of width channel_bandwidth centered in their slots,
    # converted to nm via the band's own frequency edges.
    slot_centers = 0.5 * (edges[:-1] + edges[1:])

    def make_channel(side, index, band):
        f_lo = slot_centers[band] - channel_bandwidth / 2.0
        f_hi = slot_centers[band] + channel_bandwidth / 2.0
        hi_nm, lo_nm = C_NM_HZ / f_lo, C_NM_HZ / f_hi
        return WavelengthChannel(
            side, index, 0.5 * (lo_nm + hi_nm), hi_nm - lo_nm,
            diffraction_efficiency,
        )

    pairs = [
        (make_channel(SIGNAL, k_pair, k), make_channel(IDLER, k_pair, m - 1 - k))
        for k_pair, k in enumerate(tiling.signal_bands, start=1)
    ]

    center_nm = C_NM_HZ / nu0_snap
    # Wavelength-sum residuals of frequency-mirrored pairs grow as
    # (detuning)^2 / center; widen the plan tolerance to accept them.
    tol = ENERGY_MATCH_TOLERANCE_NM
    if pairs:
        worst = max(
            abs(s.center + i.center - 2 * center_nm) for s, i in pairs
        )
        tol = max(tol, worst * 1.01)
    plan = ChannelPlan(pairs=tuple(pairs), spdc_center=center_nm, tolerance=tol)
    counts = {
        "total_bands": n_bands,
        "paired_channels": len(pairs),
        "unpaired_bands": n_bands - 2 * len(pairs),
        "bandwidth_fill_fraction": channel_bandwidth / channel_spacing,
    }
    return plan, counts


def demux(pair_or_stream, plan: ChannelPlan, signal_cwl: float | None = None):
    """Assign pair events to channel pairs by signal wavelength.

    Accepts a :class:`PairStream` (vectorized; returns an index array
    with -1 for unassigned) or a single :class:`PairEvent` (returns the
    pair index or ``None``).  For a lone event the absolute signal
    wavelength is ``signal_cwl + detuning``; the plan's signal-side
    center is used when no source center is given.
    """
    if isinstance(pair_or_stream, PairStream):
        return demux_stream(pair_or_stream, plan)
    if signal_cwl is None:
        signal_cwl = plan.signal_cwl
    return demux_wavelength(signal_cwl + pair_or_stream.detuning, plan)


def demux_wavelength(signal_wavelength: float, plan: ChannelPlan):
    """Channel-pair index for one absolute signal wavelength, or None."""
    index = int(_demux_wavelengths(np.float64(signal_wavelength), plan))
    return None if index < 0 else index


def demux_stream(stream: PairStream, plan: ChannelPlan) -> np.ndarray:
    """Vectorized demux: per-event channel-pair index, -1 for no match."""
    return _demux_wavelengths(stream.signal_wavelengths, plan)


def _demux_wavelengths(wl: np.ndarray, plan: ChannelPlan) -> np.ndarray:
    """Channel-pair index of each absolute signal wavelength, -1 for none;
    at a wavelength on two touching passbands the later pair wins."""
    out = np.full(np.shape(wl), -1, dtype=np.int64)
    for s, _ in plan.pairs:
        lo, hi = s.passband
        out[(wl >= lo) & (wl <= hi)] = s.index
    return out


def coherence_time(channel_bandwidth: float) -> float:
    """Coherence time (s) of photons filtered to the given bandwidth (Hz).

    tau = K / bandwidth with K = 0.3125, calibrated so that a 6.25 GHz
    channel gives 50 ps.
    """
    if channel_bandwidth <= 0:
        raise ValueError("channel_bandwidth must be > 0")
    return COHERENCE_SHAPE_CONSTANT / channel_bandwidth


PLAN_CSV_COLUMNS = ("index", "side", "center_nm", "fwhm_nm", "efficiency")


def plan_to_csv(plan: ChannelPlan) -> str:
    """Serialize a plan's channels as CSV (one row per channel)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(PLAN_CSV_COLUMNS)
    for s, i in plan.pairs:
        for ch in (s, i):
            w.writerow([ch.index, ch.side, f"{ch.center:.6f}",
                        f"{ch.fwhm:.6f}", f"{ch.diffraction_efficiency:.4f}"])
    return buf.getvalue()


def plan_to_dict(plan: ChannelPlan) -> dict:
    return {
        "spdc_center": plan.spdc_center,
        "tolerance": plan.tolerance,
        "pairs": [
            {
                "index": s.index,
                "signal": {"center": s.center, "fwhm": s.fwhm,
                           "efficiency": s.diffraction_efficiency},
                "idler": {"center": i.center, "fwhm": i.fwhm,
                          "efficiency": i.diffraction_efficiency},
            }
            for s, i in plan.pairs
        ],
    }


def plan_from_dict(d: dict) -> ChannelPlan:
    pairs = []
    for p in d["pairs"]:
        s = WavelengthChannel(SIGNAL, p["index"], p["signal"]["center"],
                              p["signal"]["fwhm"], p["signal"]["efficiency"])
        i = WavelengthChannel(IDLER, p["index"], p["idler"]["center"],
                              p["idler"]["fwhm"], p["idler"]["efficiency"])
        pairs.append((s, i))
    return ChannelPlan(
        pairs=tuple(pairs),
        spdc_center=d["spdc_center"],
        tolerance=d.get("tolerance", ENERGY_MATCH_TOLERANCE_NM),
    )
