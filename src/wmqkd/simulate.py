"""Seeded end-to-end Monte Carlo simulation of one scenario point.

For each channel pair and basis block, surviving-photon streams are
sampled directly at their thinned Poisson rates (both-survive,
signal-only, idler-only), which is distributionally identical to
sampling every generated pair and then applying per-photon loss, but
stays tractable at high loss where almost all pairs are lost.  The
equivalence is covered by tests against the explicit
sample -> transmit -> measure path.

The wavelength-multiplexed pipeline analyzes each channel pair with its
own detectors; the non-multiplexed baseline merges the recorded tag
streams of corresponding detectors (post-processing, as a hardware
merge would) and re-runs coincidence analysis on the merged streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import ChannelPlan
from .coincidence import (CoincidenceWindow, CountsMatrix, accidental_estimate,
                          find_coincidences, tabulate)
from .detection import (Basis, DetectorConfig, TagStream, _merge_streams, detect,
                        measure_pair_outcomes, measure_single_outcomes)
from .keyrate import ChannelResult, channel_result
from .source import SourceConfig, _rng, band_fraction, child_seed

MERGED_LABEL = "merged"

# Stable sub-seed component ids.
_SEED_BOTH, _SEED_A_ONLY, _SEED_B_ONLY = 0, 1, 2
_SEED_OUT_BOTH, _SEED_OUT_A, _SEED_OUT_B = 3, 4, 5
_SEED_DETECT_A, _SEED_DETECT_B = 6, 7

_BLOCK_OF_BASIS = {Basis.HV: 0, Basis.DA: 1}


@dataclass(frozen=True)
class ChannelScenario:
    """Resolved per-channel simulation parameters."""

    index: int
    pair_rate_in_band: float
    arrival_efficiency_signal: float   # link loss x filter efficiency
    arrival_efficiency_idler: float
    v_sys_hv: float
    v_sys_da: float

    def v_sys(self, basis: Basis) -> float:
        return self.v_sys_hv if basis is Basis.HV else self.v_sys_da

    @property
    def geometry(self) -> tuple[float, float, float]:
        """(pair rate, eta_alice, eta_bob): one row of the analytic model."""
        return (self.pair_rate_in_band, self.arrival_efficiency_signal,
                self.arrival_efficiency_idler)

    @property
    def q_sys(self) -> float:
        """Systematic error fraction of the analytic model (HV visibility)."""
        return (1.0 - self.v_sys_hv) / 2.0


def resolve_channels(
    source: SourceConfig,
    plan: ChannelPlan,
    loss_db: float,
    channel_visibilities: dict[int, tuple[float, float]] | None = None,
    brightness_scale: float = 1.0,
) -> list[ChannelScenario]:
    """Compute per-channel in-band pair rates and arrival efficiencies.

    The in-band rate is the full-spectrum rate times the signal
    passband's spectral fraction; the symmetric channel loss is split
    evenly between the sides and multiplied by each side's filter
    diffraction efficiency.
    """
    eta_link = 10.0 ** (-(loss_db / 2.0) / 10.0)
    out = []
    for sig, idl in plan.pairs:
        det = sig.center - source.center_wavelength_signal
        rate = brightness_scale * source.pair_rate * band_fraction(source, det, sig.fwhm)
        v_hv = source.systematic_visibility_hv
        v_da = source.systematic_visibility_da
        if channel_visibilities and sig.index in channel_visibilities:
            v_hv, v_da = channel_visibilities[sig.index]
        out.append(ChannelScenario(
            index=sig.index,
            pair_rate_in_band=rate,
            arrival_efficiency_signal=eta_link * sig.diffraction_efficiency,
            arrival_efficiency_idler=eta_link * idl.diffraction_efficiency,
            v_sys_hv=v_hv,
            v_sys_da=v_da,
        ))
    return out


def detector_ids(channel_slot: int, side: int) -> tuple[int, int]:
    """Physical detector ids of one analyzer module.

    ``side`` is 0 for Alice (signal) and 1 for Bob (idler); each module
    has two output ports.
    """
    base = (channel_slot * 2 + side) * 2
    return (base, base + 1)


@dataclass
class BlockTags:
    """Alice and Bob tag streams of one channel in one basis block."""

    basis: Basis
    alice: TagStream
    bob: TagStream


def simulate_channel_block(
    ch: ChannelScenario,
    basis: Basis,
    detector: DetectorConfig,
    block_duration: float,
    seed: int,
    channel_slot: int,
) -> BlockTags:
    """Simulate one basis block of one channel pair.

    Emission of surviving pairs and half-pairs is sampled as three
    independent Poisson processes; polarization outcomes follow the
    anti-correlated joint distribution for full pairs and uniform
    marginals for lone photons; both sides then pass through the
    detector chain.
    """
    block = _BLOCK_OF_BASIS[basis]
    b = ch.pair_rate_in_band
    ea, eb = ch.arrival_efficiency_signal, ch.arrival_efficiency_idler
    rates = (b * ea * eb, b * ea * (1.0 - eb), b * (1.0 - ea) * eb)
    seeds = [child_seed(seed, ch.index, block, comp)
             for comp in (_SEED_BOTH, _SEED_A_ONLY, _SEED_B_ONLY)]
    t_both, t_aonly, t_bonly = (
        _poisson_times(rate, block_duration, s) for rate, s in zip(rates, seeds)
    )

    rng_both = _rng(child_seed(seed, ch.index, block, _SEED_OUT_BOTH))
    bits_s, bits_i = measure_pair_outcomes(t_both.size, ch.v_sys(basis), rng_both)
    bits_aonly = measure_single_outcomes(
        t_aonly.size, _rng(child_seed(seed, ch.index, block, _SEED_OUT_A)))
    bits_bonly = measure_single_outcomes(
        t_bonly.size, _rng(child_seed(seed, ch.index, block, _SEED_OUT_B)))

    t_a, bits_a = _merge_arrivals((t_both, bits_s), (t_aonly, bits_aonly))
    t_b, bits_b = _merge_arrivals((t_both, bits_i), (t_bonly, bits_bonly))

    alice = detect(
        t_a, bits_a, detector, block_duration,
        child_seed(seed, ch.index, block, _SEED_DETECT_A),
        channel_index=ch.index, basis=basis,
        detector_ids=detector_ids(channel_slot, 0),
    )
    bob = detect(
        t_b, bits_b, detector, block_duration,
        child_seed(seed, ch.index, block, _SEED_DETECT_B),
        channel_index=ch.index, basis=basis,
        detector_ids=detector_ids(channel_slot, 1),
    )
    return BlockTags(basis, alice, bob)


def _poisson_times(rate: float, duration: float, seed) -> np.ndarray:
    rng = _rng(seed)
    n = rng.poisson(rate * duration) if rate > 0 else 0
    return np.sort(rng.uniform(0.0, duration, n))


def _merge_arrivals(*parts):
    times = np.concatenate([t for t, _ in parts])
    bits = np.concatenate([b for _, b in parts])
    order = np.argsort(times, kind="stable")
    return times[order], bits[order]


@dataclass
class PipelineResult:
    """Counts and diagnostics of one analysis pipeline at one point."""

    label: str
    counts_hv: CountsMatrix
    counts_da: CountsMatrix
    singles_alice: float
    singles_bob: float
    accidental_rate: float

    def to_channel_result(self, f_ec: float) -> ChannelResult:
        return channel_result(self.counts_hv, self.counts_da,
                              self.singles_alice, self.singles_bob,
                              self.accidental_rate, f_ec)


@dataclass
class PointResult:
    """Monte Carlo outcome of one scenario point (one loss value)."""

    loss_db: float
    duration: float
    channels: dict[int, PipelineResult]
    merged: PipelineResult | None


def _analyze(label, blocks: list[BlockTags], window: CoincidenceWindow,
             channel_pair: int, delay: float) -> PipelineResult:
    counts = {}
    singles_a = singles_b = 0.0
    acc = 0.0
    total_t = 0.0
    for blk in blocks:
        matches = find_coincidences(blk.alice, blk.bob, window)
        counts[blk.basis] = tabulate(matches, blk.basis, channel_pair,
                                     blk.alice.duration)
        singles_a += len(blk.alice)
        singles_b += len(blk.bob)
        acc += accidental_estimate(blk.alice, blk.bob, window, delay)
        total_t += blk.alice.duration
    return PipelineResult(
        label=label,
        counts_hv=counts[Basis.HV],
        counts_da=counts[Basis.DA],
        singles_alice=singles_a / total_t,
        singles_bob=singles_b / total_t,
        accidental_rate=acc / total_t,
    )


def simulate_point(
    source: SourceConfig,
    plan: ChannelPlan,
    loss_db: float,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    duration: float,
    seed: int,
    channel_visibilities: dict[int, tuple[float, float]] | None = None,
    brightness_scale: float = 1.0,
    include_merged: bool = True,
    accidental_delay: float = 2e-7,
) -> PointResult:
    """Run the full Monte Carlo pipeline at one loss value.

    Records equal-duration HV and DA blocks per channel pair, analyzes
    each channel separately, and (optionally) merges corresponding
    detectors across channels into a non-multiplexed baseline.  All
    randomness derives from ``seed`` through named sub-seeds, so channel
    and block order never affects the result.
    """
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    chans = resolve_channels(source, plan, loss_db, channel_visibilities,
                             brightness_scale)
    block_t = duration / 2.0
    per_channel_blocks: dict[int, list[BlockTags]] = {}
    for slot, ch in enumerate(chans):
        per_channel_blocks[ch.index] = [
            simulate_channel_block(ch, basis, detector, block_t, seed, slot)
            for basis in (Basis.HV, Basis.DA)
        ]

    results = {
        idx: _analyze(f"ch{idx}", blocks, window, idx, accidental_delay)
        for idx, blocks in per_channel_blocks.items()
    }

    merged_result = None
    if include_merged and len(chans) >= 2:
        merged_blocks = []
        for basis in (Basis.HV, Basis.DA):
            blk_of = {idx: blocks[_BLOCK_OF_BASIS[basis]]
                      for idx, blocks in per_channel_blocks.items()}
            alice = _merge_side([b.alice for b in blk_of.values()],
                                detector.dead_time, 1000)
            bob = _merge_side([b.bob for b in blk_of.values()],
                              detector.dead_time, 1100)
            merged_blocks.append(BlockTags(basis, alice, bob))
        merged_result = _analyze(MERGED_LABEL, merged_blocks, window, 0,
                                 accidental_delay)

    return PointResult(loss_db=loss_db, duration=duration,
                       channels=results, merged=merged_result)


def _merge_side(streams: list[TagStream], dead: float, id_base: int) -> TagStream:
    """Merge corresponding detector ports across channels on one side.

    Port 0 tags of all channels become one effective detector with id
    ``id_base``, port 1 tags another with id ``id_base + 1``; each sees
    one dead time ``dead`` across all channels, as a single physical
    detector would.  The side's stream is their canonically sorted union.
    """
    out = _merge_streams(streams, dead, ports=2)
    out.detector_ids = (id_base + out.detector_ids % 2).astype(np.int32)
    return out
