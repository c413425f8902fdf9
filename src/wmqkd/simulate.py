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

Counting runs on packed int64 tag keys, ``tick << 2 | side << 1 | port``
(:func:`detection.tag_keys`).  A channel's block counter validates
each chunk of its tags once (canonical order, tick and basis), packs its
keys once and feeds them to the matched and the delayed window.  The
merged baseline is built from those keys alone: one stable sort of all
channels' keys per side and one dead-time filter per port
(:func:`detection.merge_keys`), with no per-tag payload gathered.  The
key order is the canonical tag order, so the counts equal those of
matching the tag streams themselves.

A point is recorded as an HV and a DA block, and each basis is one
self-contained unit of work (:func:`simulate_basis`): every channel's
block in that basis, its per-channel matching and accidental estimate,
and that basis's merged baseline.  A unit generates and reduces its
block in time chunks, so its memory does not grow with the duration:
the chunk length follows from the analytic singles (``CHUNK_TAGS``
expected arrivals per side per chunk, all channels together), every
channel and the merged baseline step through the same chunks, and only
counts and a few tags near each chunk's end cross to the next chunk
(the tags jitter may still pass, each port's last kept time for the
dead time, and the tail of keys the matchers may still join).  A unit
hands back one block counter per pipeline, which holds counts only.
:func:`simulate_point` runs the two units on two threads and joins each
pipeline's HV and DA counters into its one record, a
:class:`PipelineResult`.  Scheduling cannot change the result: every
random draw comes from a sub-seed named by channel, block, component and
chunk, and the units' counts are joined in a fixed HV-then-DA order.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import ChannelPlan
from .coincidence import (ChunkedPair, CoincidenceWindow, CountsMatrix, _check_pair,
                          check_basis, delay_ticks, key_table, match_keys)
from .detection import (JITTER_MARGIN_SIGMAS, Basis, DetectorCarry, DetectorConfig,
                        TagStream, detect, emit_frontier, measure_pair_outcomes,
                        measure_single_outcomes, merge_keys, side_transmittance,
                        tag_keys)
from .source import SourceConfig, _rng, band_fraction, child_seed

MERGED_LABEL = "merged"

# Stable sub-seed component ids: the three emission processes, each with
# its outcome draws, and the two detector modules.
_SEED_BOTH, _SEED_A_ONLY, _SEED_B_ONLY, _SEED_DETECT_A, _SEED_DETECT_B = range(5)

_BLOCK_OF_BASIS = {Basis.HV: 0, Basis.DA: 1}

# Expected photon arrivals and dark counts per side in one time chunk of
# a basis block, all channels together.  A unit's memory peak scales
# with it; the per-chunk Python work is small at this size.
CHUNK_TAGS = 500_000

# Bob's shift (s) for the delayed-window accidental estimate: far outside
# the window and the jitter.
ACCIDENTAL_DELAY = 2e-7

# Bound on the ticks of a record.  A packed tag key holds its tick
# shifted left by two bits, so a key stays in int64 below 2**61 ticks;
# rounding a time to ticks wraps past 2**63.
MAX_TICKS = 2 ** 60


def tick_range_error(duration: float, detector: DetectorConfig) -> str | None:
    """Why the ticks of a record of ``duration`` (s) may not fit below
    ``MAX_TICKS``, with Bob's accidental delay, the jitter margin on
    either side and the dead time added; None when they fit."""
    span = (duration + ACCIDENTAL_DELAY + detector.dead_time
            + 2 * JITTER_MARGIN_SIGMAS * detector.jitter_sigma)
    if span / detector.tick < MAX_TICKS:
        return None
    return (f"{span:g} s, accidental delay and margins included, is "
            f"{span / detector.tick:.3g} ticks of {detector.tick:g} s; "
            f"packed tag keys need fewer than 2**60")


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
    eta_link = side_transmittance(loss_db)
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


@dataclass(frozen=True)
class Chunk:
    """One time chunk ``[start, end)`` of a basis block.

    ``frontier`` is the tick below which the chunk's tags are final; it
    is None for the block's last chunk, which releases everything held.
    """

    index: int
    start: float
    end: float
    frontier: int | None


def block_chunks(chans: list[ChannelScenario], detector: DetectorConfig,
                 block_duration: float) -> Iterator[Chunk]:
    """Equal time chunks of a basis block, in order, each expected to hold
    about ``CHUNK_TAGS`` arrivals and dark counts on the busier side,
    summed over all channels (from the analytic rates of
    ``resolve_channels``)."""
    per_side = max(sum(c.pair_rate_in_band * c.arrival_efficiency_signal for c in chans),
                   sum(c.pair_rate_in_band * c.arrival_efficiency_idler for c in chans))
    per_side += 2.0 * detector.dark_rate * len(chans)
    n = max(1, math.ceil(per_side * block_duration / CHUNK_TAGS))
    for k in range(n - 1):
        end = block_duration * (k + 1) / n
        yield Chunk(k, block_duration * k / n, end, emit_frontier(detector, end))
    yield Chunk(n - 1, block_duration * (n - 1) / n, block_duration, None)


def simulate_channel_block(
    ch: ChannelScenario,
    basis: Basis,
    detector: DetectorConfig,
    block_duration: float,
    seed: int,
    channel_slot: int,
    chunk: Chunk | None = None,
    carry: tuple[DetectorCarry, DetectorCarry] | None = None,
) -> tuple[TagStream, TagStream]:
    """Simulate one basis block of one channel pair, or one time chunk
    of it, and return Alice's and Bob's tags.

    Emission of surviving pairs and half-pairs is sampled as three
    independent Poisson processes; polarization outcomes follow the
    anti-correlated joint distribution for full pairs and uniform
    marginals for lone photons; both sides then pass through the
    detector chain.  Without a ``chunk`` the whole block is one chunk.
    With one, only that chunk is sampled, and ``carry`` holds Alice's and
    Bob's detector state from the previous chunk; the tags returned are
    those below the chunk's frontier.  Every draw is seeded by channel,
    block, component and chunk index.
    """
    chunk = chunk or Chunk(0, 0.0, block_duration, None)
    carry_a, carry_b = carry or (None, None)
    block = _BLOCK_OF_BASIS[basis]

    def sub_seed(comp):
        return child_seed(seed, ch.index, block, comp, chunk.index)

    b = ch.pair_rate_in_band
    ea, eb = ch.arrival_efficiency_signal, ch.arrival_efficiency_idler
    rng_both, rng_a, rng_b = (_rng(sub_seed(comp))
                              for comp in (_SEED_BOTH, _SEED_A_ONLY, _SEED_B_ONLY))
    t_both = _poisson_times(b * ea * eb, chunk.start, chunk.end, rng_both)
    bits_s, bits_i = measure_pair_outcomes(t_both.size, ch.v_sys(basis), rng_both)
    t_aonly = _poisson_times(b * ea * (1.0 - eb), chunk.start, chunk.end, rng_a)
    bits_aonly = measure_single_outcomes(t_aonly.size, rng_a)
    t_bonly = _poisson_times(b * (1.0 - ea) * eb, chunk.start, chunk.end, rng_b)
    bits_bonly = measure_single_outcomes(t_bonly.size, rng_b)

    t_a, bits_a = _merge_arrivals(t_both, bits_s, t_aonly, bits_aonly)
    t_b, bits_b = _merge_arrivals(t_both, bits_i, t_bonly, bits_bonly)

    span = chunk.end - chunk.start
    alice = detect(
        t_a, bits_a, detector, span, sub_seed(_SEED_DETECT_A),
        channel_index=ch.index, basis=basis,
        detector_ids=detector_ids(channel_slot, 0),
        start=chunk.start, carry=carry_a, frontier=chunk.frontier,
    )
    bob = detect(
        t_b, bits_b, detector, span, sub_seed(_SEED_DETECT_B),
        channel_index=ch.index, basis=basis,
        detector_ids=detector_ids(channel_slot, 1),
        start=chunk.start, carry=carry_b, frontier=chunk.frontier,
    )
    return alice, bob


def _poisson_times(rate: float, start: float, end: float,
                   rng: np.random.Generator) -> np.ndarray:
    n = rng.poisson(rate * (end - start)) if rate > 0 else 0
    return np.sort(rng.uniform(start, end, n))


def _merge_arrivals(t_both: np.ndarray, bits_both: np.ndarray,
                    t_one: np.ndarray, bits_one: np.ndarray):
    """One side's arrivals in time order: the few both-survive arrivals
    inserted into the one-side arrivals, each before any equal time, as a
    stable sort of both-survive then one-side arrivals would put them."""
    at = np.searchsorted(t_one, t_both)
    return np.insert(t_one, at, t_both), np.insert(bits_one, at, bits_both)


@dataclass
class PipelineResult:
    """Counts and diagnostics of one analysis pipeline at one point: its
    HV and DA coincidence tables, and its singles and delayed-window
    accidental rates over both blocks."""

    counts_hv: CountsMatrix
    counts_da: CountsMatrix
    singles_alice: float
    singles_bob: float
    accidental_rate: float


@dataclass
class PointResult:
    """Monte Carlo outcome of one scenario point (one loss value)."""

    channels: dict[int, PipelineResult]
    merged: PipelineResult | None


class _BlockCounter:
    """One pipeline's counts in one basis block, fed its Alice and Bob
    tags in time chunks, as packed keys: the coincidence table
    ``counts``, the tag counts and the delayed-window accidental count."""

    def __init__(self, basis: Basis, window: CoincidenceWindow,
                 detector: DetectorConfig, channel_pair: int, duration: float):
        self.half = window.half_width_ticks(detector.tick)
        self.basis, self.duration = basis, duration
        self.matched = ChunkedPair(self.half)
        self.delayed = ChunkedPair(self.half, delay_ticks(ACCIDENTAL_DELAY, detector.tick))
        self.counts = CountsMatrix(basis, np.zeros((2, 2), dtype=np.int64),
                                   channel_pair, duration)
        self.singles_alice = self.singles_bob = self.accidentals = 0

    def push(self, alice: TagStream, bob: TagStream,
             frontier: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Count the next chunk of tags and return its Alice and Bob keys.
        The chunk is validated here, once: its order and tick, and the
        basis of every outcome."""
        _check_pair(alice, bob)
        check_basis(self.basis, alice.outcomes, bob.outcomes)
        keys = tag_keys(alice, 0), tag_keys(bob, 1)
        self.count(*keys, frontier)
        return keys

    def count(self, ka: np.ndarray, kb: np.ndarray, frontier: int | None):
        """Count the next chunk of sorted Alice and Bob keys.  The
        stretches handed on keep their order, so they are matched as they
        are."""
        self.singles_alice += ka.size
        self.singles_bob += kb.size
        a, b = self.matched.push(ka, kb, frontier)
        self.counts.cc += key_table(*match_keys(a, b, self.half))
        a, b = self.delayed.push(ka, kb, frontier)
        self.accidentals += match_keys(a, b, self.half)[1].size


def simulate_basis(
    chans: list[ChannelScenario],
    basis: Basis,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    block_duration: float,
    seed: int,
) -> dict[int | str, _BlockCounter]:
    """Simulate and count one basis block of every channel, in time chunks.

    All channels step through the same chunks (:func:`block_chunks`).
    Each channel's chunk is matched and its accidentals estimated at
    once; with two or more channels the channels' chunks for the same
    time span are also merged into the non-multiplexed baseline, which
    is counted under the key ``MERGED_LABEL``.  The block counters are
    returned; they hold counts only, and no chunk's tags outlive the
    next chunk.
    """
    def counter(channel_pair):
        return _BlockCounter(basis, window, detector, channel_pair, block_duration)

    counters: dict[int | str, _BlockCounter] = {ch.index: counter(ch.index) for ch in chans}
    carries = [(DetectorCarry(), DetectorCarry()) for _ in chans]
    merged = counter(0) if len(chans) >= 2 else None
    # Each merged port's last kept tick, for its dead time, in ticks.
    last_alice, last_bob = np.full(2, -np.inf), np.full(2, -np.inf)
    dead = detector.dead_time / detector.tick
    for chunk in block_chunks(chans, detector, block_duration):
        alice, bob = [], []
        for slot, ch in enumerate(chans):
            a, b = simulate_channel_block(ch, basis, detector, block_duration,
                                          seed, slot, chunk, carries[slot])
            ka, kb = counters[ch.index].push(a, b, chunk.frontier)
            alice.append(ka)
            bob.append(kb)
        if merged is not None:
            merged.count(merge_keys(alice, dead, last_alice),
                         merge_keys(bob, dead, last_bob), chunk.frontier)
    if merged is not None:
        counters[MERGED_LABEL] = merged
    return counters


def _pipeline(hv: _BlockCounter, da: _BlockCounter) -> PipelineResult:
    """Join a pipeline's HV and DA block counts into rates.

    The counts are integers, so each sum is exact and the rates are the
    same whichever block finished first.
    """
    total_t = hv.duration + da.duration
    return PipelineResult(
        counts_hv=hv.counts,
        counts_da=da.counts,
        singles_alice=(hv.singles_alice + da.singles_alice) / total_t,
        singles_bob=(hv.singles_bob + da.singles_bob) / total_t,
        accidental_rate=(hv.accidentals + da.accidentals) / total_t,
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
) -> PointResult:
    """Run the full Monte Carlo pipeline at one loss value.

    Every channel pair records an HV and a DA block of ``duration / 2``
    each.  Each basis is one unit of work (:func:`simulate_basis`): it
    simulates that block of every channel in time chunks, analyzes each
    channel on its own and, when there are at least two channels, merges
    corresponding detectors across channels into the non-multiplexed
    baseline.  The two units run on
    two threads; numpy releases the interpreter lock in the sorts,
    random fills and array arithmetic that make up their work.

    Scheduling cannot change the result.  All randomness derives from
    ``seed`` through sub-seeds named by channel, block, component and
    chunk, so neither the order nor the thread in which blocks run
    matters, and the units' counts are joined in a fixed HV-then-DA
    order.  The units share nothing.
    """
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    error = tick_range_error(duration, detector)
    if error:
        raise ValueError(error)
    chans = resolve_channels(source, plan, loss_db, channel_visibilities,
                             brightness_scale)
    with ThreadPoolExecutor(max_workers=len(_BLOCK_OF_BASIS)) as pool:
        futures = [pool.submit(simulate_basis, chans, basis, detector, window,
                               duration / 2.0, seed)
                   for basis in (Basis.HV, Basis.DA)]
        hv, da = (f.result() for f in futures)
    return PointResult(
        channels={ch.index: _pipeline(hv[ch.index], da[ch.index]) for ch in chans},
        merged=(_pipeline(hv[MERGED_LABEL], da[MERGED_LABEL])
                if MERGED_LABEL in hv else None),
    )
