"""Seeded end-to-end Monte Carlo simulation of one scenario point.

For each channel pair and basis block, the detections are sampled
directly.  The detector efficiency is folded into each side's arrival
efficiency, so the pairs detected on both sides, on Alice's side only
and on Bob's side only are three thinned Poisson processes, and each
side adds its dark counts.  This is distributionally identical to
sampling every generated pair, applying per-photon loss and then the
detector's efficiency thinning, but it draws no photon that is lost,
which keeps it tractable at high loss.  The equivalence is covered by
tests against the explicit sample -> transmit -> measure path
(:func:`detection.detect`).

The wavelength-multiplexed pipeline analyzes each channel pair with its
own detectors; the non-multiplexed baseline merges the recorded tag
streams of corresponding detectors (post-processing, as a hardware
merge would) and re-runs coincidence analysis on the merged streams.

A chunk's channels are processed in one batched pass, one side at a
time.  Only the draws are made channel by channel, each from its own
generator: the detection times and outcomes, the darks and the jitter
(:func:`_channel_sides`).  Every channel's Alice events are drawn and
pass one detector emit (:func:`detection.emit_keys`) before Bob's are
drawn and pass another.  The emit returns packed int64 keys,
``k << 2 | side << 1 | port``, where the key tick ``k`` is the tick
offset by the channel's slot of the block's key frame
(:func:`block_frame`, a :class:`detection.KeyFrame`, which alone knows
the slots' offsets and bounds).  The slots lie more than the matcher's
reach apart, so the chunk's keys are counted at once: one chunked
matcher per window over all the channels, the tables, singles and
accidentals by ``bincount`` per slot, and the merged baseline from the
same keys, each moved back to its plain tick by its slot's offset
(:func:`detection.merge_keys`, with no per-tag payload gathered).  No
step of the emit or the counters loops over the slots, and every
counter takes the plain frontier tick.  The emit gives each channel's
keys in canonical order, in its own slot, and labels no outcome outside
the block's basis, so no chunk is checked again.  The counts equal those
of emitting and matching each channel's tag streams on their own
(:func:`simulate_channel_block`, which builds the tag streams).

A point is recorded as an HV and a DA block, and each basis is one
self-contained unit of work (:func:`simulate_basis`): every channel's
block in that basis, its per-channel matching and accidental estimate,
and that basis's merged baseline.  A unit generates and reduces its
block in time chunks, so its memory does not grow with the duration:
the chunk length follows from the analytic singles (``CHUNK_TAGS``
expected arrivals per side per chunk, all channels together, of which
the detector keeps the efficiency's share), every channel and the
merged baseline step through the same chunks, and only counts and a few
tags near each chunk's end cross to the next chunk (the tags jitter may
still pass, each port's last kept time for the dead time, and the tail
of keys the matchers may still join).  A unit hands back its counts as
arrays: each channel's, one row per channel, and the merged baseline's.
:func:`simulate_point` runs the two units on two threads and joins each
pipeline's HV and DA counts into its one record, a
:class:`PipelineResult`.  Scheduling cannot change the result: every
random draw comes from a generator named by channel, block and chunk,
and the units' counts are joined in a fixed HV-then-DA order.

A chunk holds at most one side's draws at a time, beside the pair
draws Bob's side still needs and Alice's keys; no dark flags, which only
:func:`detection.detect` and :func:`simulate_channel_block` report; each
side's channel keys until they are merged; and no difference array as
long as the chunk (:func:`detection._close_links`).  Its largest arrays
are those of the emit, about 32 bytes per event of one side, and one
unit's traced peak is about 11 MB at ``CHUNK_TAGS``.

Each chunk allocates and frees about the same arrays as the one before,
about 10 MB per unit.  With glibc's default, dynamic thresholds the heap
hands that memory back to the OS after every chunk, and the next chunk
faults it in again as freshly zeroed pages.  So the first
:func:`simulate_point` of a process sets two malloc thresholds
(:func:`_keep_freed_memory`): blocks up to ``MMAP_THRESHOLD`` come from
the heap, and the heap keeps up to ``TRIM_THRESHOLD`` of free memory.
Both are set, because setting either one switches off glibc's
adjustment of the other.  The policy is process-wide and acts only with
glibc; it changes no value, only where memory comes from.  The resident
set stays at its peak after a run (about 65 MB against 45 MB without the
policy, after a 2 s fig3b point at 30 dB).
"""

from __future__ import annotations

import ctypes
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import ChannelPlan
from .coincidence import (ChunkedPair, CoincidenceWindow, CountsMatrix, delay_ticks,
                          key_table)
from .detection import (JITTER_MARGIN_SIGMAS, Basis, DetectorCarry, DetectorConfig, KeyFrame,
                        TagStream, _emit, emit_frontier, emit_keys, key_frame,
                        measure_pair_outcomes, measure_single_outcomes, merge_keys,
                        side_transmittance)
from .source import SourceConfig, _rng, band_fraction, child_seed

_BLOCK_OF_BASIS = {Basis.HV: 0, Basis.DA: 1}

# Expected photon arrivals and dark counts per side in one time chunk of
# a basis block, all channels together.  A unit's memory peak scales
# with it; the per-chunk Python work is small at this size.
CHUNK_TAGS = 500_000

# The least shift (s) of Bob's tags for the delayed-window accidental
# estimate (:func:`accidental_delay`).
ACCIDENTAL_DELAY = 2e-7

# glibc malloc thresholds for the Monte Carlo (:func:`_keep_freed_memory`):
# blocks below MMAP_THRESHOLD come from the heap, which hands free memory
# back to the OS only above TRIM_THRESHOLD.  MMAP_THRESHOLD, the largest
# value mallopt(3) documents for 64-bit hosts, lies above a chunk's
# largest array (the union of its Alice and Bob keys, about 8 MB at
# ``CHUNK_TAGS``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 64 << 20
MMAP_THRESHOLD = 32 << 20
_freed_memory_kept = False

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
    ``resolve_channels``).  The chunks follow the photons that arrive at
    the detectors, not those detected, so a chunk holds about the
    detector efficiency's share of ``CHUNK_TAGS`` photon detections."""
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

    The events are those the batched pass draws (:func:`_channel_draws`),
    and each side's events pass one module's emit (:func:`detection._emit`).
    Without a ``chunk`` the whole block is one chunk.  With one, only
    that chunk is sampled, and ``carry`` holds Alice's and Bob's detector
    state from the previous chunk; the tags returned are those below the
    chunk's frontier.  A chunk whose ticks do not fit in packed keys
    (:func:`detection.key_frame`) is a ValueError before anything is
    drawn.
    """
    chunk = chunk or Chunk(0, 0.0, block_duration, None)
    carry = carry or (DetectorCarry(), DetectorCarry())
    key_frame(chunk.start, chunk.end, detector)
    return tuple(
        _emit(t, bits, dark, detector, ch.index, basis, detector_ids(channel_slot, side),
              chunk.end - chunk.start, carry[side], chunk.frontier)
        for side, (t, bits, dark) in enumerate(_channel_draws(ch, basis, detector, seed,
                                                              chunk)))


def _channel_draws(ch: ChannelScenario, basis: Basis, detector: DetectorConfig,
                   seed: int, chunk: Chunk):
    """One channel pair's detections in one time chunk of a basis block,
    up to the tagger: Alice's and Bob's jittered times, port bits and dark
    flags, the two sides of :func:`_channel_sides`."""
    return tuple(_channel_sides(ch, basis, detector, seed, chunk, flags=True))


def _channel_sides(ch: ChannelScenario, basis: Basis, detector: DetectorConfig,
                   seed: int, chunk: Chunk, flags: bool = False):
    """Yield one channel pair's detections in one time chunk of a basis
    block, Alice's and then Bob's (:func:`_side_draws`), each drawn only
    when asked for, so that a caller may emit one side of every channel
    before it draws the other.  The dark flags are None unless ``flags``.

    Detections are drawn directly.  With the detector efficiency folded
    into each side's arrival efficiency, the pairs detected on both
    sides, on Alice's side only and on Bob's side only are three
    independent thinned Poisson processes, and no photon is drawn only to
    be lost in the detector.  Pair outcomes follow the anti-correlated
    joint distribution.  Every draw comes from one generator named by
    channel, block and chunk, in one order (the pairs, Alice's events,
    Bob's events), so a channel draws alike with or without companions,
    and whenever its sides are asked for.
    """
    rng = _rng(child_seed(seed, ch.index, _BLOCK_OF_BASIS[basis], chunk.index))
    b = ch.pair_rate_in_band
    pa = ch.arrival_efficiency_signal * detector.efficiency
    pb = ch.arrival_efficiency_idler * detector.efficiency
    t_pair = _sorted_uniform(rng.poisson(b * pa * pb * (chunk.end - chunk.start)),
                             chunk.start, chunk.end, rng)
    bits_a, bits_b = measure_pair_outcomes(t_pair.size, ch.v_sys(basis), rng)
    yield _side_draws(t_pair, bits_a, b * pa * (1.0 - pb), detector, chunk, rng, flags)
    yield _side_draws(t_pair, bits_b, b * pb * (1.0 - pa), detector, chunk, rng, flags)


def _side_draws(t_pair: np.ndarray, bits_pair: np.ndarray, lone_rate: float,
                detector: DetectorConfig, chunk: Chunk, rng: np.random.Generator,
                flags: bool):
    """One side's events of :func:`_channel_sides`: its runs of pair
    photons, lone photons (detected at ``lone_rate``) and dark counts,
    one after the other and each in time order, then jittered, with the
    dark flags when ``flags`` (None otherwise).  Lone photons and darks
    take uniform port bits.  :func:`detection.emit_keys` orders the runs
    by tick, and ties by time."""
    dt = chunk.end - chunk.start
    t_lone = _sorted_uniform(rng.poisson(lone_rate * dt), chunk.start, chunk.end, rng)
    t_dark = _sorted_uniform(rng.poisson(2.0 * detector.dark_rate * dt),
                             chunk.start, chunk.end, rng)
    t = np.concatenate((t_pair, t_lone, t_dark))
    bits = np.concatenate((bits_pair, measure_single_outcomes(t.size - t_pair.size, rng)))
    dark = None
    if flags:
        dark = np.zeros(t.size, dtype=bool)
        dark[t.size - t_dark.size:] = True
    if detector.jitter_sigma > 0 and t.size:
        jitter = rng.standard_normal(t.size)
        jitter *= detector.jitter_sigma
        t += jitter
    return t, bits, dark


def _sorted_uniform(n: int, start: float, end: float,
                    rng: np.random.Generator) -> np.ndarray:
    """``n`` uniform times in ``[start, end)``, sorted without a sort: the
    first ``n`` cumulative sums of ``n + 1`` standard exponentials,
    normalised by the last, are distributed as ``n`` sorted uniforms on
    (0, 1).  A time that rounding carries to ``end`` is set to the float
    just below it."""
    if n == 0:
        return np.empty(0)
    t = rng.standard_exponential(n + 1)
    np.cumsum(t, out=t)
    t *= (end - start) / t[-1]
    t += start
    t = t[:n]
    t[np.searchsorted(t, end):] = np.nextafter(end, start)
    return t


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


class _SegmentCounts:
    """The counts of one basis block of the pipelines whose keys lie in
    the slots of ``frame``, one per pipeline, fed each time chunk's keys
    of all of them at once: per slot, the coincidence table, the Alice
    and Bob tag counts and the delayed-window accidental count.

    Each window is one :class:`ChunkedPair` over all the slots, so one
    matcher pass per chunk counts every pipeline; a match belongs to the
    slot of its keys (:func:`key_table`), and each count is a
    ``bincount`` by slot.
    """

    def __init__(self, frame: KeyFrame, half: int, delay: int):
        self.frame = frame
        self.matched = ChunkedPair(half, 0, frame)
        self.delayed = ChunkedPair(half, delay, frame)
        self.cc = np.zeros((frame.slots, 2, 2), dtype=np.int64)
        self.singles = np.zeros((2, frame.slots), dtype=np.int64)
        self.accidentals = np.zeros(frame.slots, dtype=np.int64)

    def count(self, ka: np.ndarray, kb: np.ndarray, frontier: int | None):
        """Count the next chunk of Alice's and Bob's sorted keys, whose
        later tags all have a tick at or above ``frontier`` (None: there
        are none)."""
        self.singles += [np.diff(self.frame.bounds(ka)), np.diff(self.frame.bounds(kb))]
        keys, pos_a, pos_b = self.matched.push(ka, kb, frontier)
        self.cc += key_table(keys, pos_a, pos_b, self.frame.bounds(keys))
        del keys    # one window's keys at a time
        keys, pos_a, pos_b = self.delayed.push(ka, kb, frontier)
        self.accidentals += key_table(keys, pos_a, pos_b, self.frame.bounds(keys)).sum((1, 2))


class _BlockCounter:
    """The counts of one basis block of every channel, and of the merged
    baseline when there are two or more, fed each time chunk's keys of
    all the channels at once.

    A chunk's keys are those of :func:`detection.emit_keys` in the
    block's key frame, ``frame``: each channel's keys in order, in its
    own slot, counted as ``channels``.  The merged baseline is built
    from the same keys, each moved back by its slot's offset to its plain
    tick, in one new array (:func:`detection.merge_keys`, which keeps
    each merged port's last tick in ``last``), and counted as ``merged``,
    one slot of plain ticks.  The caller's keys are left as they are.
    """

    def __init__(self, frame: KeyFrame, detector: DetectorConfig, window: CoincidenceWindow):
        half = window.half_width_ticks(detector.tick)
        delay = delay_ticks(accidental_delay(detector, window), detector.tick)
        self.frame = frame
        self.channels = _SegmentCounts(frame, half, delay)
        self.merged = _SegmentCounts(KeyFrame(), half, delay) if frame.slots >= 2 else None
        self.dead = detector.dead_time / detector.tick
        self.last = np.full((2, 2), -np.inf)

    def count(self, keys: list, frontier: int | None):
        """Count the next chunk of every channel's Alice and Bob keys,
        ``keys`` (a list of the two), whose later tags all have a tick at
        or above ``frontier`` (None: there are none).  The channels are
        counted first; then each side's merged keys are made, one side
        after the other, and the merged baseline counted.  The list is
        emptied, so that each side's keys are freed once they are merged."""
        self.channels.count(*keys, frontier)
        if self.merged is None:
            keys.clear()
            return
        self.merged.count(*[self._merge(keys.pop(0), last) for last in self.last], frontier)

    def _merge(self, keys: np.ndarray, last: np.ndarray) -> np.ndarray:
        """One side's merged keys: each channel's keys, one sorted run per
        slot, less its slot's offset, ``KeyFrame.offsets() << 2``, in one
        new array: the offsets repeated over each slot's keys, subtracted
        from the keys in place."""
        plain = np.repeat(self.frame.offsets() << 2, np.diff(self.frame.bounds(keys)))
        np.subtract(keys, plain, out=plain)
        return merge_keys(plain, self.dead, last, self.frame.slots)


def accidental_delay(detector: DetectorConfig, window: CoincidenceWindow) -> float:
    """Bob's shift (s) for the delayed-window accidental estimate:
    ``ACCIDENTAL_DELAY``, or twice the reach of a true partner, the half
    window plus the jitter margin (``JITTER_MARGIN_SIGMAS``), when that
    is longer, so that no true partner falls inside the shifted window."""
    reach = window.t_c / 2 + JITTER_MARGIN_SIGMAS * detector.jitter_sigma
    return max(ACCIDENTAL_DELAY, 2.0 * reach)


def block_frame(block_duration: float, detector: DetectorConfig,
                window: CoincidenceWindow, channels: int) -> KeyFrame:
    """The key frame of one basis block of ``channels`` channel pairs.
    Its tags are compared up to the half window, the accidental delay
    and the dead time apart; ValueError when the keys do not fit."""
    return key_frame(0.0, block_duration, detector, channels, window.t_c / 2
                     + accidental_delay(detector, window) + detector.dead_time)


def simulate_basis(
    chans: list[ChannelScenario],
    basis: Basis,
    detector: DetectorConfig,
    window: CoincidenceWindow,
    block_duration: float,
    seed: int,
) -> tuple[_SegmentCounts, _SegmentCounts | None]:
    """Simulate and count one basis block of every channel, in time chunks.

    All channels step through the same chunks (:func:`block_chunks`).
    For each chunk, every channel's draws are made on their own, each
    from its own generator (:func:`_channel_sides`), one side at a time:
    every channel's Alice events are drawn and pass the detector emit at
    once (:func:`detection.emit_keys`), then Bob's, and the chunk's keys
    are counted at once (:class:`_BlockCounter`): each
    channel's matches and accidentals and, with two or more channels, the
    merged baseline.  The counter's counts are returned: the channels',
    one row per channel in the order of ``chans``, and the merged
    baseline's (None with one channel).  No chunk's tags outlive the next
    chunk.
    """
    frame = block_frame(block_duration, detector, window, len(chans))
    counter = _BlockCounter(frame, detector, window)
    carries = DetectorCarry(len(chans)), DetectorCarry(len(chans))
    for chunk in block_chunks(chans, detector, block_duration):
        sides = [_channel_sides(ch, basis, detector, seed, chunk) for ch in chans]
        # emit_keys frees each side's draws as it folds them in.
        keys = [emit_keys([next(s) for s in sides], detector, carry, chunk.frontier, side,
                          frame)[0] for side, carry in enumerate(carries)]
        del sides    # each channel's pair draws
        counter.count(keys, chunk.frontier)
    return counter.channels, counter.merged


def _keep_freed_memory():
    """Once per process, keep the memory the chunk loop frees in glibc's
    heap instead of handing it back to the OS, so the next chunk does not
    fault its working set in again as freshly zeroed pages.

    By default glibc raises its mmap threshold only to the largest block
    freed so far (here the matcher's key unions, a few MB) and trims the
    heap's free top above twice that, below what one chunk frees.
    Setting either threshold switches that adjustment off for both, so
    both are set, the mmap threshold first: with the trim threshold
    alone, every block above 128 KiB would be an mmap of its own.
    Without glibc's ``mallopt`` nothing is set.
    """
    global _freed_memory_kept
    if _freed_memory_kept:
        return
    _freed_memory_kept = True
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


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
    ``seed`` through one sub-seed per channel, block and chunk, so
    neither the order nor the thread in which blocks run matters, and
    the units' counts are joined in a fixed HV-then-DA order.  The units
    share nothing.  The counts are integers, so each sum is exact and the
    rates are the same whichever block finished first.
    """
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    block = duration / 2.0
    # Fails before any draw when the keys do not fit.
    block_frame(block, detector, window, len(plan.pairs))
    chans = resolve_channels(source, plan, loss_db, channel_visibilities,
                             brightness_scale)
    _keep_freed_memory()
    with ThreadPoolExecutor(max_workers=len(_BLOCK_OF_BASIS)) as pool:
        futures = [pool.submit(simulate_basis, chans, basis, detector, window, block, seed)
                   for basis in (Basis.HV, Basis.DA)]
        (hv, hv_merged), (da, da_merged) = (f.result() for f in futures)

    def pipeline(hv: _SegmentCounts, da: _SegmentCounts, i: int, pair: int):
        singles = ((hv.singles[:, i] + da.singles[:, i]) / duration).tolist()
        return PipelineResult(
            CountsMatrix(Basis.HV, hv.cc[i], pair, block),
            CountsMatrix(Basis.DA, da.cc[i], pair, block),
            *singles, int(hv.accidentals[i] + da.accidentals[i]) / duration)

    return PointResult(
        channels={ch.index: pipeline(hv, da, i, ch.index) for i, ch in enumerate(chans)},
        merged=None if hv_merged is None else pipeline(hv_merged, da_merged, 0, 0),
    )
