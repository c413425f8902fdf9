"""Detection chain: link loss, polarization measurement, and realistic
detector time tagging (efficiency, dark counts, jitter, dead time, tick
quantization), plus post-hoc merging of detector streams.

A detection module is one polarization analyzer with two output
detectors (one per outcome).  Tags carry integer timestamps in units of
the time-tagger tick (1/12.15 GHz by default).

The detector chain is per-channel draws and one emit kernel
(:func:`emit_keys`) for the jittered events of one or many channels at
once.  It rounds them to packed int64 tag keys,
``tick << 2 | side << 1 | port`` (side 0 for Alice and 1 for Bob, the
port bit the low bit of the outcome), each channel's ticks in its own
slot of a :class:`KeyFrame`, orders them by one stable sort of the
keys, holds back those at or above the frontier and dead-time filters
each port; the kept keys leave in that one order.  The frame is the one
owner of the slot layout: its offsets and bounds are array operations,
so no step of the emit, the matcher or the counters loops over slots.
:func:`detect` is that chain for one channel's given arrivals, with
their efficiency thinning, unpacked into a :class:`TagStream`; the Monte
Carlo draws its detections directly and passes them to the same emit.

Detector merging has one kernel, :func:`merge_keys`, on one array of
packed tag keys made of sorted runs: one sort orders them by (tick,
port), and each port then passes one dead-time filter.  The Monte Carlo
merged baseline calls it on the channels' keys, each moved back to its
plain tick by its slot's offset.  :func:`merge_detectors` merges two
tag streams into one detector with the same kernel: it packs the ticks
of their sorted union as keys with a zero port bit and takes, for each
kept key, the first tag on its tick.  It, :func:`find_coincidences` and
:func:`accidental_estimate` validate their streams with one check
(:func:`_check_pair`), which also bounds their ticks by ``MAX_TICKS``.

The emit and the merge dead-time filter sorted keys with one sparse
kernel, :func:`_sparse_dead_time_filter`: one difference pass over the
keys finds the few tags that lie within the dead time's reach of
another, only those pass the exact filter (:func:`_port_dead_time_filter`)
on their own times, and every other tag is kept.  That difference pass,
and the matcher's, is one block-by-block scan (:func:`_close_links`)
that builds no difference array as long as the keys.  Large arrays are
gathered by index, not by boolean mask, which numpy does several times
slower when the mask is mixed; the kept keys, nearly all of them, are
compacted instead by deleting the few dropped positions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .source import PairStream, _rng

DEFAULT_TICK_S = 1.0 / 12.15e9

# A chunk of a record emits its tags up to a frontier this many jitter
# widths before the chunk's end, so that no later arrival's jitter can
# land a tag below it.
JITTER_MARGIN_SIGMAS = 40.0

# Bound on the key ticks of a record, and on the ticks of the tag streams
# that are matched or merged as keys.  A packed tag key holds its tick
# shifted left by two bits, so a key stays in int64 below 2**61 ticks;
# rounding a time to ticks wraps past 2**63.
MAX_TICKS = 2 ** 60

# Links per block of the close-link scan (:func:`_close_links`).
LINK_BLOCK = 1 << 16


class Basis(enum.Enum):
    HV = "HV"
    DA = "DA"


class Outcome(enum.IntEnum):
    """Polarization outcome labels; the low bit selects the detector
    output port within a module (H/D -> port 0, V/A -> port 1)."""

    H = 0
    V = 1
    D = 2
    A = 3


BASIS_OUTCOMES = {Basis.HV: (Outcome.H, Outcome.V), Basis.DA: (Outcome.D, Outcome.A)}


@dataclass(frozen=True)
class DetectorConfig:
    """Detector and time-tagger parameters.

    ``efficiency`` is the photon detection probability, ``dark_rate`` the
    per-detector dark count rate (counts/s), ``jitter_sigma`` the normal
    timing jitter per detector (s), ``dead_time`` the non-paralyzable
    recovery time per detector (s), ``tick`` the timestamp resolution (s).
    """

    efficiency: float = 0.60
    dark_rate: float = 100.0
    jitter_sigma: float = 250e-12
    dead_time: float = 50e-9
    tick: float = DEFAULT_TICK_S

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")
        if self.dark_rate < 0:
            raise ValueError(f"dark_rate must be >= 0, got {self.dark_rate}")
        if self.jitter_sigma < 0:
            raise ValueError(f"jitter_sigma must be >= 0, got {self.jitter_sigma}")
        if self.dead_time < 0:
            raise ValueError(f"dead_time must be >= 0, got {self.dead_time}")
        if self.tick <= 0:
            raise ValueError(f"tick must be > 0, got {self.tick}")


class TagStream:
    """Time-ordered detection events of one or more detectors.

    Stored as parallel arrays; canonically sorted by (tick, detector_id).
    ``dark`` marks tags that originated as dark counts (they still carry
    the outcome label of the port that fired).
    """

    def __init__(self, ticks, outcomes, detector_ids, channel_indices, dark,
                 tick_seconds: float, duration: float):
        self.ticks = np.asarray(ticks, dtype=np.int64)
        self.outcomes = np.asarray(outcomes, dtype=np.int8)
        self.detector_ids = np.asarray(detector_ids, dtype=np.int32)
        self.channel_indices = np.asarray(channel_indices, dtype=np.int32)
        self.dark = np.asarray(dark, dtype=bool)
        self.tick_seconds = float(tick_seconds)
        self.duration = float(duration)
        n = self.ticks.size
        for arr in (self.outcomes, self.detector_ids, self.channel_indices, self.dark):
            if arr.size != n:
                raise ValueError("all tag arrays must have the same length")

    def __len__(self) -> int:
        return self.ticks.size

    def is_sorted(self) -> bool:
        d = np.diff(self.ticks)
        ok = d > 0
        ties = d == 0
        ok_ties = self.detector_ids[1:][ties] >= self.detector_ids[:-1][ties]
        return bool(np.all(ok | ties) and np.all(ok_ties))

    def sorted(self) -> "TagStream":
        order = np.lexsort((self.detector_ids, self.ticks))
        return self.take(order)

    def take(self, idx) -> "TagStream":
        return TagStream(
            self.ticks[idx], self.outcomes[idx], self.detector_ids[idx],
            self.channel_indices[idx], self.dark[idx],
            self.tick_seconds, self.duration,
        )


def _check_pair(tags_a: TagStream, tags_b: TagStream, shift: int = 0):
    """Raise unless both streams share one tick, lie in canonical order,
    and hold only ticks inside ``(-MAX_TICKS, MAX_TICKS)``, where packed
    tag keys hold them; ``tags_b``'s ticks are checked after a shift of
    ``shift`` ticks.  The bound is checked first, so that no difference
    of ticks wraps."""
    if tags_a.tick_seconds != tags_b.tick_seconds:
        raise ValueError("tick resolution mismatch between streams")
    for s, off in ((tags_a, 0), (tags_b, shift)):
        if len(s) and not (-MAX_TICKS < int(s.ticks.min()) + off
                           and int(s.ticks.max()) + off < MAX_TICKS):
            raise ValueError("tag ticks, after any delay, must lie strictly within ±2**60 "
                             "(MAX_TICKS)")
        if not s.is_sorted():
            raise ValueError("input tag streams must be sorted")


class Survival(NamedTuple):
    """Per-photon survival flags after transmission losses."""

    signal: np.ndarray
    idler: np.ndarray

    @property
    def both(self) -> np.ndarray:
        return self.signal & self.idler

    @property
    def signal_only(self) -> np.ndarray:
        return self.signal & ~self.idler

    @property
    def idler_only(self) -> np.ndarray:
        return ~self.signal & self.idler


def side_transmittance(loss_db: float) -> float:
    """Survival probability of one photon when ``loss_db`` of two-sided
    link loss is split evenly between the sides."""
    return 10.0 ** (-(loss_db / 2.0) / 10.0)


def transmit(
    stream: PairStream,
    total_loss_db: float,
    extra_signal_loss: float = 0.0,
    extra_idler_loss: float = 0.0,
    seed=0,
) -> Survival:
    """Apply symmetric channel loss plus per-side extra loss.

    The total two-sided loss is split evenly, so each photon survives
    independently with probability ``10**(-(total_loss_db/2)/10)`` times
    ``1 - extra loss`` for its side.  All four survival combinations are
    preserved so singles can be accounted for downstream.
    """
    if not total_loss_db >= 0:
        raise ValueError(f"total_loss_db must be >= 0, got {total_loss_db}")
    for name, x in (("extra_signal_loss", extra_signal_loss),
                    ("extra_idler_loss", extra_idler_loss)):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {x}")
    p_side = side_transmittance(total_loss_db)
    p_signal = p_side * (1.0 - extra_signal_loss)
    p_idler = p_side * (1.0 - extra_idler_loss)
    rng = _rng(seed)
    n = len(stream)
    return Survival(
        signal=rng.random(n) < p_signal,
        idler=rng.random(n) < p_idler,
    )


def joint_outcome_probabilities(v_sys: float) -> np.ndarray:
    """Joint outcome distribution of the anti-symmetric entangled state
    in one shared basis, ordered (00, 01, 10, 11) with bit 1 = V or A.

    Anti-correlated combinations each occur with probability
    (1 + v)/4, correlated ones with (1 - v)/4; marginals are uniform.
    """
    if not 0.0 <= v_sys <= 1.0:
        raise ValueError(f"v_sys must be in [0, 1], got {v_sys}")
    anti = (1.0 + v_sys) / 4.0
    corr = (1.0 - v_sys) / 4.0
    return np.array([corr, anti, anti, corr])


def measure_pair_outcomes(n: int, v_sys: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized joint outcomes for n pairs; returns signal and idler
    outcome bits (0 or 1 within the measurement basis)."""
    # The draws of ``rng.choice(4, size=n, p=p)``, without its argument checks.
    cdf = joint_outcome_probabilities(v_sys).cumsum()
    cdf /= cdf[-1]
    cells = cdf.searchsorted(rng.random(n), side="right")
    return (cells >> 1).astype(np.int8), (cells & 1).astype(np.int8)


def measure_single_outcomes(n: int, rng) -> np.ndarray:
    """Outcome bits for photons whose partner was lost (uniform marginal)."""
    return rng.integers(0, 2, size=n, dtype=np.int8)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The positions of the ranges ``[lo[i], hi[i])``, one range after
    the other."""
    lens = hi - lo
    ends = np.cumsum(lens)
    return np.repeat(lo - ends + lens, lens) + np.arange(ends[-1] if lens.size else 0)


class KeyFrame(NamedTuple):
    """Where the ticks of a record's ``slots`` channels sit in packed tag
    keys; the one owner of that layout.

    Channel slot ``s`` holds the key ticks ``[s·width, (s + 1)·width)``:
    its tick ``t`` is the key tick ``t + offsets()[s]``.  Every tick of
    the record lies in ``[base, base + span]``, and ``width`` exceeds
    ``span`` by the reach of the kernels that compare ticks, so no kernel
    relates the tags of two channels.  The default frame is one channel
    whose key ticks are its ticks, unbounded.
    """

    base: int = 0
    width: int = 0
    span: int = 0
    slots: int = 1

    def offsets(self) -> np.ndarray:
        """Each slot's key tick less its tick, ``s·width - base``."""
        return np.arange(self.slots, dtype=np.int64) * self.width - self.base

    def bounds(self, keys: np.ndarray) -> np.ndarray:
        """Each slot's first position in sorted packed ``keys``, and then
        ``keys.size``: slot ``s`` is ``keys[bounds[s]:bounds[s + 1]]``."""
        bounds = np.searchsorted(keys, np.arange(self.slots + 1, dtype=np.int64)
                                 * self.width << 2)
        bounds[0], bounds[-1] = 0, keys.size
        return bounds


def key_frame(start: float, end: float, config: DetectorConfig,
              channels: int = 1, reach: float = 0.0) -> KeyFrame:
    """The frame of ``channels`` records of events in ``[start, end)``,
    one slot each, each jittered by at most the chunk margin
    (``JITTER_MARGIN_SIGMAS`` jitter widths), whose tags a kernel compares
    up to ``reach`` seconds apart.  Raises ValueError when the key ticks
    of all the channels do not fit below ``MAX_TICKS``, or a record's
    ticks do not fit in int64 keys."""
    margin = JITTER_MARGIN_SIGMAS * config.jitter_sigma
    lo, hi = (start - margin) / config.tick, (end + margin) / config.tick
    # Rounding the reach's parts and the record's ends costs a few ticks.
    extra = reach / config.tick + 5
    total = channels * (hi - lo + extra)
    if not (total < MAX_TICKS and -MAX_TICKS < lo and hi < MAX_TICKS):
        raise ValueError(
            f"{channels} record(s) of {end - start:g} s, margins, window and delays "
            f"included, are {total:.3g} ticks of {config.tick:g} s; packed tag keys "
            f"need fewer than 2**60")
    base = math.floor(lo)
    span = math.ceil(hi) - base
    return KeyFrame(base, span + math.ceil(extra), span, channels)


def _first_above(times: np.ndarray, x: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """For each query ``i``, the first position ``j`` in ``[lo[i], hi[i])``
    with ``times[j] > x[i]``, or ``hi[i]`` when there is none; ``times``
    must be non-decreasing on every range.  The queries gallop from
    ``lo`` and then bisect, all at once, so a query costs the logarithm
    of its distance, and no array as long as ``times`` is built."""
    lo, hi = np.array(lo, dtype=np.intp), np.array(hi, dtype=np.intp)
    step = 1
    todo = np.flatnonzero(lo < hi)
    while todo.size:
        probe = np.minimum(lo[todo] + (step - 1), hi[todo] - 1)
        above = times[probe] > x[todo]
        hi[todo[above]] = probe[above]
        lo[todo[~above]] = probe[~above] + 1
        todo = todo[~above]
        todo = todo[lo[todo] < hi[todo]]
        step *= 2
    todo = np.flatnonzero(lo < hi)
    while todo.size:
        mid = (lo[todo] + hi[todo]) >> 1
        above = times[mid] > x[todo]
        hi[todo[above]] = mid[above]
        lo[todo[~above]] = mid[~above] + 1
        todo = todo[lo[todo] < hi[todo]]
    return lo


def _dead_time_filter(times: np.ndarray, dead: float, last: float | np.ndarray,
                      starts: np.ndarray) -> np.ndarray:
    """Boolean keep-mask for a non-paralyzable dead-time filter.

    ``times`` holds one segment, or several one after the other, segment
    ``g`` from ``starts[g]`` on; each segment's times must be
    non-decreasing and are filtered on their own.  An event is kept iff
    it is strictly later than the last kept event of its segment plus
    ``dead`` (>= 0); ``last`` (one value, or one per segment) is the time
    of the last event kept before these, in an earlier chunk of the
    record (-inf for none).  Gaps larger than ``dead`` split a segment
    into clusters: the first event of every cluster is kept and the
    second is dropped.
    Clusters of three or more events are walked with :func:`_first_above`,
    all at once, one kept event per step, so a burst costs
    O(n + kept · log n) rather than quadratic time.  A walk that leaves
    its cluster lands on the next cluster's first event, which is already
    kept, or on its segment's end, and stops there.
    """
    n = times.size
    ends = np.append(starts[1:], n)
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep
    np.greater(times[1:], times[:-1] + dead, out=keep[1:])

    # The events still dead after ``last`` are a prefix of their segment,
    # and the first event after it starts a cluster.
    x = np.broadcast_to(np.asarray(last, dtype=np.float64) + dead, starts.shape)
    first = starts.copy()
    blocked = np.flatnonzero((starts < ends) & ~(times[np.minimum(starts, n - 1)] > x))
    if blocked.size:
        first[blocked] = _first_above(times, x[blocked], starts[blocked], ends[blocked])
        keep[_ranges(starts[blocked], first[blocked])] = False
    keep[first[first < ends]] = True
    cur = np.flatnonzero(keep[:-2] & ~keep[1:-1] & ~keep[2:])
    end = ends[np.searchsorted(starts, cur, side="right") - 1]
    on = cur + 2 < end
    cur, end = cur[on], end[on]
    while cur.size:
        cur = _first_above(times, times[cur] + dead, cur + 1, end)
        on = cur < end
        cur, end = cur[on], end[on]
        on = ~keep[cur]
        cur, end = cur[on], end[on]
        keep[cur] = True
    return keep


def _port_dead_time_filter(times: np.ndarray, port: np.ndarray, dead: float,
                           last: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Keep-mask of one dead-time filter per port and per segment, segment
    ``g`` of ``times`` from ``starts[g]`` on (:func:`_dead_time_filter`).

    Each port's times must be non-decreasing within each segment; the
    ports may interleave in any way.  ``port`` holds labels 0 and 1; an
    event of any other label is in no filter and is not kept.  Each
    port's events, gathered by index, pass one :func:`_dead_time_filter`,
    which compares them as float64.  ``last`` holds each port's last kept
    time from earlier chunks (-inf for none), one row per port of one
    entry per segment, and is updated in place.
    """
    keep = np.zeros(times.size, dtype=bool)
    rows = last.reshape(2, -1)
    for p in range(2):
        idx = np.flatnonzero(port == p)
        t = times[idx].astype(np.float64, copy=False)
        begin = np.searchsorted(idx, starts)
        k = _dead_time_filter(t, dead, rows[p], begin)
        keep[idx] = k
        # Each segment's last kept event, if it kept one.
        kept = np.flatnonzero(k)
        j = np.searchsorted(kept, np.append(begin[1:], t.size)) - 1
        seg = np.flatnonzero(j >= 0)
        seg = seg[kept[j[seg]] >= begin[seg]]
        rows[p, seg] = t[kept[j[seg]]]
    return keep


def _links(keys: np.ndarray, dead: float, margin: int, base: int = 0) -> tuple[int, np.ndarray]:
    """The reach (ticks) of a dead time of ``dead`` ticks over sorted
    packed ``keys``, and the positions ``k`` whose tag and the next lie
    within it: one difference pass, in which ``4·reach + 3`` bounds the
    key step of a tick step of ``reach``.

    The reach is the dead time rounded down, plus ``margin`` ticks for
    the rounding of times to ticks and twice the float64 spacing of the
    largest tick, key or plain, for the rounding of the filter's sums (a
    plain tick exceeds the largest key tick by at most ``|base|``, the
    frame's base).  It is capped at ``MAX_TICKS``, above every key tick,
    so that ``4·reach + 3`` and the ticks of
    :func:`_sparse_dead_time_filter` stay inside int64."""
    big = max(-int(keys[0]), int(keys[-1])) // 4 + abs(base) if keys.size else 0
    reach = math.floor(min(dead, MAX_TICKS)) + margin + 2 * int(np.spacing(float(big)))
    return reach, _close_links(keys, 4 * reach + 3)


def _close_links(keys: np.ndarray, step: int, block: int = LINK_BLOCK) -> np.ndarray:
    """``np.flatnonzero(np.diff(keys) <= step)``: the positions ``k`` whose
    key and the next differ by at most ``step``.  The differences are taken
    ``block`` links at a time, so that no difference array as long as
    ``keys`` is built."""
    return np.concatenate([np.empty(0, np.intp)] + [
        np.flatnonzero(np.diff(keys[lo:lo + block + 1]) <= step) + lo
        for lo in range(0, keys.size - 1, block)])


def _union(*runs: np.ndarray) -> np.ndarray:
    """The sorted positions that lie in any of the sorted ``runs``, each
    once: one stable sort of the runs one after the other (it merges
    sorted runs cheaply) and the first of each equal stretch."""
    pos = np.concatenate(runs)
    pos.sort(kind="stable")
    return pos[np.diff(pos, prepend=-1) > 0]


def _last_of_ports(keys: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The last position of each port's keys in each segment's
    ``[starts[g], stops[g])`` (one row per port; -1 for none), walked back
    from each stop in windows that double, so that a long run of one port
    costs few steps.  A window's positions lie below every position found
    before, so the largest found is the last."""
    last = np.full((2, starts.size), -1, np.intp)
    hi, width = stops.copy(), 4
    while (todo := np.flatnonzero((starts < hi) & (last < 0).any(axis=0))).size:
        lo = np.maximum(starts[todo], hi[todo] - width)
        pos = _ranges(lo, hi[todo])
        np.maximum.at(last, (keys[pos] & 1, np.repeat(todo, hi[todo] - lo)), pos)
        hi[todo] = lo
        width *= 2
    return last


def _sparse_dead_time_filter(keys: np.ndarray, links: np.ndarray, times, dead: float,
                             reach: int, last: np.ndarray, carried: np.ndarray,
                             starts: np.ndarray, stops: np.ndarray | None = None) -> np.ndarray:
    """The positions of sorted packed ``keys`` that one dead-time filter
    per segment and port drops: what :func:`_port_dead_time_filter` drops
    of the same tags, with ``last`` updated alike.  Segment ``g`` is
    ``[starts[g], stops[g])``; its tags from ``stops[g]`` on (None: none)
    are held, in no filter, and not returned.  ``times(pos)`` gives the
    tags' times; each port's must be non-decreasing within a segment.

    Two tags of a segment whose key ticks are more than ``reach`` apart
    must be more than ``dead`` apart in time.  ``links`` are the positions
    ``k`` whose tag and the next lie close (:func:`_links`).  A tag whose
    predecessor is more than ``reach`` ticks earlier is then more than
    ``dead`` after every earlier tag of its segment, so the dead time of
    none reaches it: it is kept unless the carried ``last`` does, which
    reaches only the ticks up to ``carried[g] + reach``, ``carried[g]``
    being the key tick of the segment's larger ``last`` (-inf for none).
    So only the members
    pass the exact filter, on their own times: the linked tags, each
    segment's prefix up to that tick, and the last tag of each port
    before each stop, whose kept or dropped tag settles the new ``last``.
    Every cluster of linked tags is filtered as in the whole stream, and
    every other tag is kept.
    """
    stops = np.append(starts[1:], keys.size) if stops is None else stops
    bound = np.clip(carried + (reach + 1), -MAX_TICKS, MAX_TICKS).astype(np.int64) << 2
    prefix = _ranges(starts, np.clip(np.searchsorted(keys, bound), starts, stops))
    tails = _last_of_ports(keys, starts, stops).ravel()
    members = _union(links, links + 1, prefix, np.sort(tails[tails >= 0]))
    members = members[members < stops[np.searchsorted(starts, members, side="right") - 1]]
    keep = _port_dead_time_filter(times(members), keys[members] & 1, dead, last,
                                  np.searchsorted(members, starts))
    return members[np.flatnonzero(~keep)]


class DetectorCarry:
    """What the analyzer modules of one side carry from a time chunk of
    their records to the next, one segment per channel slot.

    ``held`` are the jittered events (times, port bits, dark flags or
    None when the events carry none) at or above the last frontier, in
    slot order, which a later chunk's events may still precede, and the
    number held in each slot; ``last_kept`` is each port's last kept time
    in each slot (one row per port), from which its dead time runs on;
    ``frontier`` is the tick below which every tag has been emitted.
    """

    def __init__(self, channels: int = 1):
        self.held = (np.empty(0), np.empty(0, dtype=np.int8),
                     np.empty(0, dtype=bool), np.zeros(channels, dtype=np.intp))
        self.last_kept = np.full((2, channels), -np.inf)
        self.frontier: int | None = None


def emit_frontier(config: DetectorConfig, end: float) -> int:
    """Tick below which the tags of a chunk ending at ``end`` are final.

    It lies ``JITTER_MARGIN_SIGMAS`` jitter widths before ``end``, so no
    arrival at or after ``end`` is jittered below it in practice; if one
    ever is, :func:`emit_keys` raises instead of emitting tags out of order.
    """
    return int(np.floor((end - JITTER_MARGIN_SIGMAS * config.jitter_sigma)
                        / config.tick))


def detect(
    arrival_times: np.ndarray,
    outcome_bits: np.ndarray,
    config: DetectorConfig,
    duration: float,
    seed,
    channel_index: int = 0,
    basis: Basis = Basis.HV,
    detector_ids: tuple[int, int] = (0, 1),
) -> TagStream:
    """Convert photon arrivals at one analyzer module into time tags.

    Pipeline order: (1) thin arrivals by detector efficiency; (2) add
    dark counts as an independent Poisson process with uniformly random
    port assignment; (3) add zero-mean normal jitter to every event;
    (4) re-sort; (5) apply non-paralyzable dead time per physical
    detector; (6) quantize to ticks.  Steps (4) to (6) are
    :func:`emit_keys`, for one channel.

    ``outcome_bits`` selects the output port (0 or 1) for each arrival;
    ``detector_ids`` names the two physical detectors.  The call is one
    whole record: the arrivals and dark counts lie in ``[0, duration)``,
    whose ticks must fit in packed keys (:func:`key_frame`); a record too
    long for them is a ValueError before anything is drawn.  The Monte
    Carlo emits in time chunks through :func:`emit_keys`, with a
    :class:`DetectorCarry` between them.
    """
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    outcome_bits = np.asarray(outcome_bits, dtype=np.int8)
    if arrival_times.size > 1 and np.any(np.diff(arrival_times) < 0):
        raise ValueError("arrival_times must be sorted")
    if arrival_times.shape != outcome_bits.shape:
        raise ValueError("arrival_times and outcome_bits must match in length")
    if outcome_bits.size and (outcome_bits.min() < 0 or outcome_bits.max() > 1):
        raise ValueError("outcome_bits must be 0 or 1")
    if not (duration > 0 and math.isfinite(duration)):
        raise ValueError(f"duration must be finite and > 0, got {duration}")
    key_frame(0.0, duration, config)
    rng = _rng(seed)
    # Index gathers: a boolean mask gathers large arrays several times slower.
    kept = np.flatnonzero(rng.random(arrival_times.size) < config.efficiency)
    t = arrival_times[kept]
    bits = outcome_bits[kept]
    dark = np.zeros(t.size, dtype=bool)

    n_dark = rng.poisson(2.0 * config.dark_rate * duration)
    if n_dark:
        t = np.concatenate([t, rng.uniform(0.0, duration, n_dark)])
        bits = np.concatenate([bits, rng.integers(0, 2, n_dark, dtype=np.int8)])
        dark = np.concatenate([dark, np.ones(n_dark, dtype=bool)])

    if config.jitter_sigma > 0 and t.size:
        t += rng.normal(0.0, config.jitter_sigma, t.size)
    return _emit(t, bits, dark, config, channel_index, basis, detector_ids,
                 duration, DetectorCarry(), None)


def emit_keys(parts: list, config: DetectorConfig, carry: DetectorCarry,
              frontier: int | None, side: int = 0,
              frame: KeyFrame = KeyFrame()) -> tuple[np.ndarray, np.ndarray | None]:
    """Steps (4) to (6) of :func:`detect` for one side of several
    channels at once: the packed keys and dark flags of the tags below
    the ``frontier`` tick.

    ``parts`` holds each channel slot's jittered events, as a tuple of
    times, port bits and dark flags in any order; the list is emptied,
    so that each slot's draws are freed once they are folded in.  When a
    slot's dark flags are None, no flags are kept, carried or returned
    (None).  ``carry`` is the side's carry, with one segment per slot.  A
    tag's key is ``k << 2 | side << 1 | port``, with ``k`` its key tick in
    ``frame``.  The keys come sorted, the slots one after the other, and
    tags of equal key in time order.  The dark flags follow the keys.

    The held and new events of every slot are ordered once, by one stable
    sort of their keys ``k << 2 | port``, and the few events that share a
    key are then sorted by time.  Rounding keeps time order, so each
    (slot, port)'s events come in time order, as each port's own stable
    sort of its times would order them.  Each slot's events at or above
    the frontier are held again.  Each (slot, port) passes one
    non-paralyzable dead-time filter, the sparse kernel
    (:func:`_sparse_dead_time_filter`): the key differences that find the
    ties also find the tags within the dead time's reach of another, only
    their float64 times are gathered and filtered, and every other tag is
    kept.  The port bits are read from the keys, and the kept tags stay in
    key order.  The times are rounded to ticks inside the key buffer, and
    the frame's slot offsets (:meth:`KeyFrame.offsets`) are added to
    integer ticks only, by one ``np.repeat`` over the held and the new
    events, so that no time is rounded differently.  The slots' bounds,
    frontier cuts and carried ticks come from the frame too.  Each event
    array is freed after its last reader.
    """
    held_t, held_bits, held_dark, held_sizes = carry.held
    sizes = held_sizes.tolist() + [p[0].size for p in parts]
    t = np.concatenate([held_t] + [p[0] for p in parts])
    bits = np.concatenate([held_bits] + [p[1] for p in parts])
    dark = None if any(p[2] is None for p in parts) else \
        np.concatenate([held_dark] + [p[2] for p in parts])
    parts.clear()
    key = np.empty(t.size, np.int64)
    # Rounded in the key buffer's float64 view and cast in place: rint with
    # an int64 output would copy its overlapping input.
    x = key.view(np.float64)
    np.divide(t, config.tick, out=x)
    np.rint(x, out=x)
    np.copyto(key, x, casting="unsafe")
    new = key[held_t.size:]
    if carry.frontier is not None and new.size and new.min() < carry.frontier:
        raise ValueError("jitter moved a tag below the frontier already "
                         "emitted; the chunk margin is too small")
    if frame.width and key.size and (key.min() < frame.base
                                     or key.max() > frame.base + frame.span):
        raise ValueError("jitter moved a tag past the record's margin")
    offsets = frame.offsets()
    # The held events, then the new ones, each in slot order.
    key += np.repeat(np.tile(offsets, 2), sizes)
    key <<= 2
    key |= bits
    del bits, new, x    # the views would keep the unsorted keys alive
    order = np.argsort(key, kind="stable")
    key = key[order]
    reach, links = _links(key, config.dead_time / config.tick, 3, frame.base)
    tie = links[key[links] == key[links + 1]]
    if tie.size:
        pos = _union(tie, tie + 1)
        sub = order[pos]
        order[pos] = sub[np.lexsort((t[sub], key[pos]))]
    bounds = frame.bounds(key)
    starts, ends = bounds[:-1], bounds[1:]
    cut = ends if frontier is None else \
        np.clip(np.searchsorted(key, offsets + frontier << 2), starts, ends)
    held = _ranges(cut, ends)
    if dark is not None:
        dark = dark[order]
    carry.held = (t[order[held]], (key[held] & 1).astype(np.int8),
                  None if dark is None else dark[held], ends - cut)
    carry.frontier = frontier
    carried = np.rint(carry.last_kept.max(axis=0) / config.tick) + offsets
    drop = np.concatenate((held, _sparse_dead_time_filter(
        key, links, lambda pos: t[order[pos]], config.dead_time, reach,
        carry.last_kept, carried, starts, cut)))
    del t, order, links
    keys = np.delete(key, drop)
    if side:
        keys |= 2
    return keys, None if dark is None else np.delete(dark, drop)


def _emit(t: np.ndarray, bits: np.ndarray, dark: np.ndarray,
          config: DetectorConfig, channel_index: int, basis: Basis,
          detector_ids: tuple[int, int], duration: float,
          carry: DetectorCarry, frontier: int | None) -> TagStream:
    """Steps (4) to (6) of :func:`detect` on one module's jittered event
    times: :func:`emit_keys` of one channel, unpacked into a tag stream.
    The tags come in key order, port 0 first on a shared tick; when the
    module's detector ids fall with the port bit, the stream is sorted
    again into canonical (tick, detector id) order."""
    keys, dark = emit_keys([(t, bits, dark)], config, carry, frontier)
    port = (keys & 1).astype(np.int8)
    o0, o1 = BASIS_OUTCOMES[basis]
    tags = TagStream(
        keys >> 2, np.where(port == 0, np.int8(o0.value), np.int8(o1.value)),
        np.asarray(detector_ids, dtype=np.int32)[port],
        np.full(keys.size, channel_index, dtype=np.int32), dark,
        config.tick, duration,
    )
    return tags.sorted() if detector_ids[0] > detector_ids[1] else tags


def merge_detectors(
    tags_a: TagStream,
    tags_b: TagStream,
    global_dead_time: float,
    merged_detector_id: int | None = None,
) -> TagStream:
    """Merge two detector streams into one effective detector.

    Walking the union in (tick, detector_id) order, an event is kept
    only if it is strictly later than the last kept event plus the
    global dead time, so simultaneous events keep the first and drop
    the rest.  The output carries a single detector id and behaves as
    one detector's stream.  ``global_dead_time`` (s) must be finite and
    >= 0; the streams must pass :func:`_check_pair`.

    The union's ticks are packed as keys with a zero port bit, one
    effective detector, and merged by :func:`merge_keys`.  Only the first
    tag on a tick can survive, and it is the left-most position of its
    key in the union, so each kept key takes that tag's fields.
    """
    if not (math.isfinite(global_dead_time) and global_dead_time >= 0):
        raise ValueError(f"global_dead_time must be finite and >= 0, got {global_dead_time}")
    _check_pair(tags_a, tags_b)
    union = _chain([tags_a, tags_b]).sorted()
    keys = union.ticks << 2
    out = union.take(np.searchsorted(keys, merge_keys(
        keys.copy(), global_dead_time / union.tick_seconds, np.full(2, -np.inf), 1)))
    if merged_detector_id is None and len(out):
        merged_detector_id = int(out.detector_ids.min())
    if merged_detector_id is not None:
        out.detector_ids = np.full(len(out), merged_detector_id, dtype=np.int32)
    return out


def merge_keys(keys: np.ndarray, dead: float, last: np.ndarray, runs: int) -> np.ndarray:
    """Merge one side's packed tag keys, ``tick << 2 | side << 1 | port``,
    given as ``runs`` sorted runs one after the other, into one
    effective detector per port.

    One sort of ``keys``, in place, orders them by (tick, port).  Every
    port then passes one non-paralyzable dead-time filter of ``dead``
    ticks: a tag survives iff it is strictly later than every kept tag
    of its port plus the dead time, whichever run either came from.
    Only the first tag of a port on a tick can survive, and tags that
    share a tick and a port share a key, so the output does not depend
    on which run a survivor came from.  ``last`` holds each port's last
    kept tick from earlier chunks of the runs (-inf for none) and is
    updated in place.  The filter is the sparse kernel
    (:func:`_sparse_dead_time_filter`), with the ticks as the times: only
    the tags within the dead time's reach of another are filtered, and
    the dropped ones are deleted.
    """
    # Equal keys cannot be told apart, so the kind of sort cannot change
    # the result: timsort merges two sorted runs fastest, numpy's default
    # sort more of them.
    keys.sort(kind="stable" if runs <= 2 else None)
    reach, links = _links(keys, dead, 1)
    return np.delete(keys, _sparse_dead_time_filter(
        keys, links, lambda pos: keys[pos] >> 2, dead, reach, last, np.array([last.max()]),
        np.zeros(1, np.intp)))


def _chain(streams: list[TagStream]) -> TagStream:
    """The streams' tags one after the other, without re-sorting; they
    must share one tick resolution."""
    if not streams:
        raise ValueError("no streams to concatenate")
    tick_s = streams[0].tick_seconds
    if any(s.tick_seconds != tick_s for s in streams):
        raise ValueError("tick resolution mismatch between streams")
    return TagStream(
        np.concatenate([s.ticks for s in streams]),
        np.concatenate([s.outcomes for s in streams]),
        np.concatenate([s.detector_ids for s in streams]),
        np.concatenate([s.channel_indices for s in streams]),
        np.concatenate([s.dark for s in streams]),
        tick_s, max(s.duration for s in streams),
    )


def concatenate_streams(streams: list[TagStream]) -> TagStream:
    """Union of several tag streams, re-sorted canonically."""
    return _chain(streams).sorted()
