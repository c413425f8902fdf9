"""Detection chain: link loss, polarization measurement, and realistic
detector time tagging (efficiency, dark counts, jitter, dead time, tick
quantization), plus post-hoc merging of detector streams.

A detection module is one polarization analyzer with two output
detectors (one per outcome).  Tags carry integer timestamps in units of
the time-tagger tick (1/12.15 GHz by default).
"""

from __future__ import annotations

import csv
import enum
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .source import PairStream, _rng

DEFAULT_TICK_S = 1.0 / 12.15e9

# A chunk of a record emits its tags up to a frontier this many jitter
# widths before the chunk's end, so that no later arrival's jitter can
# land a tag below it.
JITTER_MARGIN_SIGMAS = 40.0


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

    @property
    def times(self) -> np.ndarray:
        """Tag times in seconds."""
        return self.ticks * self.tick_seconds

    def is_sorted(self) -> bool:
        if len(self) < 2:
            return True
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

    def singles_rate(self) -> float:
        return len(self) / self.duration if self.duration > 0 else 0.0


def _tie_order(ticks: np.ndarray, *keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder the groups of equal ticks of a non-decreasing tick array.

    Sorting stably by ``keys`` (most significant first) inside every
    group of equal ticks moves the element at position ``src[i]`` to
    position ``pos[i]``; only the elements that move are returned, so
    ``a[pos] = a[src]`` applies the order.  Equal ticks are rare at
    realistic rates, which makes this much cheaper than a full lexsort.
    """
    tie = ticks[1:] == ticks[:-1]
    if not tie.any():
        none = np.empty(0, dtype=np.intp)
        return none, none
    grouped = np.zeros(ticks.size, dtype=bool)
    grouped[1:] = tie
    grouped[:-1] |= tie
    pos = np.flatnonzero(grouped)
    src = pos[np.lexsort([k[pos] for k in reversed(keys)] + [ticks[pos]])]
    moved = src != pos
    return pos[moved], src[moved]


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
    if total_loss_db < 0:
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


def measure_polarization(pair, basis: Basis, v_sys: float, seed=0):
    """Joint polarization outcome of one surviving pair.

    Returns ``(outcome_signal, outcome_idler)`` drawn from the
    anti-correlated joint distribution in the chosen basis.
    """
    s_bits, i_bits = measure_pair_outcomes(1, v_sys, _rng(seed))
    o0, o1 = BASIS_OUTCOMES[basis]
    pick = (o0, o1)
    return pick[int(s_bits[0])], pick[int(i_bits[0])]


def measure_pair_outcomes(n: int, v_sys: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized joint outcomes for n pairs; returns signal and idler
    outcome bits (0 or 1 within the measurement basis)."""
    p = joint_outcome_probabilities(v_sys)
    cells = rng.choice(4, size=n, p=p)
    return (cells >> 1).astype(np.int8), (cells & 1).astype(np.int8)


def measure_single_outcomes(n: int, rng) -> np.ndarray:
    """Outcome bits for photons whose partner was lost (uniform marginal)."""
    return rng.integers(0, 2, size=n, dtype=np.int8)


def _dead_time_filter(times: np.ndarray, dead: float,
                      last: float = -np.inf) -> np.ndarray:
    """Boolean keep-mask for a non-paralyzable dead-time filter.

    ``times`` must be non-decreasing.  An event is kept iff it is
    strictly later than the last kept event plus ``dead``; ``last`` is
    the time of the last event kept before these, in an earlier chunk of
    the record.  Gaps larger than ``dead`` split the times into clusters:
    the first event of every cluster is kept and the second is dropped.
    Clusters of three or more events are walked with ``searchsorted``,
    all at once, one kept event per step, so a burst costs
    O(n + kept · log n) rather than quadratic time.  A walk that leaves
    its cluster lands on the next cluster's first event, which is
    already kept, and stops there.
    """
    if dead < 0:
        return np.ones(times.size, dtype=bool)
    keep = np.zeros(times.size, dtype=bool)
    # The events still dead after ``last`` are a prefix; the rest is
    # filtered on its own.
    lo = int(np.searchsorted(times, last + dead, side="right"))
    t, k = times[lo:], keep[lo:]
    n = t.size
    if n == 0:
        return keep
    k[0] = True
    np.greater(t[1:], t[:-1] + dead, out=k[1:])
    cur = np.flatnonzero(k[:-2] & ~k[1:-1] & ~k[2:])
    while cur.size:
        cur = np.searchsorted(t, t[cur] + dead, side="right")
        cur = cur[cur < n]
        cur = cur[~k[cur]]
        k[cur] = True
    return keep


def _port_dead_time_filter(times: np.ndarray, port: np.ndarray, dead: float,
                           ports: int, last: np.ndarray) -> np.ndarray:
    """Keep-mask of one dead-time filter per port.

    ``times`` must be non-decreasing and ``port`` holds int8 labels in
    ``range(ports)``.  A stable sort by port groups each port's events,
    still in time order, into one slice for :func:`_dead_time_filter`,
    which compares them as float64.  ``last`` holds each port's last
    kept time from earlier chunks (-inf for none) and is updated in
    place.
    """
    by_port = np.argsort(port, kind="stable")
    t = times[by_port].astype(np.float64, copy=False)
    edges = np.cumsum(np.bincount(port, minlength=ports))
    parts = []
    for p, (lo, hi) in enumerate(zip(np.concatenate(([0], edges[:-1])), edges)):
        k = _dead_time_filter(t[lo:hi], dead, last[p])
        if k.any():
            last[p] = t[lo + k.size - 1 - np.argmax(k[::-1])]
        parts.append(k)
    keep = np.empty(times.size, dtype=bool)
    keep[by_port] = np.concatenate(parts)
    return keep


class DetectorCarry:
    """What one analyzer module carries from a time chunk of its record to
    the next.

    ``held`` are the jittered events (times, port bits, dark flags) at or
    above the last frontier, which a later chunk's events may still
    precede; ``last_kept`` is each port's last kept time, from which its
    dead time runs on; ``frontier`` is the tick below which every tag has
    been emitted.
    """

    def __init__(self):
        self.held = (np.empty(0), np.empty(0, dtype=np.int8),
                     np.empty(0, dtype=bool))
        self.last_kept = np.full(2, -np.inf)
        self.frontier: int | None = None


def emit_frontier(config: DetectorConfig, end: float) -> int:
    """Tick below which the tags of a chunk ending at ``end`` are final.

    It lies ``JITTER_MARGIN_SIGMAS`` jitter widths before ``end``, so no
    arrival at or after ``end`` is jittered below it in practice; if one
    ever is, :func:`detect` raises instead of emitting tags out of order.
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
    start: float = 0.0,
    carry: DetectorCarry | None = None,
    frontier: int | None = None,
) -> TagStream:
    """Convert photon arrivals at one analyzer module into time tags.

    Pipeline order: (1) thin arrivals by detector efficiency; (2) add
    dark counts as an independent Poisson process with uniformly random
    port assignment; (3) add zero-mean normal jitter to every event;
    (4) re-sort; (5) apply non-paralyzable dead time per physical
    detector; (6) quantize to ticks.

    ``outcome_bits`` selects the output port (0 or 1) for each arrival;
    ``detector_ids`` names the two physical detectors.  The arrivals and
    dark counts lie in ``[start, start + duration)``.

    With a ``carry`` the call is one time chunk of a longer record: the
    events held from the previous chunk join this one's, only tags below
    the ``frontier`` tick are emitted and the rest are held again (a
    ``frontier`` of None, for the record's last chunk, emits them all),
    and each port's dead time runs on from its last kept tag.  The chunks'
    outputs then follow each other in canonical order and together equal
    the one-shot output for the same events.  Without one the call is a
    whole record: one chunk with a fresh carry.
    """
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    outcome_bits = np.asarray(outcome_bits, dtype=np.int8)
    if arrival_times.size > 1 and np.any(np.diff(arrival_times) < 0):
        raise ValueError("arrival_times must be sorted")
    if arrival_times.shape != outcome_bits.shape:
        raise ValueError("arrival_times and outcome_bits must match in length")
    if outcome_bits.size and (outcome_bits.min() < 0 or outcome_bits.max() > 1):
        raise ValueError("outcome_bits must be 0 or 1")
    if duration <= 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    rng = _rng(seed)

    kept = rng.random(arrival_times.size) < config.efficiency
    t = arrival_times[kept]
    bits = outcome_bits[kept]
    dark = np.zeros(t.size, dtype=bool)

    n_dark = rng.poisson(2.0 * config.dark_rate * duration)
    if n_dark:
        t = np.concatenate([t, rng.uniform(start, start + duration, n_dark)])
        bits = np.concatenate([bits, rng.integers(0, 2, n_dark, dtype=np.int8)])
        dark = np.concatenate([dark, np.ones(n_dark, dtype=bool)])

    if config.jitter_sigma > 0 and t.size:
        t = t + rng.normal(0.0, config.jitter_sigma, t.size)
    return _emit(t, bits, dark, config, channel_index, basis, detector_ids,
                 duration, carry or DetectorCarry(), frontier)


def _emit(t: np.ndarray, bits: np.ndarray, dark: np.ndarray,
          config: DetectorConfig, channel_index: int, basis: Basis,
          detector_ids: tuple[int, int], duration: float,
          carry: DetectorCarry, frontier: int | None) -> TagStream:
    """Steps (4) to (6) of :func:`detect`, on jittered event times."""
    if (carry.frontier is not None and t.size
            and np.rint(t.min() / config.tick) < carry.frontier):
        raise ValueError("jitter moved a tag below the frontier already "
                         "emitted; the chunk margin is too small")
    held_t, held_bits, held_dark = carry.held
    t = np.concatenate([held_t, t])
    bits = np.concatenate([held_bits, bits])
    dark = np.concatenate([held_dark, dark])

    order = np.argsort(t, kind="stable")
    t, bits, dark = t[order], bits[order], dark[order]
    # Rounding keeps the time order, so the ticks are non-decreasing and
    # only tags of the two detectors that share a tick may be out of
    # canonical (tick, detector_id) order.
    ticks = np.rint(t / config.tick).astype(np.int64)
    # Held tags share no tick with emitted ones, so the canonical order
    # never spans two chunks.
    n = ticks.size if frontier is None else int(np.searchsorted(ticks, frontier))
    # Copies, so the few held events do not keep the chunk alive.
    carry.held = (t[n:].copy(), bits[n:].copy(), dark[n:].copy())
    carry.frontier = frontier
    t, ticks, bits, dark = t[:n], ticks[:n], bits[:n], dark[:n]

    keep = _port_dead_time_filter(t, bits, config.dead_time, 2, carry.last_kept)
    ticks, bits, dark = ticks[keep], bits[keep], dark[keep]

    det = np.where(bits == 0, detector_ids[0], detector_ids[1]).astype(np.int32)
    pos, src = _tie_order(ticks, det)
    bits[pos], dark[pos], det[pos] = bits[src], dark[src], det[src]
    o0, o1 = BASIS_OUTCOMES[basis]
    outcomes = np.where(bits == 0, np.int8(o0.value), np.int8(o1.value))
    return TagStream(
        ticks, outcomes, det,
        np.full(ticks.size, channel_index, dtype=np.int32), dark,
        config.tick, duration,
    )


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
    one detector's stream.  ``_merge_streams`` is the k-way form.
    """
    for s in (tags_a, tags_b):
        if not s.is_sorted():
            raise ValueError("input tag streams must be sorted")
    out = _merge_streams([tags_a, tags_b], global_dead_time, 1, np.full(1, -np.inf))
    if merged_detector_id is None and len(out):
        merged_detector_id = int(out.detector_ids.min())
    if merged_detector_id is not None:
        out.detector_ids = np.full(len(out), merged_detector_id, dtype=np.int32)
    return out


def _merge_streams(streams: list[TagStream], global_dead_time: float,
                   ports: int, last: np.ndarray) -> TagStream:
    """Merge k streams into one effective detector per output port.

    Tags whose detector ids are equal modulo ``ports`` belong to the
    same port.  All tags are ordered once by (tick, port, detector_id),
    and every port then passes one non-paralyzable dead-time filter
    with ``global_dead_time``: a tag survives iff it is strictly later
    than every kept tag of its port plus the dead time, whichever
    stream either came from.  ``last`` holds each port's last kept tick
    from earlier chunks of the streams (-inf for none) and is updated in
    place.  The output keeps the original detector ids, in that order;
    callers relabel them.
    """
    tick_s = _common_tick(streams)
    ticks = np.concatenate([s.ticks for s in streams])
    # The input is a few sorted runs, which a stable sort merges cheaply;
    # only equal ticks still need the (port, detector_id) order.
    order = np.argsort(ticks, kind="stable")
    t = ticks[order]
    det = np.concatenate([s.detector_ids for s in streams])[order]
    port = (det % ports).astype(np.int8)
    pos, src = _tie_order(t, port, det)
    order[pos], port[pos] = order[src], port[src]
    keep = _port_dead_time_filter(t, port, global_dead_time / tick_s, ports, last)
    # Reordering within groups of equal ticks leaves ``t`` as it was, so
    # only the other fields are gathered from the inputs.
    idx = order[keep]

    def gather(field):
        return np.concatenate([getattr(s, field) for s in streams])[idx]

    return TagStream(t[keep], gather("outcomes"), gather("detector_ids"),
                     gather("channel_indices"), gather("dark"),
                     tick_s, max(s.duration for s in streams))


def _common_tick(streams: list[TagStream]) -> float:
    """The tick resolution shared by several streams."""
    if not streams:
        raise ValueError("no streams to concatenate")
    tick_s = streams[0].tick_seconds
    if any(s.tick_seconds != tick_s for s in streams):
        raise ValueError("tick resolution mismatch between streams")
    return tick_s


def _chain(streams: list[TagStream]) -> TagStream:
    """The streams' tags one after the other, without re-sorting."""
    tick_s = _common_tick(streams)
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


TAG_CSV_COLUMNS = ("detector_id", "tick_time", "outcome", "channel_index")


def export_tags_csv(stream: TagStream, directory: str) -> list[str]:
    """Write one CSV file per detector id; returns the file paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for det in np.unique(stream.detector_ids):
        sub = stream.take(stream.detector_ids == det)
        path = os.path.join(directory, f"detector_{int(det)}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(TAG_CSV_COLUMNS)
            for i in range(len(sub)):
                w.writerow([
                    int(sub.detector_ids[i]), int(sub.ticks[i]),
                    Outcome(int(sub.outcomes[i])).name, int(sub.channel_indices[i]),
                ])
        paths.append(path)
    return paths
