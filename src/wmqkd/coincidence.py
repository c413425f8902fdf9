"""Coincidence identification and basis-resolved count tabulation.

Two tag streams are matched with a greedy earliest-first one-to-one
policy inside a symmetric timing window: tags pair when their time
difference is at most half the window, so the total window width equals
the configured value.  An accidental-rate estimator counts the matches
with one stream delayed far outside the window.

Tags are matched as packed int64 keys (:func:`detection.tag_keys`),
``tick << 2 | side << 1 | port``: side 0 is Alice and 1 is Bob, and the
port bit is the low bit of the outcome.  One matcher kernel
(:func:`match_keys`) sorts an Alice and a Bob run of keys into one and
walks it on ``key >> 2``.  The key order is the tie order of the greedy
policy: on a shared tick Alice comes first, and each side keeps its own
canonical (tick, detector_id) order, because a module's two detector ids
rise with the port bit.  The Monte Carlo block counters read each
match's 2x2 cell from the port bits (:func:`key_table`) and count the
delayed window as the same call with Bob's keys shifted;
:func:`find_coincidences` and :func:`accidental_estimate` pack a zero
port bit, which leaves each side's ties in stream order, and call the
same kernel.  Runs of keys that arrive in time chunks are matched
stretch by stretch (:class:`ChunkedPair`), with exactly the result of
matching them whole.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .detection import Basis, TagStream


@dataclass(frozen=True)
class CoincidenceWindow:
    """Symmetric coincidence timing window of total width ``t_c`` (s)."""

    t_c: float = 1e-9

    def __post_init__(self):
        if not (self.t_c > 0 and math.isfinite(self.t_c)):
            raise ValueError(f"t_c must be finite and > 0, got {self.t_c}")

    def half_width_ticks(self, tick_seconds: float) -> int:
        """Largest integer tick difference counted as coincident.

        Quantized tags match when ``|dt_ticks| <= floor(t_c / 2 / tick)``;
        the effective window width is ``(2*floor(..) + 1) * tick``.
        """
        return int(np.floor(self.t_c / 2.0 / tick_seconds + 1e-9))

    def effective_width(self, tick_seconds: float) -> float:
        """Window width (s) actually realized on the tick grid."""
        return (2 * self.half_width_ticks(tick_seconds) + 1) * tick_seconds


@dataclass
class Matches:
    """Matched tag pairs between an Alice and a Bob stream."""

    tags_a: TagStream
    tags_b: TagStream
    idx_a: np.ndarray
    idx_b: np.ndarray

    def __len__(self) -> int:
        return self.idx_a.size


def _greedy_two_pointer(ta: np.ndarray, tb: np.ndarray, half: int):
    """Exact greedy earliest-first matching of two sorted integer arrays.

    At each step the globally earliest unmatched tag is paired with the
    earliest (hence nearest eligible) unused tag of the other stream
    within ``half``, or discarded if none exists.
    """
    out_a, out_b = [], []
    i = j = 0
    na, nb = ta.size, tb.size
    while i < na and j < nb:
        d = tb[j] - ta[i]
        if d >= 0:
            if d <= half:
                out_a.append(i)
                out_b.append(j)
                i += 1
                j += 1
            else:
                i += 1
        else:
            if -d <= half:
                out_a.append(i)
                out_b.append(j)
                i += 1
                j += 1
            else:
                j += 1
    return out_a, out_b


def find_coincidences(tags_a: TagStream, tags_b: TagStream,
                      window: CoincidenceWindow) -> Matches:
    """Identify two-photon coincidences between two sorted tag streams.

    A pair matches iff ``|t_a - t_b| <= t_c/2``; matching is greedy
    earliest-first and one-to-one, with ties resolved by the canonical
    (tick, detector_id) stream order.  The streams are matched as keys
    with a zero port bit (:func:`match_keys`); each side's index is its
    position in the sorted union less the other side's tags before it.
    """
    _check_pair(tags_a, tags_b)
    half = window.half_width_ticks(tags_a.tick_seconds)
    keys, pos_a, pos_b = match_keys(tags_a.ticks << 2, tags_b.ticks << 2 | 2, half)
    bobs = np.cumsum(keys >> 1 & 1)   # Bob tags at or before each position
    idx_a = pos_a - bobs[pos_a]
    order = np.argsort(idx_a)
    return Matches(tags_a, tags_b, idx_a[order], bobs[pos_b[order]] - 1)


def _check_pair(tags_a: TagStream, tags_b: TagStream):
    """Raise unless both streams are in canonical order and share one
    tick."""
    for s in (tags_a, tags_b):
        if not s.is_sorted():
            raise ValueError("input tag streams must be sorted")
    if tags_a.tick_seconds != tags_b.tick_seconds:
        raise ValueError("tick resolution mismatch between streams")


def match_keys(ka: np.ndarray, kb: np.ndarray, half: int):
    """The greedy matches of a sorted run of Alice keys and one of Bob
    keys whose ticks match within ``half``.

    Returns ``(keys, pos_a, pos_b)``: both runs in one sort (numpy's
    stable sort merges two sorted runs cheaply), and the positions in it
    of each match's Alice and Bob tag, in no particular order.  On a
    shared tick the keys put Alice first and keep each side's own order,
    the tie order of the greedy policy.  A
    match needs a chain of consecutive gaps of at most ``half`` between
    its tags, so only runs of such "close" links can hold matches; they
    are a small share of the tags at realistic rates.  A run of one link
    that joins an Alice and a Bob tag is one match; each longer run
    falls back to the explicit greedy walk over its Alice and Bob tags.
    """
    keys = np.concatenate((ka, kb))
    keys.sort(kind="stable")
    none = np.empty(0, dtype=np.intp)
    t = keys >> 2
    close = np.flatnonzero(np.diff(t) <= half)   # link k joins tags k and k + 1
    if ka.size == 0 or kb.size == 0 or close.size == 0:
        return keys, none, none
    brk = np.flatnonzero(np.diff(close) != 1) + 1
    first = close[np.concatenate(([0], brk))]
    last = close[np.concatenate((brk - 1, [close.size - 1]))] + 1
    single = last - first == 1
    early = first[single]
    bob_first = keys[early] & 2
    mixed = bob_first != keys[early + 1] & 2
    early, a_first = early[mixed], bob_first[mixed] == 0
    pos_a = [np.where(a_first, early, early + 1)]
    pos_b = [np.where(a_first, early + 1, early)]
    for lo, hi in zip(first[~single].tolist(), last[~single].tolist()):
        bob = keys[lo:hi + 1] & 2 != 0
        ia = lo + np.flatnonzero(~bob)
        ib = lo + np.flatnonzero(bob)
        sub_a, sub_b = _greedy_two_pointer(t[ia], t[ib], half)
        if sub_a:
            pos_a.append(ia[np.asarray(sub_a)])
            pos_b.append(ib[np.asarray(sub_b)])
    return keys, np.concatenate(pos_a), np.concatenate(pos_b)


def key_table(keys: np.ndarray, pos_a: np.ndarray, pos_b: np.ndarray) -> np.ndarray:
    """The 2x2 table of matches read from their port bits: Alice's bit
    picks the row and Bob's the column."""
    cell = 2 * (keys[pos_a] & 1) + (keys[pos_b] & 1)
    return np.bincount(cell, minlength=4).reshape(2, 2)


@dataclass
class CountsMatrix:
    """Coincidence counts per joint outcome in one basis block.

    ``cc[i, j]`` counts coincidences with Alice outcome bit ``i`` and
    Bob outcome bit ``j`` (bit 0 = H or D, bit 1 = V or A).
    """

    basis: Basis
    cc: np.ndarray
    channel_pair: int
    duration: float

    def __post_init__(self):
        self.cc = np.asarray(self.cc, dtype=np.int64)
        if self.cc.shape != (2, 2):
            raise ValueError("cc must be a 2x2 table")
        if np.any(self.cc < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return int(self.cc.sum())

    @property
    def erroneous(self) -> int:
        """Correlated (same-outcome) counts; errors for the singlet state."""
        return int(self.cc[0, 0] + self.cc[1, 1])

    def as_csv_row(self) -> list:
        return [self.channel_pair, self.basis.value,
                int(self.cc[0, 0]), int(self.cc[0, 1]),
                int(self.cc[1, 0]), int(self.cc[1, 1]),
                self.duration]


COUNTS_CSV_COLUMNS = ("channel_pair", "basis", "cc_hh", "cc_hv",
                      "cc_vh", "cc_vv", "duration_s")


def counts_to_csv(matrices: list[CountsMatrix]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(COUNTS_CSV_COLUMNS)
    for m in matrices:
        w.writerow(m.as_csv_row())
    return buf.getvalue()


def tabulate(matches: Matches, basis: Basis, channel_pair: int = 0,
             duration: float | None = None) -> CountsMatrix:
    """Tabulate matched pairs into a 2x2 joint-outcome count table.

    All matched tags must carry outcomes of the given basis; dark-origin
    tags are counted under the outcome label assigned at detection.
    """
    oa = matches.tags_a.outcomes[matches.idx_a]
    ob = matches.tags_b.outcomes[matches.idx_b]
    check_basis(basis, oa, ob)
    cell = 2 * (oa & 1).astype(np.intp) + (ob & 1)
    cc = np.bincount(cell, minlength=4).reshape(2, 2)
    if duration is None:
        duration = max(matches.tags_a.duration, matches.tags_b.duration)
    return CountsMatrix(basis, cc, channel_pair, duration)


def check_basis(basis: Basis, *outcomes: np.ndarray):
    """Raise unless every outcome belongs to ``basis``."""
    want = basis is Basis.DA
    if any(((o >= 2) != want).any() for o in outcomes):
        raise ValueError(f"outcomes are not all in the {basis.value} basis")


def delay_ticks(delay: float, tick_seconds: float) -> int:
    """A delay (s) as a whole number of ticks."""
    return int(np.rint(delay / tick_seconds))


def accidental_estimate(tags_a: TagStream, tags_b: TagStream,
                        window: CoincidenceWindow, delay: float) -> int:
    """Delayed-window accidental estimate.

    Counts the matches with Bob's stream shifted by ``delay`` (s); for
    uncorrelated streams the count is an unbiased estimate of
    ``S_A * S_B * t_c * duration``.  The delay must be much larger than
    both the window and the timing jitter.  The shift keeps Bob's order,
    so the streams are validated once, unshifted.
    """
    _check_pair(tags_a, tags_b)
    half = window.half_width_ticks(tags_a.tick_seconds)
    shift = delay_ticks(delay, tags_b.tick_seconds)
    return match_keys(tags_a.ticks << 2, (tags_b.ticks + shift) << 2 | 2, half)[1].size


class ChunkedPair:
    """An Alice and a Bob run of sorted keys that arrive in time chunks,
    handed on in stretches whose greedy matching is final.

    Bob's keys are shifted by ``shift`` ticks on arrival, which serves
    the delayed window.  A gap wider than the half window ends every
    match, so the matching of the tags before such a gap does not depend
    on any tag after it.  Each chunk is joined to the keys held from the
    previous one; the keys after the last such gap before the frontier
    are held again, and the rest is handed on.  Matching each stretch on
    its own then gives exactly the matches of the whole runs.
    """

    def __init__(self, half: int, shift: int = 0):
        self.half = half
        self.shift = shift
        self.held: tuple[np.ndarray, np.ndarray] | None = None

    def push(self, ka: np.ndarray, kb: np.ndarray,
             frontier: int | None) -> tuple[np.ndarray, np.ndarray]:
        """Add the next chunk of both runs, whose later keys all have a
        tick at or above ``frontier`` (None: there are none); returns the
        stretch of each run whose matches are now final, Bob's shifted."""
        if self.shift:
            kb = kb + (self.shift << 2)
        if self.held is not None:
            ka = _after(self.held[0], ka)
            kb = _after(self.held[1], kb)
        if frontier is None:
            self.held = None
            return ka, kb
        cut = _final_cut(ka, kb, min(frontier, frontier + self.shift), self.half) << 2
        ia, ib = int(np.searchsorted(ka, cut)), int(np.searchsorted(kb, cut))
        # Copies, so the few held keys do not keep the chunk alive.
        self.held = (ka[ia:].copy(), kb[ib:].copy())
        return ka[:ia], kb[:ib]


def _after(held: np.ndarray, new: np.ndarray) -> np.ndarray:
    return new if held.size == 0 else np.concatenate((held, new))


def _final_cut(ka: np.ndarray, kb: np.ndarray, bound: int, half: int) -> int:
    """Largest tick ``c <= bound`` such that every tag below ``c`` is more
    than ``half`` ticks from every tag at or above it.

    Every tag not yet seen lies at or above ``bound``.  ``c`` is the
    first tag after the last gap wider than ``half`` before ``bound``, or
    ``bound`` itself.  Only the last few tags of each run are looked at,
    more as needed.
    """
    ia = int(np.searchsorted(ka, bound << 2))
    ib = int(np.searchsorted(kb, bound << 2))
    m = 16
    while True:
        a0, b0 = max(ia - m, 0), max(ib - m, 0)
        ta, tb = ka[a0:ia] >> 2, kb[b0:ib] >> 2
        u = np.sort(np.concatenate((ta, tb, [bound])))
        # Below the earliest tag looked at of a run that has earlier
        # tags, the union is incomplete and its gaps are not real.
        floor = max(ta[0] if a0 else u[0], tb[0] if b0 else u[0])
        gaps = np.flatnonzero((np.diff(u) > half) & (u[:-1] >= floor))
        if gaps.size:
            return int(u[gaps[-1] + 1])
        if a0 == 0 and b0 == 0:
            return int(u[0])
        m *= 4
