"""Coincidence identification and basis-resolved count tabulation.

Two tag streams are matched with a greedy earliest-first one-to-one
policy inside a symmetric timing window: tags pair when their time
difference is at most half the window, so the total window width equals
the configured value.  An accidental-rate estimator counts the matches
with one stream delayed far outside the window.  Streams that arrive in
time chunks are matched stretch by stretch (:class:`ChunkedPair`), with
exactly the result of matching them whole.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .detection import Basis, TagStream, _chain


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
    (tick, detector_id) stream order.  Runs in O(n) by splitting the
    merged timeline at gaps larger than the half window, inside which no
    match can cross.
    """
    _check_pair(tags_a, tags_b)
    half = window.half_width_ticks(tags_a.tick_seconds)
    idx_a, idx_b = _match_indices(tags_a.ticks, tags_b.ticks, half)
    order = np.argsort(idx_a, kind="stable")
    return Matches(tags_a, tags_b, idx_a[order], idx_b[order])


def _check_pair(tags_a: TagStream, tags_b: TagStream):
    """Raise unless both streams are in canonical order and share one
    tick."""
    for s in (tags_a, tags_b):
        if not s.is_sorted():
            raise ValueError("input tag streams must be sorted")
    if tags_a.tick_seconds != tags_b.tick_seconds:
        raise ValueError("tick resolution mismatch between streams")


def _close_runs(ta: np.ndarray, tb: np.ndarray, half: int):
    """The merged time order of two sorted tick arrays and its runs of
    close links, or None when no run exists.

    A match needs a chain of consecutive gaps of at most the half window
    between its tags, so only runs of such "close" links can hold
    matches; they are a small share of the tags at realistic rates.
    Returns ``(order, first, last)``: ``order`` indexes the concatenation
    of ``ta`` and ``tb``, and each run spans ``order[first[i]:last[i] + 1]``.
    """
    if ta.size == 0 or tb.size == 0:
        return None
    t_all = np.concatenate([ta, tb])
    order = np.argsort(t_all, kind="stable")   # two sorted runs; ties put Alice first
    t_all = t_all[order]
    close = np.flatnonzero(np.diff(t_all) <= half)   # link k joins tags k and k + 1
    if close.size == 0:
        return None
    brk = np.flatnonzero(np.diff(close) != 1) + 1
    first = close[np.concatenate(([0], brk))]
    last = close[np.concatenate((brk - 1, [close.size - 1]))] + 1
    return order, first, last


def _match_indices(ta: np.ndarray, tb: np.ndarray, half: int):
    """Indices of the greedy matches of two sorted tick arrays, in no
    particular order.

    A run of one close link that joins an Alice and a Bob tag is one
    match; each longer run falls back to the explicit greedy walk over
    its Alice and Bob tags.
    """
    e = np.empty(0, dtype=np.int64)
    runs = _close_runs(ta, tb, half)
    if runs is None:
        return e, e
    order, first, last = runs
    na = ta.size
    single = last - first == 1
    early, late = order[first[single]], order[first[single] + 1]
    mixed = (early < na) != (late < na)
    early, late = early[mixed], late[mixed]
    a_first = early < na
    out_a = [np.where(a_first, early, late)]
    out_b = [np.where(a_first, late, early) - na]
    for lo, hi in zip(first[~single].tolist(), last[~single].tolist()):
        seg = order[lo:hi + 1]
        ia = seg[seg < na]
        ib = seg[seg >= na] - na
        sub_a, sub_b = _greedy_two_pointer(ta[ia], tb[ib], half)
        if sub_a:
            out_a.append(ia[np.asarray(sub_a)])
            out_b.append(ib[np.asarray(sub_b)])
    return np.concatenate(out_a), np.concatenate(out_b)


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
    want = basis is Basis.DA
    if ((oa >= 2) != want).any() or ((ob >= 2) != want).any():
        raise ValueError(f"matched outcomes are not all in the {basis.value} basis")
    cell = 2 * (oa & 1).astype(np.intp) + (ob & 1)
    cc = np.bincount(cell, minlength=4).reshape(2, 2)
    if duration is None:
        duration = max(matches.tags_a.duration, matches.tags_b.duration)
    return CountsMatrix(basis, cc, channel_pair, duration)


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
    return _match_indices(tags_a.ticks, tags_b.ticks + shift, half)[0].size


class ChunkedPair:
    """An Alice and a Bob tag stream that arrive in time chunks, handed on
    in stretches whose greedy matching is final.

    A gap wider than the half window ends every match, so the matching of
    the tags before such a gap does not depend on any tag after it.  Each
    chunk is joined to the tags held from the previous one; the tags
    after the last such gap before the frontier are held again, and the
    rest is handed on.  Matching each stretch on its own then gives
    exactly the matches of the whole streams.  Bob's ticks are compared
    shifted by ``shift``, which serves the delayed window.
    """

    def __init__(self, half: int, shift: int = 0):
        self.half = half
        self.shift = shift
        self.held: tuple[TagStream, TagStream] | None = None

    def push(self, alice: TagStream, bob: TagStream,
             frontier: int | None) -> tuple[TagStream, TagStream]:
        """Add the next chunk of both streams, whose later tags all lie at
        or above the ``frontier`` tick (None: there are none); returns the
        stretch of each stream whose matches are now final."""
        if self.held is not None:
            alice = _after(self.held[0], alice)
            bob = _after(self.held[1], bob)
        if frontier is None:
            self.held = None
            return alice, bob
        cut = _final_cut(alice.ticks, bob.ticks, self.shift,
                         min(frontier, frontier + self.shift), self.half)
        ia = int(np.searchsorted(alice.ticks, cut))
        ib = int(np.searchsorted(bob.ticks, cut - self.shift))
        # Copies, so the few held tags do not keep the chunk alive.
        self.held = (alice.take(np.arange(ia, len(alice))),
                     bob.take(np.arange(ib, len(bob))))
        return alice.take(slice(None, ia)), bob.take(slice(None, ib))


def _after(held: TagStream, new: TagStream) -> TagStream:
    return new if len(held) == 0 else _chain([held, new])


def _final_cut(ta: np.ndarray, tb: np.ndarray, shift: int, bound: int,
               half: int) -> int:
    """Largest tick ``c <= bound`` such that every tag below ``c`` is more
    than ``half`` ticks from every tag at or above it.

    Bob's ticks count shifted by ``shift``, and every tag not yet seen
    lies at or above ``bound``.  ``c`` is the first tag after the last
    gap wider than ``half`` before ``bound``, or ``bound`` itself.  Only
    the last few tags of each stream are looked at, more as needed.
    """
    ia = int(np.searchsorted(ta, bound))
    ib = int(np.searchsorted(tb, bound - shift))
    m = 16
    while True:
        a0, b0 = max(ia - m, 0), max(ib - m, 0)
        u = np.sort(np.concatenate((ta[a0:ia], tb[b0:ib] + shift, [bound])))
        # Below the earliest tag looked at of a stream that has earlier
        # tags, the union is incomplete and its gaps are not real.
        floor = max(ta[a0] if a0 else u[0], tb[b0] + shift if b0 else u[0])
        gaps = np.flatnonzero((np.diff(u) > half) & (u[:-1] >= floor))
        if gaps.size:
            return int(u[gaps[-1] + 1])
        if a0 == 0 and b0 == 0:
            return int(u[0])
        m *= 4
