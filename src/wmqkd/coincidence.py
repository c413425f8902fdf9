"""Coincidence identification and basis-resolved count tabulation.

Two tag streams are matched with a greedy earliest-first one-to-one
policy inside a symmetric timing window: tags pair when their time
difference is at most half the window, so the total window width equals
the configured value.  An accidental-rate estimator re-runs the match
kernel with one stream delayed far outside the window.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .detection import Basis, TagStream


@dataclass(frozen=True)
class CoincidenceWindow:
    """Symmetric coincidence timing window of total width ``t_c`` (s)."""

    t_c: float = 1e-9

    def __post_init__(self):
        if self.t_c <= 0:
            raise ValueError(f"t_c must be > 0, got {self.t_c}")

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
    half = _half_window_ticks(tags_a, tags_b, window)
    idx_a, idx_b = _match_indices(tags_a.ticks, tags_b.ticks, half)
    order = np.argsort(idx_a, kind="stable")
    return Matches(tags_a, tags_b, idx_a[order], idx_b[order])


def _half_window_ticks(tags_a: TagStream, tags_b: TagStream,
                       window: CoincidenceWindow) -> int:
    """Validate a stream pair for matching; the window's half width in
    their common ticks."""
    for s in (tags_a, tags_b):
        if not s.is_sorted():
            raise ValueError("input tag streams must be sorted")
    if tags_a.tick_seconds != tags_b.tick_seconds:
        raise ValueError("tick resolution mismatch between streams")
    return window.half_width_ticks(tags_a.tick_seconds)


def _match_indices(ta: np.ndarray, tb: np.ndarray, half: int):
    """Indices of the greedy matches of two sorted tick arrays, in no
    particular order."""
    na = ta.size
    e = np.empty(0, dtype=np.int64)
    if na == 0 or tb.size == 0:
        return e, e

    # Merge both streams in time order.  A match needs a chain of
    # consecutive gaps of at most the half window between its tags, so
    # only runs of such "close" links can hold matches; they are a small
    # share of the tags at realistic rates.
    t_all = np.concatenate([ta, tb])
    order = np.argsort(t_all, kind="stable")   # two sorted runs; ties put Alice first
    t_all = t_all[order]
    close = np.flatnonzero(np.diff(t_all) <= half)   # link k joins tags k and k + 1
    if close.size == 0:
        return e, e
    brk = np.flatnonzero(np.diff(close) != 1) + 1
    first = close[np.concatenate(([0], brk))]
    last = close[np.concatenate((brk - 1, [close.size - 1]))] + 1

    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []

    # Runs of one link with one tag per side match directly.
    single = last - first == 1
    early, late = order[first[single]], order[first[single] + 1]
    mixed = (early < na) != (late < na)
    early, late = early[mixed], late[mixed]
    a_first = early < na
    out_a.append(np.where(a_first, early, late))
    out_b.append(np.where(a_first, late, early) - na)

    # Longer runs fall back to the explicit greedy walk.
    for lo, hi in zip(first[~single].tolist(), last[~single].tolist()):
        seg = order[lo:hi + 1]
        ia = seg[seg < na]
        ib = seg[seg >= na] - na
        if ia.size and ib.size:
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
    bits_a = (oa & 1).astype(np.int64)
    bits_b = (ob & 1).astype(np.int64)
    cc = np.zeros((2, 2), dtype=np.int64)
    np.add.at(cc, (bits_a, bits_b), 1)
    if duration is None:
        duration = max(matches.tags_a.duration, matches.tags_b.duration)
    return CountsMatrix(basis, cc, channel_pair, duration)


def accidental_estimate(tags_a: TagStream, tags_b: TagStream,
                        window: CoincidenceWindow, delay: float) -> int:
    """Delayed-window accidental estimate.

    Counts the matches with Bob's stream shifted by ``delay`` (s); for
    uncorrelated streams the count is an unbiased estimate of
    ``S_A * S_B * t_c * duration``.  The delay must be much larger than
    both the window and the timing jitter.  The shift keeps Bob's order,
    so the streams are validated once, unshifted.
    """
    half = _half_window_ticks(tags_a, tags_b, window)
    shift = int(np.rint(delay / tags_b.tick_seconds))
    return _match_indices(tags_a.ticks, tags_b.ticks + shift, half)[0].size
