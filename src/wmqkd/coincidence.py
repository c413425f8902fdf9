"""Coincidence identification and basis-resolved count tabulation.

Two tag streams are matched with a greedy earliest-first one-to-one
policy inside a symmetric timing window: tags pair when their time
difference is at most half the window, so the total window width equals
the configured value.  An accidental-rate estimator counts the matches
with one stream delayed far outside the window.

Tags are matched as packed int64 keys, ``tick << 2 | side << 1 | port``:
side 0 is Alice and 1 is Bob, and the port bit is the low bit of the
outcome.  There is one matcher kernel, :meth:`ChunkedPair.push`: it
sorts the Alice and Bob keys into one run and walks it on ``key >> 2``.
Only runs of close links can hold matches, and all of them are walked by
one greedy walk.  The key order is the tie order of the greedy policy:
on a shared tick Alice comes first, and each side keeps its own
canonical (tick, detector_id) order, because a module's two detector ids
rise with the port bit.  Keys that arrive in time chunks are matched
stretch by stretch, with exactly the result of matching them whole; they
may hold many channels, each in its own slot of a
:class:`detection.KeyFrame`, and a match counts in its slot.
:func:`match_keys` matches two whole runs as one chunk.  The Monte Carlo
counters read each match's 2x2 cell from the port bits and count the
delayed window as the same walk with Bob's keys shifted;
:func:`find_coincidences` and :func:`accidental_estimate` pack a zero
port bit, which leaves each side's ties in stream order, and call the
same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import Basis, KeyFrame, TagStream, _check_pair, _close_links, _ranges


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


def _greedy_two_pointer(ta, tb, half: int):
    """Exact greedy earliest-first matching of two sorted integer
    sequences (Python lists walk fastest).

    At each step the globally earliest unmatched tag is paired with the
    earliest (hence nearest eligible) unused tag of the other stream
    within ``half``, or discarded if none exists.
    """
    out_a, out_b = [], []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        d = tb[j] - ta[i]
        if d > half:
            i += 1
        elif d < -half:
            j += 1
        else:
            out_a.append(i)
            out_b.append(j)
            i += 1
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


def match_keys(ka: np.ndarray, kb: np.ndarray, half: int):
    """The greedy matches of a sorted run of Alice keys and one of Bob
    keys whose ticks match within ``half``: both runs as one chunk of a
    :class:`ChunkedPair`, with what :meth:`ChunkedPair.push` returns."""
    return ChunkedPair(half).push(ka, kb, None)


def _close_runs(keys: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """The first and last position of each run of "close" links in sorted
    keys: consecutive tags whose ticks differ by at most ``half``.  A
    match needs a chain of close links between its tags, so only these
    runs can hold matches; they are a small share of the tags at
    realistic rates."""
    # Link k joins tags k and k + 1.  Two keys more than 4·half + 3 apart
    # are more than half a window apart; the few links within that are
    # tested on their ticks.
    close = _close_links(keys, 4 * half + 3)
    close = close[(keys[close + 1] >> 2) - (keys[close] >> 2) <= half]
    if close.size == 0:
        return close, close
    brk = np.flatnonzero(np.diff(close) != 1) + 1
    first = close[np.concatenate(([0], brk))]
    last = close[np.concatenate((brk - 1, [close.size - 1]))] + 1
    return first, last


def _walk(keys: np.ndarray, first: np.ndarray, last: np.ndarray, half: int):
    """The greedy matches inside the runs of close links ``[first, last]``
    of sorted keys, as the positions of their Alice and Bob tags.

    A run of one link that joins an Alice and a Bob tag is one match.
    The runs of two or more links are walked all at once, by one greedy
    walk over their Alice and their Bob tags: the runs are more than
    ``half`` apart, so wherever the walk's two pointers sit in different
    runs it only advances the earlier one, and each run is matched as on
    its own.
    """
    single = last - first == 1
    early = first[single]
    bob_first = keys[early] & 2
    mixed = bob_first != keys[early + 1] & 2
    early, a_first = early[mixed], bob_first[mixed] == 0
    idx = _ranges(first[~single], last[~single] + 1)
    bob = keys[idx] & 2 != 0
    ia, ib = idx[~bob], idx[bob]
    sub_a, sub_b = _greedy_two_pointer((keys[ia] >> 2).tolist(), (keys[ib] >> 2).tolist(),
                                       half)
    return (np.concatenate((np.where(a_first, early, early + 1), ia[sub_a])),
            np.concatenate((np.where(a_first, early + 1, early), ib[sub_b])))


def key_table(keys: np.ndarray, pos_a: np.ndarray, pos_b: np.ndarray,
              bounds: np.ndarray) -> np.ndarray:
    """The 2x2 tables of matches read from their port bits, one per slot
    of the keys (``bounds``, :meth:`detection.KeyFrame.bounds`): Alice's
    bit picks the row and Bob's the column, and a match counts in the
    slot of its keys."""
    cell = 2 * (keys[pos_a] & 1) + (keys[pos_b] & 1)
    cell += 4 * (np.searchsorted(bounds, pos_a, side="right") - 1)
    return np.bincount(cell, minlength=4 * (bounds.size - 1)).reshape(-1, 2, 2)


@dataclass
class CountsMatrix:
    """Coincidence counts per joint outcome in one basis block.

    ``cc[i, j]`` counts coincidences with Alice outcome bit ``i`` and
    Bob outcome bit ``j`` (bit 0 = H or D, bit 1 = V or A).
    """

    basis: Basis
    cc: np.ndarray
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


def tabulate(matches: Matches, basis: Basis, duration: float | None = None) -> CountsMatrix:
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
    return CountsMatrix(basis, cc, duration)


def check_basis(basis: Basis, *outcomes: np.ndarray):
    """Raise unless every outcome belongs to ``basis``."""
    want = basis is Basis.DA
    if any(((o >= 2) != want).any() for o in outcomes):
        raise ValueError(f"outcomes are not all in the {basis.value} basis")


def delay_ticks(delay: float, tick_seconds: float) -> int:
    """A delay (s) as a whole number of ticks; ValueError unless that
    number is finite."""
    ticks = delay / tick_seconds
    if not math.isfinite(ticks):
        raise ValueError(f"delay must be finite in ticks of {tick_seconds:g} s, got {delay} s")
    return int(np.rint(ticks))


def accidental_estimate(tags_a: TagStream, tags_b: TagStream,
                        window: CoincidenceWindow, delay: float) -> int:
    """Delayed-window accidental estimate.

    Counts the matches with Bob's stream shifted by ``delay`` (s); for
    uncorrelated streams the count is an unbiased estimate of
    ``S_A * S_B * t_c * duration``.  The delay must be much larger than
    both the window and the timing jitter.  The shift keeps Bob's order,
    so the streams are validated once, with Bob's ticks bounded after the
    shift.
    """
    shift = delay_ticks(delay, tags_b.tick_seconds)
    _check_pair(tags_a, tags_b, shift)
    half = window.half_width_ticks(tags_a.tick_seconds)
    return match_keys(tags_a.ticks << 2, (tags_b.ticks + shift) << 2 | 2, half)[1].size


class ChunkedPair:
    """An Alice and a Bob run of sorted keys that arrive in time chunks,
    matched stretch by stretch as each stretch becomes final.

    The keys may hold the slots of a :class:`detection.KeyFrame`,
    ``frame``, one after the other; no match joins two slots.  Bob's keys
    are shifted by ``shift`` ticks on arrival, which serves the delayed
    window.  A gap wider than the half window ends every match, so the
    matching of the tags before such a gap does not depend on any tag
    after it.  Each chunk is joined
    to the keys held from the previous one; in each slot the keys
    after the last such gap before the frontier are held again, and the
    runs of close links before it are matched.  Matching each stretch on
    its own then gives exactly the matches of the whole runs.
    """

    def __init__(self, half: int, shift: int = 0, frame: KeyFrame = KeyFrame()):
        self.half = half
        self.shift = shift
        self.frame = frame
        self.held = np.empty(0, dtype=np.int64)

    def push(self, ka: np.ndarray, kb: np.ndarray, frontier: int | None):
        """Add the next chunk of both runs, whose later tags all have a
        tick at or above ``frontier`` (None: there are none).  Returns
        ``(keys, pos_a, pos_b)``: the held and the new keys, Bob's
        shifted, in one sort (numpy's stable sort merges sorted runs
        cheaply), and the positions in it of the Alice and Bob tag of each
        match that is now final, in no particular order.  On a shared
        tick the keys put Alice first and keep each side's own order, the
        tie order of the greedy policy.  The keys of no returned match are
        held for the next chunk."""
        keys = np.concatenate((self.held, ka, kb))
        if self.shift:
            keys[keys.size - kb.size:] += self.shift << 2   # the held keys are shifted
        keys.sort(kind="stable")
        first, last = _close_runs(keys, self.half)
        if frontier is None:
            self.held = np.empty(0, dtype=np.int64)
        else:
            ends = self.frame.bounds(keys)[1:]
            cut = _final_cut(keys, first, last, min(frontier, frontier + self.shift)
                             + self.frame.offsets(), self.half)
            self.held = keys[_ranges(cut, ends)]
            final = first < cut[np.searchsorted(ends, first, side="right")]
            first, last = first[final], last[final]
        return (keys, *_walk(keys, first, last, self.half))


def _final_cut(keys: np.ndarray, first: np.ndarray, last: np.ndarray,
               bound: np.ndarray, half: int) -> np.ndarray:
    """For each slot's ``bound`` key tick, the first position of sorted
    ``keys`` after the last gap wider than ``half`` before the bound, or
    the bound's own position: every tag before it is more than ``half``
    ticks from every tag at or after it and from every tick at or above
    the bound.  ``first`` and ``last`` are the keys' runs of close links
    (:func:`_close_runs`).  The cut is at the bound unless the last tag
    below it lies within ``half`` of it; then it is at the first tag of
    that tag's run."""
    cut = np.searchsorted(keys, bound << 2)
    prev = cut - 1
    near = prev >= 0
    near[near] = bound[near] - (keys[prev[near]] >> 2) <= half
    cut[near] = prev[near]
    if first.size:
        run = np.searchsorted(first, prev, side="right") - 1
        inside = near & (run >= 0)
        inside[inside] = last[run[inside]] >= prev[inside]
        cut[inside] = first[run[inside]]
    return cut
