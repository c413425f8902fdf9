"""The per-channel Monte Carlo counting path, as the program ran it
before the channels of a chunk were batched, kept as the oracle of the
batched pass.

Each channel's chunk of jittered events passes its own detector emit
(one stable argsort of its times, one dead-time filter per port, a
stable lexsort of its shared ticks) and its own block counter (one
chunked matcher per window, each cutting its own stretch); the merged
baseline merges the channels' keys with one stable sort.  The batched
pass (``detection.emit_keys`` and ``simulate._BlockCounter``) must give
exactly what this gives, chunk by chunk.  :func:`tag_keys` packs a tag
stream into the keys the program's kernels take.
"""

import numpy as np

from wmqkd.coincidence import key_table, match_keys
from wmqkd.detection import KeyFrame


def tag_keys(tags, side):
    """A stream's packed int64 keys, ``tick << 2 | side << 1 | port``:
    ``side`` is 0 for Alice and 1 for Bob, and the port bit is the low
    bit of the outcome.  A canonical stream's keys are sorted when its
    detector ids rise with the port bit, as a module's and a merged
    stream's do."""
    keys = tags.ticks << 2
    keys |= tags.outcomes & 1
    if side:
        keys |= 2
    return keys


def dead_time_filter(times, dead, last=-np.inf):
    """Keep-mask of a non-paralyzable dead-time filter of one port; each
    cluster of three or more events is walked with ``searchsorted``."""
    keep = np.zeros(times.size, dtype=bool)
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


def port_dead_time_filter(times, port, dead, last):
    """One :func:`dead_time_filter` per port; ``last`` is updated."""
    keep = np.zeros(times.size, dtype=bool)
    for p in (0, 1):
        idx = np.flatnonzero(port == p)
        t = times[idx].astype(np.float64)
        k = dead_time_filter(t, dead, last[p])
        if k.any():
            last[p] = t[k.size - 1 - np.argmax(k[::-1])]
        keep[idx] = k
    return keep


class Carry:
    """One module's detector state across chunks."""

    def __init__(self):
        self.held = (np.empty(0), np.empty(0, np.int8), np.empty(0, bool))
        self.last_kept = np.full(2, -np.inf)
        self.frontier = None


def emit(t, bits, dark, tick, dead, carry, frontier, side):
    """One module's keys (``tick << 2 | side << 1 | port``) and dark
    flags below ``frontier``."""
    if carry.frontier is not None and t.size and np.rint(t.min() / tick) < carry.frontier:
        raise ValueError("jitter moved a tag below the frontier already emitted")
    held_t, held_bits, held_dark = carry.held
    t = np.concatenate([held_t, t])
    bits = np.concatenate([held_bits, bits])
    dark = np.concatenate([held_dark, dark])
    order = np.argsort(t, kind="stable")
    t, bits, dark = t[order], bits[order], dark[order]
    ticks = np.rint(t / tick).astype(np.int64)
    n = ticks.size if frontier is None else int(np.searchsorted(ticks, frontier))
    carry.held = (t[n:].copy(), bits[n:].copy(), dark[n:].copy())
    carry.frontier = frontier
    t, ticks, bits, dark = t[:n], ticks[:n], bits[:n], dark[:n]
    keep = np.flatnonzero(port_dead_time_filter(t, bits, dead, carry.last_kept))
    ticks, bits, dark = ticks[keep], bits[keep], dark[keep]
    order = np.lexsort((bits, ticks))
    return ticks[order] << 2 | bits[order].astype(np.int64) | side << 1, dark[order]


def merge(runs, dead, last):
    """One side's merged keys: one stable sort, one filter per port."""
    keys = np.concatenate(runs)
    keys.sort(kind="stable")
    return keys[port_dead_time_filter(keys >> 2, keys & 1, dead, last)]


class ChunkedPair:
    """One pipeline's Alice and Bob keys in chunks, handed on in stretches
    whose greedy matching is final (Bob's shifted by ``shift`` ticks)."""

    def __init__(self, half, shift=0):
        self.half, self.shift, self.held = half, shift, None

    def push(self, ka, kb, frontier):
        if self.shift:
            kb = kb + (self.shift << 2)
        if self.held is not None:
            ka = np.concatenate((self.held[0], ka))
            kb = np.concatenate((self.held[1], kb))
        if frontier is None:
            self.held = None
            return ka, kb
        cut = final_cut(ka, kb, min(frontier, frontier + self.shift), self.half) << 2
        ia, ib = int(np.searchsorted(ka, cut)), int(np.searchsorted(kb, cut))
        self.held = (ka[ia:], kb[ib:])
        return ka[:ia], kb[:ib]


def final_cut(ka, kb, bound, half):
    """Largest tick ``c <= bound`` such that every tag below ``c`` is more
    than ``half`` ticks from every tag at or above it."""
    ta = ka[ka < bound << 2] >> 2
    tb = kb[kb < bound << 2] >> 2
    u = np.sort(np.concatenate((ta, tb, [bound])))
    gaps = np.flatnonzero(np.diff(u) > half)
    return int(u[gaps[-1] + 1]) if gaps.size else int(u[0])


class Counter:
    """One pipeline's counts in one basis block: its table, its Alice and
    Bob tag counts and its delayed-window accidentals."""

    def __init__(self, half, delay):
        self.half = half
        self.matched, self.delayed = ChunkedPair(half), ChunkedPair(half, delay)
        self.cc = np.zeros((2, 2), np.int64)
        self.singles = [0, 0]
        self.accidentals = 0

    def count(self, ka, kb, frontier):
        self.singles[0] += ka.size
        self.singles[1] += kb.size
        a, b = self.matched.push(ka, kb, frontier)
        keys, pos_a, pos_b = match_keys(a, b, self.half)
        self.cc += key_table(keys, pos_a, pos_b, KeyFrame().bounds(keys))[0]
        a, b = self.delayed.push(ka, kb, frontier)
        self.accidentals += match_keys(a, b, self.half)[1].size


class Unit:
    """A basis unit of ``channels`` channels counted channel by channel,
    with the merged baseline when there are two or more."""

    def __init__(self, channels, detector, half, delay):
        self.tick, self.dead = detector.tick, detector.dead_time
        self.carries = [(Carry(), Carry()) for _ in range(channels)]
        self.counters = [Counter(half, delay) for _ in range(channels)]
        self.merged = Counter(half, delay) if channels >= 2 else None
        self.last = np.full(2, -np.inf), np.full(2, -np.inf)

    def push(self, draws, frontier):
        """Count one chunk of every channel's draws, ``(alice, bob)`` events
        per channel; returns each side's keys and dark flags per channel."""
        emitted = []
        for (alice, bob), carries, counter in zip(draws, self.carries, self.counters):
            out = [emit(*events, self.tick, self.dead, carry, frontier, side)
                   for side, (events, carry) in enumerate(zip((alice, bob), carries))]
            counter.count(out[0][0], out[1][0], frontier)
            emitted.append(out)
        if self.merged is not None:
            self.merged.count(*(merge([out[side][0] for out in emitted],
                                      self.dead / self.tick, self.last[side])
                                for side in (0, 1)), frontier)
        return emitted

    def rows(self):
        """Each pipeline's (table, Alice tags, Bob tags, accidentals),
        the channels' and then the merged baseline's."""
        counters = self.counters + ([self.merged] if self.merged else [])
        return [(c.cc, *c.singles, c.accidentals) for c in counters]
