"""Chunking is exact: the reducers fed a record in time chunks give
exactly what they give on the whole record, and what the brute-force
oracles give.  Hand-built streams are cut at arbitrary ticks, which
lands cuts inside close-link runs of the matcher, inside dead-time
clusters, across tags that jitter carried over a chunk's end and across
Bob's shifted stream of the delayed window."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from test_coincidence import brute_force_greedy, make_tags
from test_kernels import (TICK, brute_force_merge_side, fixed_point_dead_time_filter,
                          module_streams, sorted_ticks)
from wmqkd.calibration import DEFAULT_DETECTOR, FROZEN_CALIBRATION
from wmqkd.channels import build_grid_plan
from wmqkd.coincidence import (ChunkedPair, CoincidenceWindow, accidental_estimate,
                               find_coincidences, tabulate)
from wmqkd.detection import (Basis, DetectorCarry, DetectorConfig, _chain, _emit,
                             _port_dead_time_filter, emit_frontier)
import wmqkd.simulate as simulate
from wmqkd.simulate import (MERGED_LABEL, _merge_side, block_chunks, resolve_channels,
                            simulate_basis, simulate_channel_block)

cut_ticks = st.lists(st.integers(-5, 405), max_size=8).map(sorted)


def pieces(stream, cuts):
    """The stream's tags in ``[-inf, c0), [c0, c1), ..., [c_last, inf)``."""
    edges = np.searchsorted(stream.ticks, cuts).tolist()
    return [stream.take(slice(lo, hi))
            for lo, hi in zip([0] + edges, edges + [len(stream)])]


def frontiers(cuts):
    return list(cuts) + [None]


def chunked_matches(pair, a, b, cuts, reduce):
    """Feed both streams to ``pair`` chunk by chunk; ``reduce`` each
    handed-on stretch together with its offsets in the whole streams."""
    out = []
    off_a = off_b = 0
    for pa, pb, frontier in zip(pieces(a, cuts), pieces(b, cuts), frontiers(cuts)):
        ra, rb = pair.push(pa, pb, frontier)
        out.append(reduce(ra, rb, off_a, off_b))
        off_a += len(ra)
        off_b += len(rb)
    assert (off_a, off_b) == (len(a), len(b)), "every tag is handed on once"
    return out


@given(sorted_ticks, sorted_ticks, st.integers(0, 30), cut_ticks)
@example(ta=[10, 14, 30], tb=[12, 16, 31], half=3, cuts=[13, 15, 31])
def test_chunked_matching_equals_one_shot(ta, tb, half, cuts):
    a, b = make_tags(ta), make_tags(tb)
    window = CoincidenceWindow((2 * half + 1) * TICK)

    def pairs(ra, rb, off_a, off_b):
        m = find_coincidences(ra, rb, window)
        return [(off_a + i, off_b + j) for i, j in zip(m.idx_a.tolist(), m.idx_b.tolist())]

    got = sorted(p for part in chunked_matches(ChunkedPair(half), a, b, cuts, pairs)
                 for p in part)
    whole = find_coincidences(a, b, window)
    assert got == sorted(zip(whole.idx_a.tolist(), whole.idx_b.tolist()))
    assert got == brute_force_greedy(np.asarray(ta, np.int64), np.asarray(tb, np.int64), half)


@given(sorted_ticks, sorted_ticks, st.integers(0, 3), st.integers(-500, 500), cut_ticks)
@example(ta=[100, 300], tb=[60, 99, 260], half=2, shift=40, cuts=[101, 200, 299])
def test_chunked_delayed_window_equals_one_shot(ta, tb, half, shift, cuts):
    a, b = make_tags(ta), make_tags(tb)
    window = CoincidenceWindow((2 * half + 1) * TICK)

    def count(ra, rb, off_a, off_b):
        return accidental_estimate(ra, rb, window, shift * TICK)

    got = sum(chunked_matches(ChunkedPair(half, shift), a, b, cuts, count))
    assert got == accidental_estimate(a, b, window, shift * TICK)
    shifted = np.asarray(tb, np.int64) + shift
    assert got == len(brute_force_greedy(np.asarray(ta, np.int64), shifted, half))


@given(st.lists(st.integers(0, 300), max_size=80).map(sorted),
       st.lists(st.integers(0, 1), min_size=80, max_size=80),
       st.floats(0.0, 40.0), st.lists(st.integers(0, 300), max_size=6).map(sorted))
def test_chunked_dead_time_equals_one_shot(int_times, ports, dead, cuts):
    # Integer-valued times make exact ties and exact dead-time spacings,
    # and cuts inside the clusters they form.
    times = np.asarray(int_times, float)
    port = np.asarray(ports[:times.size], np.int8)
    last = np.full(2, -np.inf)
    edges = np.searchsorted(times, cuts).tolist()
    got = np.concatenate([
        _port_dead_time_filter(times[lo:hi], port[lo:hi], dead, 2, last)
        for lo, hi in zip([0] + edges, edges + [times.size])
    ])
    assert np.array_equal(got, _port_dead_time_filter(times, port, dead, 2,
                                                      np.full(2, -np.inf)))
    for p in (0, 1):
        assert np.array_equal(got[port == p],
                              fixed_point_dead_time_filter(times[port == p], dead))


@given(module_streams(), st.integers(0, 40), cut_ticks)
def test_chunked_merge_equals_one_shot(streams, dead_int, cuts):
    dead = dead_int * TICK
    last = np.full(2, -np.inf)
    parts = [_merge_side(list(chunk), dead, 1000, last)
             for chunk in zip(*(pieces(s, cuts) for s in streams))]
    got = _chain(parts)
    whole = _merge_side(streams, dead, 1000, np.full(2, -np.inf))
    for field in ("ticks", "outcomes", "detector_ids", "channel_indices", "dark"):
        assert np.array_equal(getattr(got, field), getattr(whole, field))
    assert got.is_sorted()
    assert list(zip(got.ticks.tolist(), got.detector_ids.tolist(),
                    got.channel_indices.tolist(), got.dark.tolist())) == \
        brute_force_merge_side(streams, dead_int, 1000)


# Tick 1 and a jitter of 0.1 ticks: the margin before a chunk's end is 4.
JITTERY = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.1,
                         dead_time=0.0, tick=1.0)


@st.composite
def jittered_record(draw):
    """Arrivals on a quarter-tick grid (exact ties), each moved by up to
    the margin, and the chunk ends that cut them."""
    arrivals = sorted(draw(st.lists(st.integers(0, 400), max_size=60)))
    n = len(arrivals)
    jitter = draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    ends = sorted(draw(st.lists(st.integers(1, 100), max_size=5)))
    return (np.asarray(arrivals, float) / 4.0, np.asarray(jitter), np.asarray(bits, np.int8),
            np.asarray(ends, float), draw(st.floats(0.0, 6.0)))


@given(jittered_record())
def test_chunked_detector_equals_one_shot(record):
    arrivals, jitter, bits, ends, dead = record
    config = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.1,
                            dead_time=dead, tick=1.0)
    dark = bits == 1
    t = arrivals + jitter

    def emit(sel, carry, frontier):
        return _emit(t[sel], bits[sel], dark[sel], config, 3, Basis.DA, (4, 5),
                     1.0, carry, frontier)

    carry = DetectorCarry()
    edges = np.searchsorted(arrivals, ends).tolist()
    fronts = [emit_frontier(config, e) for e in ends] + [None]
    parts = [emit(slice(lo, hi), carry, f)
             for lo, hi, f in zip([0] + edges, edges + [t.size], fronts)]
    got = _chain(parts)
    whole = emit(slice(None), DetectorCarry(), None)
    for field in ("ticks", "outcomes", "detector_ids", "dark"):
        assert np.array_equal(getattr(got, field), getattr(whole, field))
    assert got.is_sorted()


def test_jitter_past_the_margin_raises():
    carry = DetectorCarry()
    frontier = emit_frontier(JITTERY, 20.0)   # 16: the margin is 4 ticks
    out = _emit(np.array([10.0, 17.0]), np.zeros(2, np.int8), np.zeros(2, bool),
                JITTERY, 0, Basis.HV, (0, 1), 1.0, carry, frontier)
    assert out.ticks.tolist() == [10]
    with pytest.raises(ValueError, match="frontier"):
        _emit(np.array([15.0]), np.zeros(1, np.int8), np.zeros(1, bool),
              JITTERY, 0, Basis.HV, (0, 1), 1.0, carry, None)


def test_chunked_block_counts_equal_one_shot_reduction(monkeypatch):
    # Small chunks so that a short block spans many; the chunks' tags,
    # joined and reduced at once, must give the unit's counts exactly.
    monkeypatch.setattr(simulate, "CHUNK_TAGS", 1000)
    plan, _ = build_grid_plan(805.0, 815.0, 400e9, 50e9, 810.05)
    chans = resolve_channels(FROZEN_CALIBRATION.source(), plan, 10.0,
                             brightness_scale=20.0)
    window, delay, block, seed = CoincidenceWindow(1e-9), simulate.ACCIDENTAL_DELAY, 0.01, 21
    chunks = list(block_chunks(chans, DEFAULT_DETECTOR, block))
    assert len(chunks) > 10 and chunks[-1].end == block
    assert all(a.end == b.start for a, b in zip(chunks, chunks[1:]))
    got = simulate_basis(chans, Basis.DA, DEFAULT_DETECTOR, window, block, seed)

    alice, bob = [], []
    for slot, ch in enumerate(chans):
        carry = (DetectorCarry(), DetectorCarry())
        blks = [simulate_channel_block(ch, Basis.DA, DEFAULT_DETECTOR, block, seed,
                                       slot, chunk, carry) for chunk in chunks]
        alice.append(_chain([b.alice for b in blks]))
        bob.append(_chain([b.bob for b in blks]))
    merged = (_merge_side(alice, DEFAULT_DETECTOR.dead_time, 1000, np.full(2, -np.inf)),
              _merge_side(bob, DEFAULT_DETECTOR.dead_time, 1100, np.full(2, -np.inf)))
    for key, a, b in [(ch.index, a, b) for ch, a, b in zip(chans, alice, bob)] \
            + [(MERGED_LABEL, *merged)]:
        assert a.is_sorted() and b.is_sorted()
        counts = got[key]
        assert np.array_equal(counts.counts.cc,
                              tabulate(find_coincidences(a, b, window), Basis.DA).cc)
        assert counts.accidentals == accidental_estimate(a, b, window, delay)
        assert (counts.singles_alice, counts.singles_bob) == (len(a), len(b))
    assert got[MERGED_LABEL].counts.total > 0
