"""Chunking is exact: the reducers fed a record in time chunks give
exactly what they give on the whole record, and what the brute-force
oracles give.  Hand-built streams are cut at arbitrary ticks, which
lands cuts inside close-link runs of the matcher, inside dead-time
clusters, across tags that jitter carried over a chunk's end and across
Bob's shifted stream of the delayed window.  The matcher and the merge
are fed packed tag keys, as the block counters feed them."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from per_channel_oracle import tag_keys
from test_coincidence import brute_force_greedy, make_tags
from test_kernels import (TICK, fixed_point_dead_time_filter, key_projection,
                          merged_projection, module_streams, port_streams)
from wmqkd.calibration import DEFAULT_DETECTOR, FROZEN_CALIBRATION
from wmqkd.channels import build_grid_plan
from wmqkd.coincidence import (ChunkedPair, CoincidenceWindow, accidental_estimate,
                               find_coincidences, match_keys, tabulate)
from wmqkd.detection import (Basis, DetectorCarry, DetectorConfig, TagStream, _chain,
                             _emit, _links, _port_dead_time_filter, _sparse_dead_time_filter,
                             emit_frontier, merge_keys)
import wmqkd.simulate as simulate
from wmqkd.simulate import block_chunks, resolve_channels, simulate_basis, simulate_channel_block

cut_ticks = st.lists(st.integers(-25, 405), max_size=8).map(sorted)


def pieces(keys, cuts):
    """The keys whose ticks lie in ``[-inf, c0), [c0, c1), ..., [c_last, inf)``."""
    edges = np.searchsorted(keys, np.asarray(cuts, np.int64) << 2).tolist()
    return [keys[lo:hi] for lo, hi in zip([0] + edges, edges + [keys.size])]


def frontiers(cuts):
    return list(cuts) + [None]


def chunked(pair, ka, kb, cuts, reduce):
    """Feed both key runs to ``pair`` chunk by chunk and ``reduce`` the
    final matches of each push, given as its keys (Bob's shifted) and the
    matches' positions."""
    out, handed = [], []
    for pa, pb, frontier in zip(pieces(ka, cuts), pieces(kb, cuts), frontiers(cuts)):
        keys, pos_a, pos_b = pair.push(pa, pb, frontier)
        # One segment: the keys held for the next push are the last ones,
        # and no final match involves them.
        final = keys.size - pair.held.size
        assert np.array_equal(keys[final:], pair.held)
        assert np.all(pos_a < final) and np.all(pos_b < final)
        out.append(reduce(keys, pos_a, pos_b))
        handed.append(keys[:final])
    # Every key is handed on once, in order.
    assert np.array_equal(np.concatenate(handed),
                          np.sort(np.concatenate((ka, kb + (pair.shift << 2)))))
    return out


def matched_keys(ka, kb, half):
    """The (Alice key, Bob key) of each greedy match."""
    return match_pairs(*match_keys(ka, kb, half))


def match_pairs(keys, pos_a, pos_b):
    return list(zip(keys[pos_a].tolist(), keys[pos_b].tolist()))


@given(port_streams(), port_streams(), st.integers(0, 30), cut_ticks)
@example(a=make_tags([10, 14, 30]), b=make_tags([12, 16, 31]), half=3, cuts=[13, 15, 31])
def test_chunked_matching_equals_one_shot(a, b, half, cuts):
    ka, kb = tag_keys(a, 0), tag_keys(b, 1)
    got = sorted(p for part in chunked(ChunkedPair(half), ka, kb, cuts, match_pairs)
                 for p in part)
    assert got == sorted(matched_keys(ka, kb, half))
    la, lb = ka.tolist(), kb.tolist()
    assert got == sorted((la[i], lb[j]) for i, j in brute_force_greedy(a.ticks, b.ticks, half))


@given(port_streams(), port_streams(), st.integers(0, 3), st.integers(-500, 500), cut_ticks)
@example(a=make_tags([100, 300]), b=make_tags([60, 99, 260]), half=2, shift=40,
         cuts=[101, 200, 299])
def test_chunked_delayed_window_equals_one_shot(a, b, half, shift, cuts):
    ka, kb = tag_keys(a, 0), tag_keys(b, 1)

    got = sum(chunked(ChunkedPair(half, shift), ka, kb, cuts,
                      lambda keys, pos_a, pos_b: pos_a.size))
    window = CoincidenceWindow((2 * half + 1) * TICK)
    assert got == accidental_estimate(a, b, window, shift * TICK)
    assert got == len(brute_force_greedy(a.ticks, b.ticks + shift, half))


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
        _port_dead_time_filter(times[lo:hi], port[lo:hi], dead, last, np.zeros(1, np.intp))
        for lo, hi in zip([0] + edges, edges + [times.size])
    ])
    assert np.array_equal(got, _port_dead_time_filter(times, port, dead, np.full(2, -np.inf),
                                                      np.zeros(1, np.intp)))
    for p in (0, 1):
        assert np.array_equal(got[port == p],
                              fixed_point_dead_time_filter(times[port == p], dead))


@st.composite
def segmented_ports(draw):
    """Events of 1 to 4 segments, each sorted by time, as (time, label)
    with label 2 in no port's filter, and the cuts between chunks."""
    events = st.lists(st.tuples(st.integers(0, 60), st.integers(0, 2)), max_size=20)
    segments = [sorted(draw(events)) for _ in range(draw(st.integers(1, 4)))]
    return segments, sorted(draw(st.lists(st.integers(0, 60), max_size=4)))


@given(segmented_ports(), st.floats(0.0, 10.0))
@example(  # an empty segment, and one whose last event in a chunk is dropped
    record=([[(0, 0), (3, 0)], [], [(0, 1), (1, 1), (5, 1)]], [2, 4]), dead=2.0)
def test_segmented_dead_time_in_chunks_equals_per_segment_walk(record, dead):
    segments, cuts = record
    last = np.full((2, len(segments)), -np.inf)
    want_last = last.copy()
    edges = [-np.inf] + cuts + [np.inf]
    for lo, hi in zip(edges, edges[1:]):
        chunk = [[e for e in seg if lo <= e[0] < hi] for seg in segments]
        starts = np.cumsum([0] + [len(c) for c in chunk[:-1]])
        times = np.array([t for c in chunk for t, _ in c], float)
        port = np.array([p for c in chunk for _, p in c], np.int8)
        keep = _port_dead_time_filter(times, port, dead, last, starts)
        want = []
        for g, c in enumerate(chunk):
            for t, p in c:
                want.append(p < 2 and t > want_last[p, g] + dead)
                if want[-1]:
                    want_last[p, g] = t
        assert keep.tolist() == want
        assert np.array_equal(last, want_last)


# Segments of the sparse dead-time kernel lie this many ticks apart.
SEGMENT_TICKS = 1 << 20


@st.composite
def sparse_records(draw):
    """Events of 1 to 4 segments, some empty, as (tick, offset, port): the
    offset in 64ths of a tick, within half a tick, so that two ports may
    swap time order on one tick; or 0 in every event, the times then being
    the ticks.  Each segment's events from its frontier tick on are held
    (a frontier past every tick: none), and each port of each segment
    carries a last kept time from earlier chunks, or -inf.  Ticks over a
    few ticks make bursts where every link is close.  Every tick and time
    is moved by the same base: 0, or 2**54, where float64 times lie 4
    ticks apart."""
    hi = draw(st.sampled_from([4, 40, 400]))
    frac = st.integers(-31, 31) if draw(st.booleans()) else st.just(0)
    event = st.tuples(st.integers(0, hi), frac, st.integers(0, 1))
    segments = [draw(st.lists(event, max_size=30)) for _ in range(draw(st.integers(1, 4)))]
    stops = [draw(st.integers(0, hi + 1)) for _ in segments]
    last = st.one_of(st.just(-np.inf), st.builds(lambda k, j: k + j / 64,
                                                 st.integers(-10, hi), frac))
    return (segments, stops, [(draw(last), draw(last)) for _ in segments],
            draw(st.sampled_from([0, 2 ** 54])))


# Offsets in 64ths of a tick and dead times in 8ths are exact floats.
dead_ticks = st.one_of(st.integers(0, 160).map(lambda k: k / 8), st.just(1e4))


@given(sparse_records(), dead_ticks)
@example(  # the second tag is within the dead time of the first, three ticks on
    record=([[(0, 16, 0), (3, -16, 0)]], [9], [(-np.inf, -np.inf)], 0), dead=2.5)
@example(  # the carried time drops a first tag that links to no other
    record=([[(1, 0, 0), (50, 0, 0)]], [60], [(0.0, -np.inf)], 0), dead=2.0)
@example(  # the last kept tag before the frontier links to no other; a held tag follows
    record=([[], [(0, 0, 0), (100, 0, 0)]], [0, 50], [(-np.inf, -np.inf)] * 2, 0), dead=2.0)
@example(  # at 2**54, tick 13's time rounds to 12 ticks after tick 0's
    record=([[(0, 0, 0), (13, 0, 0), (60, 0, 0)]], [61], [(-np.inf, -np.inf)], 2 ** 54),
    dead=12.5)
def test_sparse_dead_time_filter_equals_whole_stream_filters(record, dead):
    segments, stop_ticks, carried_last, base = record
    # The events as the emit orders them: by key, and by time on one key.
    ev = [(base + t + g * SEGMENT_TICKS, float(base + t) + j / 64, p)
          for g, seg in enumerate(segments) for t, j, p in seg]
    tick = np.array([e[0] for e in ev], np.int64)
    times = np.array([e[1] for e in ev], float)
    port = np.array([e[2] for e in ev], np.int64)
    keys = tick << 2 | port
    order = np.lexsort((times, keys))
    keys, times, port = keys[order], times[order], port[order]
    shift = np.arange(len(segments)) * SEGMENT_TICKS    # key tick less plain tick
    starts = np.searchsorted(keys, base + shift << 2)
    stops = np.maximum(np.searchsorted(keys, base + shift + stop_ticks << 2), starts)
    held = np.zeros(keys.size, bool)
    for g, stop in enumerate(stops):
        held[stop:np.append(starts[1:], keys.size)[g]] = True
    last = np.array(carried_last, float).T + base
    carried = np.rint(last.max(axis=0)) + shift

    want_last = last.copy()
    want = _port_dead_time_filter(times, np.where(held, 2, port), dead, want_last, starts)
    # The tightest reach that the times allow (two ticks more than
    # floor(dead) + 1 apart, or on integer times floor(dead) apart, lie
    # more than ``dead`` apart), and the reach of the emit and of the merge.
    integer = np.all(times == np.rint(times)) and np.all(last == np.rint(last))
    for margin in ((0, 1) if integer else (1, 3)):
        got_last = last.copy()
        reach, links = _links(keys, dead, margin)
        drop = _sparse_dead_time_filter(keys, links, lambda pos: times[pos], dead, reach,
                                        got_last, carried, starts, stops)
        keep = ~held
        keep[drop] = False
        assert not held[drop].any()
        assert keep.tolist() == want.tolist()
        assert np.array_equal(got_last, want_last)

    # Per (segment, port): the fixed-point oracle after the carried time.
    for g, (lo, hi) in enumerate(zip(starts, stops)):
        for p in (0, 1):
            sel = np.flatnonzero(port[lo:hi] == p) + lo
            ok = fixed_point_dead_time_filter(np.append(last[p, g], times[sel]), dead)[1:]
            assert np.array_equal(want[sel], ok)
            kept = times[sel[ok]]
            assert want_last[p, g] == (kept[-1] if kept.size else last[p, g])
    if dead > 400 and np.isneginf(last).all():
        # A dead time longer than the record keeps one tag per (segment, port).
        assert want.sum() == sum(len(set(port[lo:hi].tolist())) for lo, hi in zip(starts, stops))


@given(module_streams(), st.integers(0, 40), cut_ticks)
def test_chunked_merge_equals_one_shot(streams, dead_int, cuts):
    runs = [tag_keys(s, 0) for s in streams]
    last = np.full(2, -np.inf)
    got = np.concatenate([merge_keys(np.concatenate(chunk), dead_int, last, len(chunk))
                          for chunk in zip(*(pieces(k, cuts) for k in runs))])
    assert np.array_equal(got, merge_keys(np.concatenate(runs), dead_int,
                                          np.full(2, -np.inf), len(runs)))
    assert key_projection(got) == merged_projection(streams, dead_int)


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


def key_stream(keys, duration):
    """The DA-basis tag stream of merged keys: one detector per port."""
    port = (keys & 1).astype(np.int8)
    return TagStream(keys >> 2, port + 2, port, np.zeros(keys.size, np.int32),
                     np.zeros(keys.size, bool), DEFAULT_DETECTOR.tick, duration)


def test_chunked_block_counts_equal_one_shot_reduction(monkeypatch):
    # Small chunks so that a short block spans many; the chunks' tags,
    # joined and reduced at once, must give the unit's counts exactly.
    monkeypatch.setattr(simulate, "CHUNK_TAGS", 1000)
    plan, _ = build_grid_plan(805.0, 815.0, 400e9, 50e9, 810.05)
    chans = resolve_channels(FROZEN_CALIBRATION.source(), plan, 10.0,
                             brightness_scale=20.0)
    window, block, seed = CoincidenceWindow(1e-9), 0.01, 21
    delay = simulate.accidental_delay(DEFAULT_DETECTOR, window)
    chunks = list(block_chunks(chans, DEFAULT_DETECTOR, block))
    assert len(chunks) > 10 and chunks[-1].end == block
    assert all(a.end == b.start for a, b in zip(chunks, chunks[1:]))
    channels, merged_counts = simulate_basis(chans, Basis.DA, DEFAULT_DETECTOR, window,
                                             block, seed)

    alice, bob = [], []
    for slot, ch in enumerate(chans):
        carry = (DetectorCarry(), DetectorCarry())
        blks = [simulate_channel_block(ch, Basis.DA, DEFAULT_DETECTOR, block, seed,
                                       slot, chunk, carry) for chunk in chunks]
        alice.append(_chain([a for a, _ in blks]))
        bob.append(_chain([b for _, b in blks]))
    dead = DEFAULT_DETECTOR.dead_time / DEFAULT_DETECTOR.tick
    merged = [key_stream(merge_keys(np.concatenate([tag_keys(s, side) for s in streams]),
                                    dead, np.full(2, -np.inf), len(streams)), block)
              for side, streams in enumerate((alice, bob))]
    for (counts, i), a, b in zip([(channels, i) for i in range(len(chans))]
                                 + [(merged_counts, 0)],
                                 alice + merged[:1], bob + merged[1:], strict=True):
        assert a.is_sorted() and b.is_sorted()
        assert np.array_equal(counts.cc[i],
                              tabulate(find_coincidences(a, b, window), Basis.DA).cc)
        assert counts.accidentals[i] == accidental_estimate(a, b, window, delay)
        assert counts.singles[:, i].tolist() == [len(a), len(b)]
    assert merged_counts.cc.sum() > 0
