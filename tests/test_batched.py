"""The batched pass: one detector emit per side and one counter over all
of a chunk's channels.  It must give exactly what the per-channel path
gives (``per_channel_oracle``), chunk by chunk, and the properties that
the per-channel path checked on every chunk must hold by construction.
The hand-built records use a tick of 1 and a jitter of 0.1 ticks (a
margin of 4 ticks), with events on a quarter-tick grid: exact ties,
shared ticks on both ports, negative ticks near t = 0, and bursts inside
the dead time at a slot's start and across a frontier."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wmqkd.detection as detection
import wmqkd.simulate as simulate
from per_channel_oracle import Unit, dead_time_filter, tag_keys
from test_coincidence import brute_force_greedy
from wmqkd.calibration import DEFAULT_DETECTOR, FROZEN_CALIBRATION
from wmqkd.channels import build_grid_plan, build_table1_plan
from wmqkd.coincidence import (CoincidenceWindow, _greedy_two_pointer, check_basis,
                               match_keys)
from wmqkd.detection import (Basis, DetectorCarry, DetectorConfig, _dead_time_filter, detect,
                             emit_frontier, emit_keys, key_frame)
from wmqkd.simulate import block_chunks, resolve_channels, simulate_basis

BLOCK = 100.0


def config(dead):
    return DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.1,
                          dead_time=dead, tick=1.0)


# One event: arrival and jitter in quarter ticks (the jitter within the
# 4-tick margin), port bit and dark flag.
events = st.lists(st.tuples(st.integers(0, 399), st.integers(-16, 16),
                            st.integers(0, 1), st.booleans()), max_size=40)


@st.composite
def records(draw):
    """Alice's and Bob's events of 1 to 5 channels, and the chunk edges."""
    n = draw(st.integers(1, 5))
    chans = [(draw(events), draw(events)) for _ in range(n)]
    ends = sorted(set(draw(st.lists(st.integers(1, 99), max_size=4))))
    return chans, [0.0] + [float(e) for e in ends] + [BLOCK]


def chunk_events(evs, start, end):
    """The jittered times, port bits and dark flags of the events that
    arrive in ``[start, end)``, in the order drawn."""
    sel = [e for e in evs if start <= e[0] / 4 < end]
    t = np.asarray([(a + j) / 4 for a, j, _, _ in sel], float)
    return (t, np.asarray([p for _, _, p, _ in sel], np.int8),
            np.asarray([d for _, _, _, d in sel], bool))


def run_both(chans, edges, dead, half, delay, check):
    """Feed each chunk to the batched pass and to the per-channel oracle,
    and ``check(chunk, frame, keys, darks, oracle_out, counter, oracle)``
    after each chunk."""
    n = len(chans)
    detector = config(dead)
    window = CoincidenceWindow(2.0 * half + 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "accidental_delay", lambda detector, window: float(delay))
        frame = simulate.block_frame(BLOCK, detector, window, n)
        counter = simulate._BlockCounter(frame, detector, window)
    oracle = Unit(n, detector, half, delay)
    carries = DetectorCarry(n), DetectorCarry(n)
    for k, (start, end) in enumerate(zip(edges, edges[1:])):
        frontier = None if end == BLOCK else emit_frontier(detector, end)
        draws = [[chunk_events(c[side], start, end) for side in (0, 1)] for c in chans]
        want = oracle.push(draws, frontier)
        out = [emit_keys([d[side] for d in draws], detector, carry, frontier, side, frame)
               for side, carry in enumerate(carries)]
        counter.count([out[0][0], out[1][0]], frontier)
        check(k, frame, [o[0] for o in out], [o[1] for o in out], want, counter, oracle)


@settings(deadline=None)
@given(records(), st.floats(0.0, 6.0), st.integers(0, 6), st.integers(0, 30))
@example(  # a burst of four at slot 1's start, across a frontier at tick 6
    record=([([(0, 0, 0, False)], []),
             ([(0, -8, 1, False), (2, -6, 1, True), (4, 0, 1, False), (40, 0, 1, False)],
              [(1, 0, 0, False), (2, 0, 1, False)])],
            [0.0, 10.0, BLOCK]), dead=3.0, half=1, delay=5)
@example(  # matches on the first key tick of slot 1's segment (t = -4)
    record=([([], []), ([(0, -16, 0, False)], [(0, -16, 0, False), (0, -15, 1, True)])],
            [0.0, BLOCK]), dead=0.0, half=0, delay=0)
def test_batched_pass_equals_per_channel_oracle(record, dead, half, delay):
    chans, edges = record

    def check(k, frame, keys, darks, want, counter, oracle):
        offsets = (np.arange(len(chans)) * frame.width - frame.base) << 2
        for side in (0, 1):
            assert np.array_equal(keys[side], np.concatenate(
                [out[side][0] + off for out, off in zip(want, offsets)]))
            assert np.array_equal(darks[side], np.concatenate([out[side][1] for out in want]))
        rows = [(counter.channels, i) for i in range(len(chans))]
        if counter.merged:
            rows.append((counter.merged, 0))
        for (counts, i), (cc, singles_a, singles_b, acc) in zip(rows, oracle.rows(),
                                                                  strict=True):
            assert np.array_equal(counts.cc[i], cc)
            assert counts.singles[:, i].tolist() == [singles_a, singles_b]
            assert counts.accidentals[i] == acc

    run_both(chans, edges, dead, half, delay, check)


@settings(deadline=None)
@given(records(), st.floats(0.0, 6.0))
def test_emitted_keys_are_sorted_and_in_their_slot(record, dead):
    chans, edges = record
    # The per-channel path checked each chunk's order (``is_sorted``); the
    # batched pass relies on the emit: its keys are sorted, each slot's in
    # the slot's own segment of key ticks, with the side bit of the side.
    def check(k, frame, keys, darks, want, counter, oracle):
        for side in (0, 1):
            assert np.all(np.diff(keys[side]) >= 0)
            assert np.all(keys[side] >> 1 & 1 == side)
            slots = np.repeat(np.arange(len(chans)), [out[side][0].size for out in want])
            assert np.array_equal((keys[side] >> 2) // frame.width, slots)

    run_both(chans, edges, dead, 2, 7, check)


@given(records(), st.floats(0.0, 6.0), st.sampled_from(list(Basis)))
def test_emitted_keys_are_those_of_tags_in_the_block_basis(record, dead, basis):
    # The per-channel path checked that every outcome of a chunk was in
    # the block's basis (``check_basis``).  The batched keys hold no
    # outcome, only the port bit; they are the keys of the tags that the
    # detector labels in the block's basis, whichever basis that is.
    chans, _ = record
    detector = config(dead)
    for evs in chans[0]:
        t, bits, dark = chunk_events(evs, 0.0, BLOCK)
        keys, _ = emit_keys([(t.copy(), bits, dark)], detector, DetectorCarry(), None)
        tags = detection._emit(t, bits, dark, detector, 0, basis, (0, 1), BLOCK,
                               DetectorCarry(), None)
        check_basis(basis, tags.outcomes)
        assert np.array_equal(keys, tag_keys(tags, 0))


def block_counts(chans, basis, detector, window, block, seed):
    """The oracle's rows for a whole basis block, from the program's draws."""
    n = len(chans)
    oracle = Unit(n, detector, window.half_width_ticks(detector.tick),
                  simulate.delay_ticks(simulate.accidental_delay(detector, window),
                                       detector.tick))
    for chunk in block_chunks(chans, detector, block):
        oracle.push([simulate._channel_draws(ch, basis, detector, seed, chunk)
                     for ch in chans], chunk.frontier)
    return oracle.rows()


@pytest.mark.parametrize("detector, brightness", [
    (DEFAULT_DETECTOR, 20.0),
    # Many shared ticks on both ports: a 2 ns tick, no jitter, no dead time.
    (DetectorConfig(jitter_sigma=0.0, dead_time=0.0, tick=2e-9), 20.0),
    # Bursts inside the dead time: 1 us of it at high rates.
    (DetectorConfig(dead_time=1e-6), 60.0),
])
def test_simulated_block_equals_per_channel_oracle(monkeypatch, detector, brightness):
    monkeypatch.setattr(simulate, "CHUNK_TAGS", 1000)
    plan, _ = build_grid_plan(805.0, 815.0, 400e9, 50e9, 810.05)
    chans = resolve_channels(FROZEN_CALIBRATION.source(), plan, 10.0,
                             brightness_scale=brightness)
    window, block, seed = CoincidenceWindow(1e-9), 0.005, 17
    assert len(list(block_chunks(chans, detector, block))) > 5
    channels, merged = simulate_basis(chans, Basis.HV, detector, window, block, seed)
    rows = [(channels, i) for i in range(len(chans))] + [(merged, 0)]
    for (counts, i), (cc, singles_a, singles_b, acc) in zip(
            rows, block_counts(chans, Basis.HV, detector, window, block, seed), strict=True):
        assert np.array_equal(counts.cc[i], cc)
        assert counts.singles[:, i].tolist() == [singles_a, singles_b]
        assert counts.accidentals[i] == acc
    assert merged.cc.sum() > 0


@pytest.mark.parametrize("plan", [build_table1_plan(),
                                  build_grid_plan(795.0, 825.0, 400e9, 50e9, 810.05)[0]])
def test_block_counter_leaves_the_callers_keys_unchanged(monkeypatch, plan):
    # The merged baseline moves each channel's keys to plain ticks; the
    # caller's keys must come back as they went in.
    monkeypatch.setattr(simulate, "CHUNK_TAGS", 10_000)
    chans = resolve_channels(FROZEN_CALIBRATION.source(), plan, 10.0)
    detector, window, block, n = DEFAULT_DETECTOR, CoincidenceWindow(1e-9), 2e-3, len(chans)
    frame = simulate.block_frame(block, detector, window, n)
    counter = simulate._BlockCounter(frame, detector, window)
    carries = DetectorCarry(n), DetectorCarry(n)
    assert n in (2, 17) and counter.merged is not None
    for chunk in block_chunks(chans, detector, block):
        draws = [simulate._channel_draws(ch, Basis.HV, detector, 5, chunk) for ch in chans]
        ka, kb = (emit_keys([d[side] for d in draws], detector, carries[side],
                            chunk.frontier, side, frame)[0] for side in (0, 1))
        want_a, want_b = ka.copy(), kb.copy()
        counter.count([ka, kb], chunk.frontier)
        assert np.array_equal(ka, want_a) and np.array_equal(kb, want_b)
    assert chunk.index > 2 and counter.merged.cc.sum() > 0


def per_run_matches(keys, half):
    """Greedy matches of sorted keys, each run of close links walked on
    its own, as the matcher did before it walked them all at once."""
    t = keys >> 2
    close = np.flatnonzero(np.diff(t) <= half)
    pairs = []
    if close.size == 0:
        return pairs
    brk = np.flatnonzero(np.diff(close) != 1) + 1
    firsts = close[np.concatenate(([0], brk))]
    lasts = close[np.concatenate((brk - 1, [close.size - 1]))] + 1
    for lo, hi in zip(firsts.tolist(), lasts.tolist()):
        run = keys[lo:hi + 1]
        ra, rb = run[run & 2 == 0], run[run & 2 != 0]
        sub_a, sub_b = _greedy_two_pointer((ra >> 2).tolist(), (rb >> 2).tolist(), half)
        pairs += zip(ra[sub_a].tolist(), rb[sub_b].tolist())
    return sorted(pairs)


@st.composite
def clustered_keys(draw):
    """Alice's and Bob's sorted keys in dense clusters, with many equal
    ticks within and across the sides."""
    tags = []
    for center in draw(st.lists(st.integers(0, 3000), max_size=8)):
        tags += draw(st.lists(st.tuples(st.integers(center, center + 60),
                                        st.integers(0, 1), st.integers(0, 1)),
                              min_size=1, max_size=14))
    keys = np.asarray(sorted(t << 2 | side << 1 | port for t, side, port in tags), np.int64)
    return keys[keys & 2 == 0], keys[keys & 2 != 0]


@given(clustered_keys(), st.integers(0, 50))
def test_one_walk_equals_per_run_walks_and_greedy_oracle(sides, half):
    ka, kb = sides
    keys, pos_a, pos_b = match_keys(ka, kb, half)
    got = sorted(zip(keys[pos_a].tolist(), keys[pos_b].tolist()))
    assert got == per_run_matches(keys, half)
    la, lb = ka.tolist(), kb.tolist()
    assert got == sorted((la[i], lb[j]) for i, j in
                         brute_force_greedy(ka >> 2, kb >> 2, half))


def test_detect_rejects_overlong_ticks_before_drawing(monkeypatch):
    # 3 s of 1e-19 s ticks is 3e19 ticks: they would wrap in int64.
    def no_draws(seed):
        raise AssertionError("drew")

    monkeypatch.setattr(detection, "_rng", no_draws)
    with pytest.raises(ValueError, match=r"2\*\*60"):
        detect([1.0, 2.0], [0, 1], DetectorConfig(tick=1e-19), 3.0, seed=1)


def test_tag_past_the_record_margin_raises():
    # Slot 0's ticks may not reach below the frame's base (4 ticks before
    # t = 0), or they would land in no slot.
    detector = config(0.0)
    frame = key_frame(0.0, BLOCK, detector, 2)
    none = (np.empty(0), np.empty(0, np.int8), np.empty(0, bool))
    with pytest.raises(ValueError, match="margin"):
        emit_keys([(np.array([-4.6]), np.zeros(1, np.int8), np.zeros(1, bool)), none],
                  detector, DetectorCarry(2), None, 0, frame)


def test_point_of_no_channels_is_empty():
    plan = build_grid_plan(805.0, 815.0, 400e9, 50e9, 810.05)[0]
    empty = type(plan)([], plan.spdc_center, plan.tolerance)
    chans = resolve_channels(FROZEN_CALIBRATION.source(), empty, 30.0)
    assert simulate.simulate_point(chans, DEFAULT_DETECTOR, CoincidenceWindow(1e-9),
                                   0.01, 1) == []


@given(st.lists(st.lists(st.integers(0, 120), max_size=30).map(sorted), min_size=1,
                max_size=5),
       st.lists(st.integers(-20, 130), min_size=5, max_size=5), st.floats(0.0, 12.0))
def test_segmented_dead_time_filter_equals_each_segment_alone(segments, lasts, dead):
    # Each segment is filtered on its own, from its own last kept time
    # (-20 stands for none), whatever the segments before it hold.
    times = np.asarray([t for seg in segments for t in seg], float) / 4
    starts = np.cumsum([0] + [len(seg) for seg in segments[:-1]])
    last = np.asarray([-np.inf if x == -20 else x / 4 for x in lasts[:len(segments)]])
    got = _dead_time_filter(times, dead, last, starts)
    ends = np.append(starts[1:], times.size)
    for lo, hi, x in zip(starts, ends, last):
        assert np.array_equal(got[lo:hi], dead_time_filter(times[lo:hi], dead, x))


@given(st.floats(1e-12, 1e-6), st.floats(0.0, 1e-6), st.floats(1e-12, 1e-9),
       st.floats(1e-10, 1e-5), st.integers(2, 300))
def test_key_frame_keeps_channels_out_of_each_others_reach(jitter, dead, tick, t_c, n):
    # Slot s's highest tick, delayed by the accidental delay, stays more
    # than a half window below slot s + 1's lowest.
    detector = DetectorConfig(jitter_sigma=jitter, dead_time=dead, tick=tick)
    window = CoincidenceWindow(t_c)
    block = 1e-3
    frame = simulate.block_frame(block, detector, window, n)
    margin = detection.JITTER_MARGIN_SIGMAS * jitter
    lowest = np.rint(-margin / tick)
    highest = np.rint((block + margin) / tick)
    assert frame.base <= lowest and highest <= frame.base + frame.span
    reach = frame.width - frame.span
    assert reach > window.half_width_ticks(tick) + simulate.delay_ticks(
        simulate.accidental_delay(detector, window), tick)


def traced_lines(n, per_side):
    """The line events run in the own frames of the emit and the block
    counter for one chunk of ``n`` channels with ``per_side`` events per
    side in all, their comprehension frames left out."""
    detector, window = config(2.0), CoincidenceWindow(3.0)
    frame = simulate.block_frame(BLOCK, detector, window, n)
    counter = simulate._BlockCounter(frame, detector, window)
    carries = DetectorCarry(n), DetectorCarry(n)
    rng = np.random.default_rng(3)
    draws = [[(np.sort(rng.uniform(0.0, BLOCK, per_side // n)),
               rng.integers(0, 2, per_side // n, dtype=np.int8), None) for _ in range(n)]
             for _ in (0, 1)]
    codes = {emit_keys.__code__, simulate._BlockCounter.count.__code__,
             simulate._BlockCounter._merge.__code__, simulate._SegmentCounts.count.__code__}
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    frontier = emit_frontier(detector, BLOCK / 2)
    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        keys = [emit_keys(draws[side], detector, carries[side], frontier, side, frame)[0]
                for side in (0, 1)]
        counter.count(keys, frontier)
    finally:
        sys.settrace(old)
    assert counter.channels.singles.sum() > 0 and counter.merged.cc.sum() > 0
    return lines


def test_a_chunk_takes_no_python_step_per_channel_slot():
    # The slot layout is applied by array operations (KeyFrame.offsets and
    # KeyFrame.bounds), so 64 slots run the same lines as 2.
    assert traced_lines(2, 1280) == traced_lines(64, 1280)
