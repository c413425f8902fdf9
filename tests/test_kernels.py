"""Property tests of the sorted-stream kernels against brute-force
oracles: the coincidence matcher, the k-way detector merge of the
non-multiplexed baseline, the dead-time filter and the canonical tag
order of the detector output."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from test_coincidence import brute_force_greedy, make_tags
from wmqkd.coincidence import CoincidenceWindow, find_coincidences
from wmqkd.detection import (DetectorConfig, TagStream, _dead_time_filter,
                             detect)
from wmqkd.simulate import _merge_side, detector_ids

TICK = 1.0 / 12.15e9

sorted_ticks = st.lists(st.integers(0, 400), max_size=60).map(sorted)


def fixed_point_dead_time_filter(times, dead):
    """Reference non-paralyzable filter: per pass, among events violating
    the spacing to their current predecessor, the first of each
    violating run is provably dead and dropped."""
    n = times.size
    keep = np.ones(n, dtype=bool)
    if n < 2 or dead < 0:
        return keep
    idx = np.arange(n)
    while True:
        alive = idx[keep]
        if alive.size < 2:
            return keep
        t = times[alive]
        bad = ~(t[1:] > t[:-1] + dead)
        if not bad.any():
            return keep
        first_of_run = bad & np.concatenate(([True], ~bad[:-1]))
        keep[alive[1:][first_of_run]] = False


def brute_force_merge_side(streams, dead_ticks, id_base):
    """Quadratic reference merge: walk the (tick, detector id)-sorted
    union of all streams; a tag is kept only if it is later than every
    kept tag of its port plus the dead time."""
    events = sorted(
        ((int(s.ticks[i]), int(s.detector_ids[i]), int(s.channel_indices[i]),
          bool(s.dark[i]))
         for s in streams for i in range(len(s))),
        key=lambda e: e[:2],
    )
    kept = []
    for t, det, ch, dark in events:
        port = det % 2
        if all(t > kt + dead_ticks for kt, kp, _, _ in kept if kp == port):
            kept.append((t, port, ch, dark))
    return sorted(((t, id_base + port, ch, dark) for t, port, ch, dark in kept),
                  key=lambda e: e[:2])


def module_stream(slot, ticks, ports, darks):
    """One analyzer module's stream in canonical (tick, detector id) order."""
    ids = np.asarray(detector_ids(slot, 0), dtype=np.int32)[np.asarray(ports, int)]
    s = TagStream(ticks, np.asarray(ports, np.int8), ids,
                  np.full(len(ticks), slot, np.int32), darks, TICK, 1.0)
    return s.sorted()


@st.composite
def module_streams(draw):
    k = draw(st.integers(1, 6))
    out = []
    for slot in range(k):
        ticks = draw(sorted_ticks)
        n = len(ticks)
        ports = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        darks = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        out.append(module_stream(slot, ticks, ports, darks))
    # Any stream order: equal ticks resolve by detector id, not by position.
    return draw(st.permutations(out))


@given(sorted_ticks, sorted_ticks, st.integers(0, 30))
def test_matcher_agrees_with_greedy_oracle(ta, tb, half):
    ta, tb = np.asarray(ta, np.int64), np.asarray(tb, np.int64)
    m = find_coincidences(make_tags(ta), make_tags(tb),
                          CoincidenceWindow((2 * half + 1) * TICK))
    assert sorted(zip(m.idx_a.tolist(), m.idx_b.tolist())) == brute_force_greedy(ta, tb, half)


@given(module_streams(), st.integers(0, 40))
def test_kway_merge_agrees_with_quadratic_oracle(streams, dead_int):
    dead = dead_int * TICK
    merged = _merge_side(streams, dead, 1000)
    got = list(zip(merged.ticks.tolist(), merged.detector_ids.tolist(),
                   merged.channel_indices.tolist(), merged.dark.tolist()))
    assert got == brute_force_merge_side(streams, dead / TICK, 1000)
    assert merged.is_sorted()


@given(st.lists(st.integers(0, 300), max_size=80).map(sorted),
       st.lists(st.floats(0.0, 1.0), max_size=80).map(sorted),
       st.floats(0.0, 40.0))
def test_dead_time_filter_agrees_with_fixed_point_oracle(int_times, frac, dead):
    # Integer-valued times make exact ties and exact dead-time spacings.
    for times in (np.asarray(int_times, float), 40.0 * np.asarray(frac, float)):
        got = _dead_time_filter(times, dead)
        assert np.array_equal(got, fixed_point_dead_time_filter(times, dead))


def test_dead_time_filter_burst():
    # 128k events spaced dead/10: one kept event in 11.
    times = np.arange(131072, dtype=float)
    keep = _dead_time_filter(times, 10.0)
    assert np.array_equal(np.flatnonzero(keep), np.arange(0, 131072, 11))


def test_detect_orders_shared_ticks_by_detector():
    # A coarse tick and no dead time put many tags of both detectors on
    # one tick; the output must still be in (tick, detector_id) order.
    cfg = DetectorConfig(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0,
                         dead_time=0.0, tick=1e-6)
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 1e-4, 2000))
    bits = rng.integers(0, 2, t.size).astype(np.int8)
    tags = detect(t, bits, cfg, 1e-4, seed=4, detector_ids=(9, 2))
    assert tags.is_sorted()
    order = np.lexsort((np.where(bits == 0, 9, 2), np.rint(t / 1e-6).astype(np.int64)))
    assert np.array_equal(tags.outcomes, bits[order])
