"""Coincidence engine tests: window arithmetic, the greedy matcher
against an O(n^2) reference, the accidental-rate law, and tabulation."""

import numpy as np
import pytest

from wmqkd.coincidence import (CoincidenceWindow, CountsMatrix, Matches,
                               accidental_estimate, find_coincidences, tabulate)
from wmqkd.detection import MAX_TICKS, Basis, Outcome, TagStream

TICK = 1.0 / 12.15e9


def make_tags(ticks, outcomes=None, det=0, duration=1.0):
    ticks = np.asarray(ticks, dtype=np.int64)
    if outcomes is None:
        outcomes = np.zeros(ticks.size, np.int8)
    if np.isscalar(det):
        det = np.full(ticks.size, det, np.int32)
    return TagStream(ticks, outcomes, det, np.zeros(ticks.size, np.int32),
                     np.zeros(ticks.size, bool), TICK, duration)


def brute_force_greedy(ta, tb, half):
    """Quadratic reference matcher: repeatedly take the globally
    earliest unprocessed tag and pair it with the nearest unused
    opposite tag within the window (ties: earlier tag wins)."""
    used_a = np.zeros(ta.size, bool)
    used_b = np.zeros(tb.size, bool)
    done_a = np.zeros(ta.size, bool)
    done_b = np.zeros(tb.size, bool)
    pairs = []
    while True:
        ia = next((k for k in range(ta.size) if not (used_a[k] or done_a[k])), None)
        ib = next((k for k in range(tb.size) if not (used_b[k] or done_b[k])), None)
        if ia is None and ib is None:
            break
        take_a = ib is None or (ia is not None and ta[ia] <= tb[ib])
        if take_a:
            best = None
            for j in range(tb.size):
                if used_b[j] or done_b[j]:
                    continue
                d = abs(int(tb[j]) - int(ta[ia]))
                if d <= half and (best is None or d < best[0]
                                  or (d == best[0] and tb[j] < tb[best[1]])):
                    best = (d, j)
            if best is None:
                done_a[ia] = True
            else:
                used_a[ia] = True
                used_b[best[1]] = True
                pairs.append((ia, best[1]))
        else:
            best = None
            for i in range(ta.size):
                if used_a[i] or done_a[i]:
                    continue
                d = abs(int(ta[i]) - int(tb[ib]))
                if d <= half and (best is None or d < best[0]
                                  or (d == best[0] and ta[i] < ta[best[1]])):
                    best = (d, i)
            if best is None:
                done_b[ib] = True
            else:
                used_b[ib] = True
                used_a[best[1]] = True
                pairs.append((best[1], ib))
    return sorted(pairs)


def test_identical_times_match():
    m = find_coincidences(make_tags([100]), make_tags([100]), CoincidenceWindow(1e-9))
    assert len(m) == 1


def test_outside_half_window_no_match():
    # Bob at +0.6 ns with t_c = 1 ns: 0.6 > 0.5, no match.
    dt = int(round(0.6e-9 / TICK))
    m = find_coincidences(make_tags([0]), make_tags([dt]), CoincidenceWindow(1e-9))
    assert len(m) == 0
    dt_in = int(np.floor(0.5e-9 / TICK))
    m = find_coincidences(make_tags([0]), make_tags([dt_in]), CoincidenceWindow(1e-9))
    assert len(m) == 1


def test_window_tick_arithmetic():
    w = CoincidenceWindow(1e-9)
    assert w.half_width_ticks(TICK) == 6
    assert w.effective_width(TICK) == pytest.approx(13 * TICK)


def test_greedy_matcher_against_brute_force():
    rng = np.random.default_rng(42)
    for trial in range(60):
        na, nb = rng.integers(1, 300, 2)
        span = int(rng.integers(50, 5000))
        half = int(rng.integers(0, 60))
        ta = np.sort(rng.integers(0, span, na))
        tb = np.sort(rng.integers(0, span, nb))
        m = find_coincidences(make_tags(ta), make_tags(tb),
                              CoincidenceWindow((2 * half + 1) * TICK))
        got = sorted(zip(m.idx_a.tolist(), m.idx_b.tolist()))
        oracle = brute_force_greedy(ta, tb, half)
        assert got == oracle, f"trial {trial}: half={half}"


def test_matching_symmetric_under_role_exchange():
    rng = np.random.default_rng(43)
    for trial in range(10):
        ta = np.sort(rng.integers(0, 10000, 200))
        tb = np.sort(rng.integers(0, 10000, 250))
        w = CoincidenceWindow(25 * TICK)
        m1 = find_coincidences(make_tags(ta), make_tags(tb), w)
        m2 = find_coincidences(make_tags(tb), make_tags(ta), w)
        assert sorted(zip(m1.idx_a.tolist(), m1.idx_b.tolist())) == \
            sorted(zip(m2.idx_b.tolist(), m2.idx_a.tolist()))


def test_match_count_bounded():
    rng = np.random.default_rng(44)
    ta = np.sort(rng.integers(0, 1000, 500))
    tb = np.sort(rng.integers(0, 1000, 80))
    m = find_coincidences(make_tags(ta), make_tags(tb), CoincidenceWindow(9 * TICK))
    assert len(m) <= 80


def test_each_tag_used_once():
    rng = np.random.default_rng(45)
    ta = np.sort(rng.integers(0, 2000, 400))
    tb = np.sort(rng.integers(0, 2000, 400))
    m = find_coincidences(make_tags(ta), make_tags(tb), CoincidenceWindow(21 * TICK))
    assert len(np.unique(m.idx_a)) == len(m)
    assert len(np.unique(m.idx_b)) == len(m)


def test_uncorrelated_rate_converges():
    # matches/duration -> S_A * S_B * t_c within 5 sigma, with t_c an
    # odd multiple of the tick so the discretized width is exact.
    rng = np.random.default_rng(46)
    duration = 5.0
    s_a = s_b = 2e5
    t_c = 13 * TICK
    ta = np.sort(rng.integers(0, int(duration / TICK), rng.poisson(s_a * duration)))
    tb = np.sort(rng.integers(0, int(duration / TICK), rng.poisson(s_b * duration)))
    m = find_coincidences(make_tags(ta, duration=duration),
                          make_tags(tb, duration=duration), CoincidenceWindow(t_c))
    expected = s_a * s_b * t_c * duration
    assert abs(len(m) - expected) < 5 * np.sqrt(expected)


def test_unsorted_input_rejected():
    bad = make_tags([5, 1])
    with pytest.raises(ValueError, match="sorted"):
        find_coincidences(bad, make_tags([1, 2]), CoincidenceWindow(1e-9))


@pytest.mark.parametrize("ta, tb", [(5, 2 ** 62 + 5), (2 ** 61 - 10, 2 ** 61 + 10),
                                    (-MAX_TICKS, 0), (0, MAX_TICKS)])
def test_ticks_beyond_the_key_bound_are_rejected(ta, tb):
    # Packed as keys, such ticks once wrapped: tick 5 matched 2**62 + 5,
    # and two tags 20 ticks apart across 2**61 did not match.
    a, b, w = make_tags([ta]), make_tags([tb], det=1), CoincidenceWindow(101 * TICK)
    with pytest.raises(ValueError, match=r"2\*\*60"):
        find_coincidences(a, b, w)
    with pytest.raises(ValueError, match=r"2\*\*60"):
        accidental_estimate(a, b, w, 0.0)


def test_the_key_bound_applies_to_bobs_ticks_after_the_delay():
    w = CoincidenceWindow(101 * TICK)
    edge = make_tags([MAX_TICKS - 1])
    assert len(find_coincidences(edge, make_tags([MAX_TICKS - 1], det=1), w)) == 1
    a, b = make_tags([0]), make_tags([MAX_TICKS - 10], det=1)
    assert accidental_estimate(a, b, w, 0.0) == 0
    with pytest.raises(ValueError, match=r"2\*\*60"):
        accidental_estimate(a, b, w, 20 * TICK)
    b = make_tags([10 - MAX_TICKS], det=1)
    with pytest.raises(ValueError, match=r"2\*\*60"):
        accidental_estimate(a, b, w, -20 * TICK)


@pytest.mark.parametrize("delay", [np.inf, -np.inf, np.nan, 1e300])
def test_accidental_estimate_rejects_a_delay_of_no_finite_ticks(delay):
    # Such a delay is no whole number of ticks; the error names it, not
    # the integer conversion that fails on it.
    with pytest.raises(ValueError, match="delay"):
        accidental_estimate(make_tags([0]), make_tags([5], det=1), CoincidenceWindow(1e-9),
                            delay)


def test_tabulate_empty():
    m = find_coincidences(make_tags([]), make_tags([]), CoincidenceWindow(1e-9))
    counts = tabulate(m, Basis.HV)
    assert counts.total == 0
    assert np.all(counts.cc == 0)


def test_tabulate_perfect_anticorrelation():
    # v_sys = 1 noiseless block: only HV and VH cells fill.
    rng = np.random.default_rng(47)
    n = 500
    ticks = np.sort(rng.integers(0, 10**9, n))
    bits_a = rng.integers(0, 2, n).astype(np.int8)
    a = make_tags(ticks, outcomes=bits_a)
    b = make_tags(ticks, outcomes=(1 - bits_a).astype(np.int8))
    m = find_coincidences(a, b, CoincidenceWindow(1e-9))
    counts = tabulate(m, Basis.HV)
    assert counts.total == n
    assert counts.cc[0, 0] == 0 and counts.cc[1, 1] == 0
    assert counts.erroneous == 0


def test_tabulate_rejects_wrong_basis():
    a = make_tags([0], outcomes=np.array([Outcome.H.value], np.int8))
    b = make_tags([0], outcomes=np.array([Outcome.D.value], np.int8))
    m = find_coincidences(a, b, CoincidenceWindow(1e-9))
    with pytest.raises(ValueError, match="basis"):
        tabulate(m, Basis.HV)


def test_counts_matrix_validation():
    c = CountsMatrix(Basis.HV, [[1, 2], [3, 4]], 1, 1.0)
    assert c.total == 10 and c.erroneous == 5
    with pytest.raises(ValueError):
        CountsMatrix(Basis.HV, [[-1, 0], [0, 0]], 1, 1.0)
    with pytest.raises(ValueError):
        CountsMatrix(Basis.HV, [[1, 2, 3], [4, 5, 6]], 1, 1.0)


def test_accidental_estimate_poisson_product():
    # Independent Poisson streams: estimate ~= S_A * S_B * t_c_eff * T.
    rng = np.random.default_rng(48)
    duration = 10.0
    s_rate = 1e5
    t_c = 13 * TICK
    na, nb = rng.poisson(s_rate * duration, 2)
    ta = np.sort(rng.integers(0, int(duration / TICK), na))
    tb = np.sort(rng.integers(0, int(duration / TICK), nb))
    est = accidental_estimate(make_tags(ta, duration=duration),
                              make_tags(tb, duration=duration),
                              CoincidenceWindow(t_c), delay=5e-7)
    expected = s_rate * s_rate * t_c * duration
    assert abs(est - expected) < 5 * np.sqrt(expected)


def test_accidental_estimate_zero_rate():
    w = CoincidenceWindow(1e-9)
    assert accidental_estimate(make_tags([]), make_tags([]), w, 1e-7) == 0


def test_accidental_delay_zero_counts_true_coincidences():
    ticks = np.arange(0, 10**6, 10**4, dtype=np.int64)
    a = make_tags(ticks)
    b = make_tags(ticks)
    w = CoincidenceWindow(1e-9)
    assert accidental_estimate(a, b, w, 0.0) == len(ticks)
